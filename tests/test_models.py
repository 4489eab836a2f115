import numpy as np
import pytest

from gemi import models
from gemi.config import default_config
from gemi.graph import AdjacencyPattern, knn_graph_symmetric
from gemi.losses import ReconTargets, recon_loss_and_grad
from gemi.models import (
    backward,
    draw_feature_masks,
    dropout_mask,
    forward,
    glorot,
    init_params,
)
from gemi.numerics import SeededRng, spmm
from model_oracle import dense_backward
from recon_oracle import dense_recon_loss_and_grad

CLAMP = default_config("vgae")["model"]["logsig_clamp"]


@pytest.fixture
def small(rng):
    X = rng.normal(size=(10, 4))
    adj = AdjacencyPattern(knn_graph_symmetric(X, 3)).operator()
    return X, adj


class TestInit:
    def test_glorot_scale(self):
        w = glorot(SeededRng(0), 400, 600)
        limit = np.sqrt(6.0 / (400 + 600))
        assert w.shape == (400, 600)
        assert np.abs(w).max() <= limit
        assert np.abs(w).mean() > limit / 4  # roughly uniform, not collapsed

    @pytest.mark.parametrize("kind,names", [
        ("gcn", ["w0", "w1"]),
        ("gae", ["w0", "w1", "head"]),
        ("vgae", ["w0", "w_mu", "w_sigma", "head"]),
    ])
    def test_param_shapes(self, kind, names, rng):
        p = init_params(kind, d=7, hidden=5, latent=4, c=3, rng=rng)
        assert list(p) == names
        assert p["w0"].shape == (7, 5)
        if kind == "gcn":
            assert p["w1"].shape == (5, 3)
        elif kind == "gae":
            assert p["w1"].shape == (5, 4)
            assert p["head"].shape == (4, 3)
        else:
            assert p["w_mu"].shape == (5, 4)
            assert p["w_sigma"].shape == (5, 4)
            assert p["head"].shape == (4, 3)

    @pytest.mark.parametrize("kind", ["gcn", "gae", "vgae"])
    def test_draw_order(self, kind):
        # the weights are consecutive glorot draws from one substream, in
        # key order: reordering the draws would change every trained model
        p = init_params(kind, d=7, hidden=5, latent=4, c=3, rng=SeededRng(11).substream("init"))
        rng = SeededRng(11).substream("init")
        for name, w in p.items():
            assert np.array_equal(w, glorot(rng, *w.shape)), name


class TestDropout:
    def test_rate_zero_is_no_mask(self, rng):
        assert dropout_mask(rng, (5, 5), 0.0) is None

    def test_inverted_scaling_values(self, rng):
        keep = dropout_mask(rng, (200, 200), 0.25)
        *_, scale = draw_feature_masks(rng, 2, 2, 2, 0.25)
        assert keep.dtype == bool
        assert set(np.unique(keep * scale).tolist()) <= {0.0, 1.0 / 0.75}

    def test_mean_preserving(self, rng):
        keep = dropout_mask(rng, (300, 300), 0.4)
        *_, scale = draw_feature_masks(rng, 2, 2, 2, 0.4)
        assert abs((keep * scale).mean() - 1.0) < 0.02


class TestGcn:
    def test_matches_manual_two_layer(self, small, rng):
        X, adj = small
        p = init_params("gcn", d=4, hidden=6, latent=0, c=3, rng=rng)
        out, cache = forward("gcn", p, adj, X)
        a = adj.toarray()
        h = np.maximum(a @ X @ p["w0"], 0.0)
        np.testing.assert_allclose(out["logits"], a @ h @ p["w1"], atol=1e-12)
        np.testing.assert_allclose(cache["hd"], h, atol=1e-12)

    def test_eval_mode_deterministic(self, small, rng):
        X, adj = small
        p = init_params("gcn", d=4, hidden=6, latent=0, c=3, rng=rng)
        o1, _ = forward("gcn", p, adj, X)
        o2, _ = forward("gcn", p, adj, X)
        assert np.array_equal(o1["logits"], o2["logits"])

    def test_training_mode_uses_dropout(self, small, rng):
        X, adj = small
        p = init_params("gcn", d=4, hidden=6, latent=0, c=3, rng=rng)
        o1, _ = forward("gcn", p, adj, X, draw_feature_masks(rng.substream("a"), 10, 4, 6, 0.5))
        o2, _ = forward("gcn", p, adj, X, draw_feature_masks(rng.substream("b"), 10, 4, 6, 0.5))
        assert not np.array_equal(o1["logits"], o2["logits"])

    def test_frozen_masks_reproduce(self, small, rng):
        X, adj = small
        p = init_params("gcn", d=4, hidden=6, latent=0, c=3, rng=rng)
        masks = draw_feature_masks(rng.substream("m"), 10, 4, 6, 0.5)
        o1, _ = forward("gcn", p, adj, X, masks=masks)
        o2, _ = forward("gcn", p, adj, X, masks=masks)
        assert np.array_equal(o1["logits"], o2["logits"])


def _decoder_matches_gram_oracle(Z, adj):
    # the decoder lives inside the reconstruction loss: its logits must
    # be Z Z^T, which the dense oracle forms explicitly
    targets = (adj.toarray() > 0).astype(np.float64)
    loss, dZ = recon_loss_and_grad(Z, ReconTargets(adj))
    expect_loss, expect_dZ = dense_recon_loss_and_grad(Z, targets)
    np.testing.assert_allclose(loss, expect_loss, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dZ, expect_dZ, rtol=0, atol=1e-12)


class TestDecoder:
    def test_scores_are_gram_matrix(self, rng):
        Z = rng.normal(size=(6, 3))
        adj = AdjacencyPattern(knn_graph_symmetric(rng.normal(size=(6, 2)), 2)).operator()
        _decoder_matches_gram_oracle(Z, adj)


class TestGae:
    def test_forward_pieces_consistent(self, small, rng):
        X, adj = small
        p = init_params("gae", d=4, hidden=6, latent=3, c=3, rng=rng)
        out, cache = forward("gae", p, adj, X)
        np.testing.assert_allclose(out["logits"], out["Z"] @ p["head"], atol=1e-12)
        assert set(out) == {"Z", "logits"}  # no n × n decoder output
        _decoder_matches_gram_oracle(out["Z"], adj)
        assert np.array_equal(cache["Z"], out["Z"])

    def test_latent_dimension(self, small, rng):
        X, adj = small
        p = init_params("gae", d=4, hidden=6, latent=3, c=3, rng=rng)
        out, _ = forward("gae", p, adj, X)
        assert out["Z"].shape == (10, 3)


class TestVgae:
    def test_encoder_shares_first_layer(self, small, rng):
        X, adj = small
        p = init_params("vgae", d=4, hidden=6, latent=3, c=3, rng=rng)
        out, _ = forward("vgae", p, adj, X, eps=np.zeros((10, 3)), clamp=CLAMP)
        a = adj.toarray()
        h = np.maximum(a @ X @ p["w0"], 0.0)
        m2 = a @ h
        np.testing.assert_allclose(out["mu"], m2 @ p["w_mu"], atol=1e-12)
        np.testing.assert_allclose(out["log_sigma"], np.clip(m2 @ p["w_sigma"], -CLAMP, CLAMP), atol=1e-12)

    def test_log_sigma_clamped(self, small, rng):
        X, adj = small
        p = init_params("vgae", d=4, hidden=6, latent=3, c=3, rng=rng)
        big = {**p, "w0": p["w0"] * 50.0, "w_sigma": p["w_sigma"] * 50.0}
        out, _ = forward("vgae", big, adj, X, eps=np.zeros((10, 3)), clamp=CLAMP)
        assert out["log_sigma"].max() <= CLAMP
        assert out["log_sigma"].min() >= -CLAMP

    def test_zero_eps_collapses_to_mu(self, small, rng):
        X, adj = small
        p = init_params("vgae", d=4, hidden=6, latent=3, c=3, rng=rng)
        out, _ = forward("vgae", p, adj, X, eps=np.zeros((10, 3)), clamp=CLAMP)
        assert np.array_equal(out["Z"], out["mu"])

    def test_sample_is_mu_plus_sigma_eps(self, small, rng):
        X, adj = small
        p = init_params("vgae", d=4, hidden=6, latent=3, c=3, rng=rng)
        eps = SeededRng(9).normal(size=(10, 3))
        out, _ = forward("vgae", p, adj, X, eps=eps, clamp=CLAMP)
        np.testing.assert_allclose(out["Z"], out["mu"] + np.exp(out["log_sigma"]) * eps, atol=1e-12)

    def test_sampling_varies_with_rng(self, small, rng):
        X, adj = small
        p = init_params("vgae", d=4, hidden=6, latent=3, c=3, rng=rng)
        o1, _ = forward("vgae", p, adj, X, eps=rng.substream("e1").normal(size=(10, 3)), clamp=CLAMP)
        o2, _ = forward("vgae", p, adj, X, eps=rng.substream("e2").normal(size=(10, 3)), clamp=CLAMP)
        assert np.array_equal(o1["mu"], o2["mu"])
        assert not np.array_equal(o1["Z"], o2["Z"])


def test_forward_spmm_consistency(small, rng):
    # spmm itself is checked against the dense oracle in test_numerics;
    # here the model caches exactly what spmm returns
    X, adj = small
    p = init_params("gcn", d=4, hidden=5, latent=0, c=3, rng=rng)
    _, cache = forward("gcn", p, adj, X)
    np.testing.assert_allclose(cache["m1"], spmm(adj, X), atol=0)


# (hidden, latent) with c = 3 labels: the second layer narrows in
# "narrow", widens in "wide" and keeps its width in "equal"
WIDTHS = {"narrow": (6, 3), "wide": (2, 4), "equal": (3, 3)}


def _order_case(kind, widths, dropout, seed=5):
    rng = SeededRng(seed)
    n, d, c = 12, 4, 3
    hidden, latent = WIDTHS[widths]
    X = rng.substream("x").normal(size=(n, d))
    adj = AdjacencyPattern(knn_graph_symmetric(X, 3)).operator()
    p = init_params(kind, d, hidden, latent, c, rng.substream("init"))
    masks = draw_feature_masks(rng.substream("drop"), n, d, hidden, 0.4) if dropout else None
    eps = rng.substream("noise").normal(size=(n, latent))
    up = rng.substream("upstream")
    upstream = {
        "d_logits": up.normal(size=(n, c)),
        "dZ_rec": up.normal(size=(n, latent)),
        "d_mu_kl": up.normal(size=(n, latent)),
        "d_ls_kl": up.normal(size=(n, latent)),
    }
    return X, adj, p, masks, eps, upstream


def _model_pass(kind, p, adj, X, masks, eps, up):
    """(outputs, grads, cache) of one forward and backward through gemi.models."""
    out, cache = forward(kind, p, adj, X, masks, eps, CLAMP)
    if kind == "gcn":
        return out, backward(kind, p, cache, up["d_logits"]), cache
    if kind == "gae":
        return out, backward(kind, p, cache, up["d_logits"], up["dZ_rec"]), cache
    grads = backward(kind, p, cache, up["d_logits"], up["dZ_rec"], up["d_mu_kl"], up["d_ls_kl"])
    return out, grads, cache


class TestSecondLayerOrder:
    @pytest.mark.parametrize("widths", sorted(WIDTHS))
    @pytest.mark.parametrize("dropout", [False, True], ids=["clean", "masked"])
    @pytest.mark.parametrize("kind", ["gcn", "gae", "vgae"])
    def test_forward_and_grads_match_dense_oracle(self, kind, dropout, widths):
        X, adj, p, masks, eps, up = _order_case(kind, widths, dropout)
        out, grads, _ = _model_pass(kind, p, adj, X, masks, eps, up)
        expect_out, expect_grads = dense_backward(kind, p, adj.toarray(), X, masks=masks, eps=eps, clamp=CLAMP, **up)
        assert set(out) == set(expect_out)
        for key in expect_out:
            np.testing.assert_allclose(out[key], expect_out[key], rtol=0, atol=1e-12, err_msg=key)
        assert set(grads) == set(expect_grads)
        # the global-norm clip sums the squared norms in dict order
        assert list(grads) == list(p)
        for key in expect_grads:
            np.testing.assert_allclose(grads[key], expect_grads[key], rtol=0, atol=1e-12, err_msg=key)

    @pytest.mark.parametrize("widths,expect", [
        # forward spmm widths, then backward: d = 4 inputs, then the
        # output width, c = 3 labels for gcn and latent for gae/vgae
        ("narrow", {"gcn": [4, 3, 3], "gae": [4, 3, 3], "vgae": [4, 3, 3, 3, 3]}),
        ("wide", {"gcn": [4, 3, 3], "gae": [4, 4, 4], "vgae": [4, 4, 4, 4, 4]}),
        ("equal", {"gcn": [4, 3, 3], "gae": [4, 3, 3], "vgae": [4, 3, 3, 3, 3]}),
    ], ids=["narrow", "wide", "equal"])
    @pytest.mark.parametrize("kind", ["gcn", "gae", "vgae"])
    def test_spmm_widths(self, kind, widths, expect, monkeypatch):
        X, adj, p, masks, eps, up = _order_case(kind, widths, True)
        seen = []
        real = models.spmm

        def spy(a, x):
            seen.append(np.shape(x)[1])
            return real(a, x)

        monkeypatch.setattr(models, "spmm", spy)
        _model_pass(kind, p, adj, X, masks, eps, up)
        assert seen == expect[kind]

    @pytest.mark.parametrize("widths", sorted(WIDTHS))
    @pytest.mark.parametrize("dropout", [False, True], ids=["clean", "masked"])
    def test_vgae_mu_is_gae_z_bitwise(self, widths, dropout):
        X, adj, vg, masks, _, _ = _order_case("vgae", widths, dropout)
        hidden, latent = WIDTHS[widths]
        ga = init_params("gae", 4, hidden, latent, 3, SeededRng(0))
        ga["w0"][...] = vg["w0"]
        ga["w1"][...] = vg["w_mu"]
        out_v, _ = forward("vgae", vg, adj, X, masks, np.zeros((12, latent)), CLAMP)
        out_g, _ = forward("gae", ga, adj, X, masks)
        assert np.array_equal(out_v["mu"], out_g["Z"])

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemi import graph
from gemi.graph import ItemGraph, normalize_adjacency
from gemi.losses import (
    LossConfig,
    focal_bce,
    focal_bce_grad,
    joint_objective,
    kl_anneal,
    kl_standard_normal,
    kl_standard_normal_grads,
    positive_weights,
    recon_loss_and_grad,
    supervised_loss,
    supervised_loss_grad,
    weighted_bce,
    weighted_bce_grad,
)
from gemi.numerics import SeededRng, finite_difference_gradient
from recon_oracle import (
    dense_recon_loss_and_grad,
    edge_pos_weight,
    recon_loss_from_scores,
    recon_loss_scores_grad,
    recon_targets,
)


def naive_weighted_bce(z, y, w, mask):
    """Reference implementation with explicit loops and probabilities."""
    z, y = z[mask], y[mask]
    total = 0.0
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            p = 1.0 / (1.0 + np.exp(-z[i, j]))
            total += -w[j] * y[i, j] * np.log(p) - (1 - y[i, j]) * np.log(1 - p)
    return total / z.shape[0]


def _instance(rng, n=7, c=3):
    z = rng.normal(size=(n, c))
    y = (rng.random((n, c)) < 0.5).astype(np.float64)
    w = rng.uniform(0.5, 3.0, c)
    mask = np.zeros(n, dtype=bool)
    mask[: n - 2] = True
    return z, y, w, mask


class TestPositiveWeights:
    def test_ratio(self):
        Y = np.array([[1, 0, 1], [1, 0, 0], [0, 0, 1], [0, 0, 0]])
        w = positive_weights(Y)
        np.testing.assert_allclose(w[0], 1.0)  # 2 neg / 2 pos
        np.testing.assert_allclose(w[2], 1.0)

    def test_no_positives_clamps_high(self):
        Y = np.zeros((5, 3), dtype=np.int64)
        assert np.all(positive_weights(Y) == 1e3)

    def test_all_positive_clamps_low(self):
        Y = np.ones((2000, 1), dtype=np.int64)
        assert positive_weights(Y)[0] == 1e-3


class TestWeightedBce:
    def test_matches_naive(self, rng):
        z, y, w, mask = _instance(rng)
        np.testing.assert_allclose(weighted_bce(z, y, w, mask), naive_weighted_bce(z, y, w, mask), rtol=1e-12)

    def test_mask_excludes_rows_bitwise(self, rng):
        z, y, w, mask = _instance(rng)
        loss1 = weighted_bce(z, y, w, mask)
        z2, y2 = z.copy(), y.copy()
        z2[~mask] = 1e6
        y2[~mask] = 1.0
        assert weighted_bce(z2, y2, w, mask) == loss1

    def test_grad_matches_fd(self, rng):
        z, y, w, mask = _instance(rng, n=5, c=2)
        grad = weighted_bce_grad(z, y, w, mask)

        def f(v):
            return weighted_bce(v.reshape(z.shape), y, w, mask)

        fd = finite_difference_gradient(f, z.reshape(-1)).reshape(z.shape)
        np.testing.assert_allclose(grad, fd, atol=1e-7)

    def test_grad_zero_outside_mask(self, rng):
        z, y, w, mask = _instance(rng)
        grad = weighted_bce_grad(z, y, w, mask)
        assert np.all(grad[~mask] == 0)

    def test_empty_mask_raises(self, rng):
        z, y, w, _ = _instance(rng)
        with pytest.raises(ValueError):
            weighted_bce(z, y, w, np.zeros(z.shape[0], dtype=bool))

    def test_extreme_logits_finite(self):
        z = np.array([[700.0, -700.0]])
        y = np.array([[0.0, 1.0]])
        w = np.ones(2)
        mask = np.ones(1, dtype=bool)
        assert np.isfinite(weighted_bce(z, y, w, mask))


class TestFocal:
    def test_gamma_zero_alpha_half_identity(self, rng):
        z, y, w, mask = _instance(rng)
        lhs = focal_bce(z, y, w, 0.5, 0.0, mask)
        rhs = 0.5 * weighted_bce(z, y, w, mask)
        assert abs(lhs - rhs) <= 1e-12

    def test_matches_naive(self, rng):
        z, y, w, mask = _instance(rng)
        alpha, gamma = 0.25, 2.0
        zm, ym = z[mask], y[mask]
        total = 0.0
        for i in range(zm.shape[0]):
            for j in range(zm.shape[1]):
                p = 1.0 / (1.0 + np.exp(-zm[i, j]))
                p_t = ym[i, j] * p + (1 - ym[i, j]) * (1 - p)
                a_t = alpha * ym[i, j] + (1 - alpha) * (1 - ym[i, j])
                bce = -w[j] * ym[i, j] * np.log(p) - (1 - ym[i, j]) * np.log(1 - p)
                total += a_t * (1 - p_t) ** gamma * bce
        np.testing.assert_allclose(focal_bce(z, y, w, alpha, gamma, mask), total / zm.shape[0], rtol=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    def test_grad_matches_fd(self, rng, gamma):
        z, y, w, mask = _instance(rng, n=5, c=2)
        grad = focal_bce_grad(z, y, w, 0.25, gamma, mask)

        def f(v):
            return focal_bce(v.reshape(z.shape), y, w, 0.25, gamma, mask)

        fd = finite_difference_gradient(f, z.reshape(-1)).reshape(z.shape)
        np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_saturated_prediction_no_nan(self):
        # p_t == 1 exactly: the modulation derivative guard must kick in
        z = np.array([[40.0]])
        y = np.array([[1.0]])
        w = np.ones(1)
        mask = np.ones(1, dtype=bool)
        g = focal_bce_grad(z, y, w, 0.25, 2.0, mask)
        assert np.all(np.isfinite(g))

    def test_focusing_downweights_easy(self, rng):
        # well-classified examples contribute less as gamma grows
        z = np.full((4, 3), 3.0)
        y = np.ones((4, 3))
        w = np.ones(3)
        mask = np.ones(4, dtype=bool)
        losses = [focal_bce(z, y, w, 0.5, g, mask) for g in (0.0, 1.0, 2.0)]
        assert losses[0] > losses[1] > losses[2]


class TestSupervisedDispatch:
    def test_wbce_and_focal_selected(self, rng):
        z, y, w, mask = _instance(rng)
        wb = LossConfig(kind="wbce")
        fc = LossConfig(kind="focal", alpha=0.25, gamma=2.0)
        assert supervised_loss(wb, z, y, w, mask) == weighted_bce(z, y, w, mask)
        assert supervised_loss(fc, z, y, w, mask) == focal_bce(z, y, w, 0.25, 2.0, mask)

    def test_grad_dispatch(self, rng):
        z, y, w, mask = _instance(rng)
        fc = LossConfig(kind="focal", alpha=0.3, gamma=1.5)
        expect = focal_bce_grad(z, y, w, 0.3, 1.5, mask)
        assert np.array_equal(supervised_loss_grad(fc, z, y, w, mask), expect)

    def test_plain_bce_ignores_class_weights(self, rng):
        z, y, w, mask = _instance(rng)
        plain = LossConfig(kind="bce")
        ones = np.ones_like(w)
        assert supervised_loss(plain, z, y, w, mask) == weighted_bce(z, y, ones, mask)
        g = supervised_loss_grad(plain, z, y, w, mask)
        assert np.array_equal(g, weighted_bce_grad(z, y, ones, mask))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(kind="hinge")
        with pytest.raises(ValueError):
            LossConfig(kind="focal", alpha=1.5)
        with pytest.raises(ValueError):
            LossConfig(kind="focal", gamma=-1.0)


class TestRecon:
    """The dense oracle itself, against the probability form and FD."""

    def _setup(self, rng, n=6):
        t = (rng.random((n, n)) < 0.3).astype(np.float64)
        t = np.maximum(t, t.T)
        np.fill_diagonal(t, 1.0)
        z = rng.normal(size=(n, n), scale=2.0)
        z = (z + z.T) / 2
        return t, z

    def test_probs_and_scores_agree(self, rng):
        t, z = self._setup(rng)
        w = edge_pos_weight(t)
        p = 1.0 / (1.0 + np.exp(-z))
        # oracle: the probability form of the weighted BCE
        naive = np.mean(-w * t * np.log(p) - (1.0 - t) * np.log1p(-p))
        np.testing.assert_allclose(recon_loss_from_scores(t, z, w), naive, rtol=1e-10)

    def test_edge_pos_weight_ratio(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert edge_pos_weight(t) == 1.0

    def test_edge_pos_weight_no_positives(self):
        with pytest.raises(ValueError):
            edge_pos_weight(np.zeros((3, 3)))

    def test_saturated_probs_finite(self):
        # scores this large saturate sigma to exact 0/1, where the
        # probability form hits 0·inf; the logit form stays finite
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        z = np.array([[800.0, -800.0], [-800.0, 800.0]])
        assert recon_loss_from_scores(t, z, 1.0) == 0.0
        assert np.all(np.isfinite(recon_loss_scores_grad(t, z, 1.0)))
        assert recon_loss_from_scores(t, -z, 1.0) == 800.0

    def test_mismatched_probs_large_loss(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([[0.01, 0.99], [0.99, 0.01]])
        assert recon_loss_from_scores(t, np.log(p / (1.0 - p)), 1.0) > 1.0

    def test_scores_grad_matches_fd(self, rng):
        t, z = self._setup(rng, n=4)
        w = edge_pos_weight(t)
        grad = recon_loss_scores_grad(t, z, w)

        def f(v):
            return recon_loss_from_scores(t, v.reshape(z.shape), w)

        fd = finite_difference_gradient(f, z.reshape(-1)).reshape(z.shape)
        np.testing.assert_allclose(grad, fd, atol=1e-7)


def _recon_graph(case, n, rng):
    """A graph of one of the shapes the blocked objective must handle."""
    if case == "no-edges":
        pairs = np.empty((0, 2), dtype=np.int64)
    elif case == "complete":
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    else:
        keep = rng.random((n, n)) < 0.3
        if case == "isolated":
            # every third node keeps no edge
            keep[::3] = False
            keep[:, ::3] = False
        pairs = np.argwhere(np.triu(keep, k=1))
    return ItemGraph.from_pairs(n, pairs, ["knn"] * len(pairs))


class TestBlockedRecon:
    """recon_loss_and_grad against the dense oracle, across row blocks.

    BLOCK_ROWS is 7 here, so n = 10..40 spans several blocks and most
    sizes end in a short block.
    """

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(graph, "BLOCK_ROWS", 7)

    @pytest.mark.parametrize("case", ["random", "no-edges", "complete", "isolated"])
    @pytest.mark.parametrize("n", [10, 14, 23, 40])
    def test_matches_dense_oracle(self, case, n):
        rng = SeededRng(1000 * n + len(case))
        g = _recon_graph(case, n, rng)
        Z = rng.normal(size=(n, 3), scale=1.5)
        loss, dZ = recon_loss_and_grad(Z, normalize_adjacency(g))
        expect_loss, expect_dZ = dense_recon_loss_and_grad(Z, recon_targets(g))
        np.testing.assert_allclose(loss, expect_loss, rtol=1e-12, atol=0)
        np.testing.assert_allclose(dZ, expect_dZ, rtol=0, atol=1e-12 * np.abs(expect_dZ).max())

    def test_saturated_scores_finite(self):
        # Z Z^T = [[800, -800], [-800, 800]] exactly: every sign agrees
        # with the A + I target, as in the oracle's saturated case
        pattern = normalize_adjacency(ItemGraph.from_pairs(2, [], []))
        Z = np.array([[20.0, 20.0], [-20.0, -20.0]])
        loss, dZ = recon_loss_and_grad(Z, pattern)
        assert loss == 0.0
        assert np.all(np.isfinite(dZ))
        # -Z Z^T is no Gram matrix (its diagonal is negative), so the
        # mismatched case turns the off-diagonal scores to +800: each of
        # those two non-target entries costs exactly 800, the diagonal 0
        Z = np.array([[20.0, 20.0], [20.0, 20.0]])
        loss, dZ = recon_loss_and_grad(Z, pattern)
        assert loss == 2 * 800.0 / 4
        assert loss == recon_loss_from_scores(np.eye(2), Z @ Z.T, 1.0)
        assert np.all(np.isfinite(dZ))

    def test_grad_matches_fd(self):
        rng = SeededRng(7)
        g = _recon_graph("isolated", 10, rng)
        pattern = normalize_adjacency(g)
        Z = rng.normal(size=(10, 3))
        _, dZ = recon_loss_and_grad(Z, pattern)

        def f(v):
            return recon_loss_and_grad(v.reshape(Z.shape), pattern)[0]

        fd = finite_difference_gradient(f, Z.reshape(-1)).reshape(Z.shape)
        np.testing.assert_allclose(dZ, fd, atol=1e-8)


class TestKl:
    def test_standard_normal_is_zero(self):
        assert kl_standard_normal(np.zeros((5, 4)), np.zeros((5, 4))) == 0.0

    def test_matches_formula(self, rng):
        mu = rng.normal(size=(6, 3))
        ls = rng.normal(size=(6, 3), scale=0.3)
        expect = np.mean(0.5 * np.sum(mu**2 + np.exp(2 * ls) - 1 - 2 * ls, axis=1))
        np.testing.assert_allclose(kl_standard_normal(mu, ls), expect, rtol=1e-12)

    def test_nonnegative(self, rng):
        mu = rng.normal(size=(8, 5))
        ls = rng.normal(size=(8, 5))
        assert kl_standard_normal(mu, ls) >= 0.0

    def test_grads_match_fd(self, rng):
        mu = rng.normal(size=(3, 2))
        ls = rng.normal(size=(3, 2), scale=0.3)
        g_mu, g_ls = kl_standard_normal_grads(mu, ls)

        fd_mu = finite_difference_gradient(
            lambda v: kl_standard_normal(v.reshape(mu.shape), ls), mu.reshape(-1)
        ).reshape(mu.shape)
        fd_ls = finite_difference_gradient(
            lambda v: kl_standard_normal(mu, v.reshape(ls.shape)), ls.reshape(-1)
        ).reshape(ls.shape)
        np.testing.assert_allclose(g_mu, fd_mu, atol=1e-7)
        np.testing.assert_allclose(g_ls, fd_ls, atol=1e-7)


class TestAnnealAndJoint:
    def test_anneal_ramp(self):
        assert kl_anneal(0, 100, 1.0) == 0.0
        assert kl_anneal(50, 100, 1.0) == 0.5
        assert kl_anneal(100, 100, 1.0) == 1.0
        assert kl_anneal(500, 100, 1.0) == 1.0
        assert kl_anneal(50, 100, 0.4) == 0.2

    def test_anneal_bad_ramp(self):
        with pytest.raises(ValueError):
            kl_anneal(1, 0, 1.0)

    def test_joint_gcn(self):
        total, report = joint_objective("gcn", {"sup": 2.5})
        assert total == 2.5
        assert report["total"] == 2.5

    def test_joint_gae(self):
        total, _ = joint_objective("gae", {"rec": 1.0, "sup": 2.0, "lambda_sup": 0.6})
        assert total == 1.0 + 0.6 * 2.0

    def test_joint_vgae(self):
        parts = {"rec": 1.0, "kl": 0.5, "beta": 0.2, "sup": 2.0, "lambda_ssl": 0.6}
        total, report = joint_objective("vgae", parts)
        assert total == 1.0 + 0.2 * 0.5 + 0.6 * 2.0
        assert report["beta"] == 0.2

    def test_missing_part(self):
        with pytest.raises(ValueError):
            joint_objective("gae", {"rec": 1.0})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_focal_gamma_zero_identity_property(seed):
    rng = SeededRng(seed)
    z, y, w, mask = _instance(rng)
    lhs = focal_bce(z, y, w, 0.5, 0.0, mask)
    rhs = 0.5 * weighted_bce(z, y, w, mask)
    assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0.0, max_value=4.0))
def test_focal_nonnegative_property(seed, gamma):
    rng = SeededRng(seed)
    z, y, w, mask = _instance(rng)
    assert focal_bce(z, y, w, 0.25, gamma, mask) >= 0.0

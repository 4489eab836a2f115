import numpy as np
import pytest

from gemi import graph, models, numerics, train
from gemi.config import default_config
from gemi.graph import TAGS, AdjacencyPattern, knn_graph_symmetric
from gemi.losses import LossConfig, ReconTargets, positive_weights
from gemi.numerics import SeededRng
from gemi.train import (
    AdamState,
    adam_step,
    clip_global_norm,
    gradient_check,
    train_model,
)
from conftest import traced_peak
from datasets import make_planted_panels
from graph_oracles import (
    coo_normalized_adjacency,
    dense_attachment_operator,
    dense_normalized_adjacency,
    graph_from_pairs,
    tagged_edges,
)
from model_oracle import dense_forward
from recon_oracle import edge_pos_weight

ADAM_B1, ADAM_B2, ADAM_EPS = 0.9, 0.999, 1e-8


def tiny_cfg(kind, epochs=6, protocol="transductive", **model_overrides):
    cfg = default_config(kind)
    cfg["seed"] = 3
    cfg["protocol"] = protocol
    cfg["model"]["epochs"] = epochs
    cfg["model"]["hidden"] = 8
    if kind != "gcn":
        cfg["model"]["latent"] = 4
    cfg["graph"]["k"] = 4
    cfg["graph"]["augment"] = []
    cfg["model"].update(model_overrides)
    return cfg


def spy_attachment(monkeypatch) -> list:
    """Record (the clean operator it extends, the operator it returns) for
    each attach_test_items call that training makes."""
    calls = []
    real = train.attach_test_items

    def spy(train_adj, X_train, X_test, k):
        calls.append((train_adj, real(train_adj, X_train, X_test, k)))
        return calls[-1][1]

    monkeypatch.setattr(train, "attach_test_items", spy)
    return calls


@pytest.fixture(scope="module")
def table():
    return make_planted_panels(n=60, d=8, seed=5)


class TestOptimizer:
    def test_clip_norm_value(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        _, norm = clip_global_norm(grads, 100.0)
        assert norm == 5.0

    def test_clip_below_threshold_unchanged(self):
        grads = {"a": np.array([0.3, 0.4])}
        out, _ = clip_global_norm(grads, 1.0)
        assert np.array_equal(out["a"], [0.3, 0.4])

    def test_clip_rescales_to_threshold(self):
        grads = {"a": np.array([30.0]), "b": np.array([40.0])}
        out, norm = clip_global_norm(grads, 5.0)
        assert norm == 50.0
        clipped = np.sqrt(out["a"][0] ** 2 + out["b"][0] ** 2)
        np.testing.assert_allclose(clipped, 5.0)

    def test_adam_single_step_oracle(self):
        w = {"w": np.array([1.0, -2.0])}
        g = {"w": np.array([0.5, 0.25])}
        lr, wd = 1e-2, 0.1
        state = AdamState.for_weights(w)
        adam_step(state, w, g, lr, wd)

        # recompute by hand: coupled L2, bias-corrected moments
        g_eff = np.array([0.5, 0.25]) + wd * np.array([1.0, -2.0])
        m = (1 - ADAM_B1) * g_eff
        v = (1 - ADAM_B2) * g_eff**2
        m_hat = m / (1 - ADAM_B1)
        v_hat = v / (1 - ADAM_B2)
        expect = np.array([1.0, -2.0]) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        np.testing.assert_allclose(w["w"], expect, rtol=1e-12)

    def test_adam_two_steps_accumulate(self):
        w = {"w": np.array([0.5])}
        state = AdamState.for_weights(w)
        adam_step(state, w, {"w": np.array([1.0])}, 1e-3, 0.0)
        first = w["w"].copy()
        adam_step(state, w, {"w": np.array([1.0])}, 1e-3, 0.0)
        assert state.t == 2
        assert w["w"][0] < first[0]


class TestTrainingLoop:
    @pytest.mark.parametrize("kind", ["gcn", "gae", "vgae"])
    def test_loss_decreases(self, table, kind):
        cfg = tiny_cfg(kind, epochs=30)
        model = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(3))
        totals = [e["total"] for e in model.epochs]
        assert totals[-1] < totals[0]
        assert np.all(np.isfinite(totals))

    def test_deterministic_same_seed(self, table):
        cfg = tiny_cfg("gcn")
        a = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(8))
        b = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(8))
        assert np.array_equal(a.representations, b.representations)
        assert [e["total"] for e in a.epochs] == [e["total"] for e in b.epochs]

    def test_different_seeds_differ(self, table):
        cfg = tiny_cfg("gcn")
        a = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(8))
        b = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(9))
        assert not np.array_equal(a.representations, b.representations)

    def test_dispatch_by_protocol(self, table, monkeypatch):
        # only the inductive protocol trains on the train rows alone and
        # builds the attachment operator
        built = spy_attachment(monkeypatch)
        cfg = tiny_cfg("gcn", protocol="inductive")
        m = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(1))
        assert len(built) == 1 and m.base_graph.n == table.train_mask.sum()
        cfg["protocol"] = "transductive"
        m = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(1))
        assert len(built) == 1 and m.base_graph.n == 60

    @pytest.mark.parametrize("protocol", ["transductive", "inductive"])
    def test_one_graph_per_run_on_the_protocols_rows(self, table, protocol, monkeypatch):
        # train_model builds the graph once, on the rows the loss sees,
        # and hands that same object to the loop and to the trained model
        built, looped = [], []
        real_build, real_loop = train.build_graph, train._train_loop

        def spy_build(cfg, X, Y, mask, rng):
            built.append(((X, Y, mask), real_build(cfg, X, Y, mask, rng)))
            return built[-1][1]

        def spy_loop(cfg, base_graph, X, Y, mask, rng):
            looped.append((base_graph, (X, Y, mask)))
            return real_loop(cfg, base_graph, X, Y, mask, rng)

        monkeypatch.setattr(train, "build_graph", spy_build)
        monkeypatch.setattr(train, "_train_loop", spy_loop)
        cfg = tiny_cfg("gcn", epochs=2, protocol=protocol)
        m = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(1))
        (((X, Y, mask), g),) = built
        ((loop_graph, loop_rows),) = looped
        assert loop_graph is g and m.base_graph is g
        assert all(a is b for a, b in zip(loop_rows, (X, Y, mask)))
        rows = table.train_mask if protocol == "inductive" else np.ones(60, dtype=bool)
        assert np.array_equal(X, table.features[rows]) and np.array_equal(Y, table.labels[rows])
        assert np.array_equal(mask, table.train_mask[rows]) and g.n == rows.sum()

    def test_exempt_mask_is_the_label_augment_edges(self, table, monkeypatch):
        # the mask every epoch's edge dropout gets marks exactly the edges tagged label-augment
        exempts = []
        real = train.edge_dropout

        def spy(g, p_e, rng, exempt=None):
            exempts.append(exempt)
            return real(g, p_e, rng, exempt)

        monkeypatch.setattr(train, "edge_dropout", spy)
        cfg = tiny_cfg("gcn", epochs=2)
        cfg["graph"]["augment"] = [{"label": "animal", "k": 3, "max_nodes": 40}]
        cfg["graph"]["augment_exempt_from_dropout"] = True
        m = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(1))
        names = list(tagged_edges(m.base_graph).values())
        assert "label-augment" in names and "knn" in names
        assert len(exempts) == 2
        for exempt in exempts:
            assert exempt.tolist() == [name == "label-augment" for name in names]

    def test_logsig_clamp_reaches_training(self, table, monkeypatch):
        # model.logsig_clamp bounds log sigma in every training forward
        seen = []
        real = models.forward

        def spy(kind, *args):
            out, cache = real(kind, *args)
            if kind == "vgae":
                seen.append(out["log_sigma"])
            return out, cache

        monkeypatch.setattr(models, "forward", spy)
        cfg = tiny_cfg("vgae", epochs=3, logsig_clamp=0.5)
        train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(1))
        assert len(seen) == 3
        # saturated: the default clamp of 10 would leave these entries free
        assert all(np.abs(ls).max() == 0.5 for ls in seen)

    def test_representation_dimensions(self, table):
        gcn = train_model(table.features, table.labels, table.train_mask, table.test_mask, tiny_cfg("gcn"), SeededRng(2))
        assert gcn.representations.shape == (60, 8)  # penultimate hidden
        gae = train_model(table.features, table.labels, table.train_mask, table.test_mask, tiny_cfg("gae"), SeededRng(2))
        assert gae.representations.shape == (60, 4)  # latent

    def test_gcn_representation_is_the_clean_hidden_layer(self, table):
        m = train_model(table.features, table.labels, table.train_mask, table.test_mask, tiny_cfg("gcn"), SeededRng(2))
        adj = coo_normalized_adjacency(m.base_graph)
        _, cache = models.forward("gcn", m.params, adj, table.features)
        assert np.array_equal(m.representations, cache["hd"])

    @pytest.mark.parametrize("kind", ["gcn", "gae", "vgae"])
    def test_sparse_attachment_matches_dense_formula(self, table, kind):
        # the whole inductive forward against the dense one-way operator:
        # hidden 8 narrows to c = 3 and latent 4 in the second layer,
        # hidden 2 widens
        X_tr, X_te = table.features[table.train_mask], table.features[table.test_mask]
        n_train = X_tr.shape[0]
        for hidden in (8, 2):
            cfg = tiny_cfg(kind, protocol="inductive", hidden=hidden)
            m = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(4))
            A = dense_attachment_operator(m.base_graph, X_tr, X_te, cfg["graph"]["k"])
            eps = np.zeros((A.shape[0], cfg["model"]["latent"]))
            clamp = cfg["model"]["logsig_clamp"]
            out, inter = dense_forward(kind, m.params, A, np.vstack([X_tr, X_te]), eps=eps, clamp=clamp)
            expect = inter["h"] if kind == "gcn" else out["Z" if kind == "gae" else "mu"]
            np.testing.assert_allclose(m.representations[table.train_mask], expect[:n_train], rtol=0, atol=1e-12)
            np.testing.assert_allclose(m.representations[table.test_mask], expect[n_train:], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pairs", [[[0, 2], [1, 2], [2, 4]], []], ids=["edges", "no-edges"])
    def test_recon_targets_are_adjacency_plus_identity(self, pairs):
        g = graph_from_pairs(5, pairs, [TAGS.index("knn")] * len(pairs))
        pattern = AdjacencyPattern(g).operator()
        # the stored entries, read the way the blocked objective reads them
        targets = np.zeros((5, 5))
        targets[np.repeat(np.arange(5), np.diff(pattern.indptr)), pattern.indices] = 1.0
        # the normalized adjacency is nonzero exactly on A + I
        expect = (dense_normalized_adjacency(g) > 0).astype(np.float64)
        assert np.array_equal(targets, expect)
        recon = ReconTargets(pattern)
        assert recon.n == 5 and recon.pw == edge_pos_weight(expect)

    @pytest.mark.parametrize("kind", ["gcn", "gae", "vgae"])
    def test_one_recon_pattern_per_run(self, table, kind, monkeypatch):
        # every kind gets the same targets object; objective_and_grads
        # alone decides that gcn does not score it
        used, built_from = [], []
        real, real_targets = train.objective_and_grads, train.ReconTargets

        def spy(*args):
            used.append(args[10])
            return real(*args)

        def spy_targets(pattern):
            built_from.append(pattern)
            return real_targets(pattern)

        monkeypatch.setattr(train, "objective_and_grads", spy)
        monkeypatch.setattr(train, "ReconTargets", spy_targets)
        m = train_model(table.features, table.labels, table.train_mask, table.test_mask, tiny_cfg(kind, epochs=3), SeededRng(1))
        assert len(used) == 3 and all(t is used[0] for t in used)
        assert isinstance(used[0], real_targets) and len(built_from) == 1
        # built from the base graph's clean operator, before edge dropout
        expect = coo_normalized_adjacency(m.base_graph)
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(built_from[0], attr), getattr(expect, attr)), attr

    @pytest.mark.parametrize(
        "kind,protocol",
        [("gcn", "transductive"), ("gae", "transductive"), ("gcn", "inductive"), ("gae", "inductive")],
        ids=["gcn", "gae", "gcn-inductive", "gae-inductive"],
    )
    def test_one_adjacency_pattern_per_run(self, table, kind, protocol, monkeypatch):
        # training selects every epoch's operator from one pattern; the
        # evaluation forward reuses its clean operator transductively and
        # runs on the attachment that extends it inductively
        built, clean, evaluated = [], [], []
        real_init, real_loop, real_rep = graph.AdjacencyPattern.__init__, train._train_loop, models.represent

        def counting_init(self, g):
            built.append(g)
            real_init(self, g)

        def spy_loop(*args):
            out = real_loop(*args)
            clean.append(out[1])
            return out

        def spy_rep(kind, params, adj, X):
            evaluated.append(adj)
            return real_rep(kind, params, adj, X)

        monkeypatch.setattr(graph.AdjacencyPattern, "__init__", counting_init)
        monkeypatch.setattr(train, "_train_loop", spy_loop)
        monkeypatch.setattr(models, "represent", spy_rep)
        attached = spy_attachment(monkeypatch)
        cfg = tiny_cfg(kind, epochs=3, protocol=protocol)
        m = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(1))
        assert len(built) == 1 and built[0] is m.base_graph
        assert len(clean) == 1 and len(evaluated) == 1
        if protocol == "transductive":
            assert not attached and evaluated[0] is clean[0]
        else:
            ((extended, op),) = attached
            assert extended is clean[0] and evaluated[0] is op

    def test_empty_train_split_raises(self, table):
        cfg = tiny_cfg("gcn")
        with pytest.raises(ValueError):
            train_model(table.features, table.labels, np.zeros(60, dtype=bool), table.test_mask, cfg, SeededRng(0))


class TestTransductiveLeakage:
    def test_test_labels_never_enter_training(self, table):
        # scrambling every test-row label must leave the whole run
        # bit-identical: losses, gradients, final representations
        cfg = tiny_cfg("gcn", epochs=8)
        labels2 = table.labels.copy()
        rng = np.random.default_rng(0)
        labels2[table.test_mask] = rng.integers(0, 2, size=labels2[table.test_mask].shape)
        a = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(4))
        b = train_model(table.features, labels2, table.train_mask, table.test_mask, cfg, SeededRng(4))
        assert [e["total"] for e in a.epochs] == [e["total"] for e in b.epochs]
        assert np.array_equal(a.representations, b.representations)

    @pytest.mark.parametrize("kind", ["gae", "vgae"])
    def test_holds_for_reconstruction_models(self, table, kind):
        cfg = tiny_cfg(kind, epochs=5)
        labels2 = table.labels.copy()
        labels2[table.test_mask] = 1 - labels2[table.test_mask]
        a = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(4))
        b = train_model(table.features, labels2, table.train_mask, table.test_mask, cfg, SeededRng(4))
        assert np.array_equal(a.representations, b.representations)


class TestInductiveLeakage:
    def test_test_items_isolated_from_each_other(self, table):
        # corrupting every other test item's features must leave item
        # representations bit-identical for the untouched ones
        cfg = tiny_cfg("gcn", epochs=8, protocol="inductive")
        test_idx = np.flatnonzero(table.test_mask)
        keep, corrupt = test_idx[::2], test_idx[1::2]
        feats2 = table.features.copy()
        feats2[corrupt] = np.random.default_rng(1).normal(size=(corrupt.size, 8)) * 10
        a = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(6))
        b = train_model(feats2, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(6))
        assert np.array_equal(a.representations[keep], b.representations[keep])

    def test_removing_test_items_changes_nothing_for_rest(self, table):
        cfg = tiny_cfg("gae", epochs=5, protocol="inductive")
        test_idx = np.flatnonzero(table.test_mask)
        half_mask = table.test_mask.copy()
        half_mask[test_idx[1::2]] = False
        a = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(6))
        b = train_model(table.features, table.labels, table.train_mask, half_mask, cfg, SeededRng(6))
        kept = np.flatnonzero(half_mask)
        assert np.array_equal(a.representations[kept], b.representations[kept])

    def test_test_labels_unused(self, table):
        cfg = tiny_cfg("gcn", epochs=5, protocol="inductive")
        labels2 = table.labels.copy()
        labels2[table.test_mask] = 0
        a = train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(2))
        b = train_model(table.features, labels2, table.train_mask, table.test_mask, cfg, SeededRng(2))
        assert np.array_equal(a.representations, b.representations)

    def test_extended_graph_has_no_test_test_edges(self, table, monkeypatch):
        cfg = tiny_cfg("gcn", epochs=3, protocol="inductive")
        built = spy_attachment(monkeypatch)
        train_model(table.features, table.labels, table.train_mask, table.test_mask, cfg, SeededRng(2))
        ((_, op),) = built
        n_train = int(table.train_mask.sum())
        assert op.shape == (60, 60)
        rows = np.repeat(np.arange(60), np.diff(op.indptr))
        test_cols = op.indices >= n_train
        # a test column is read by its own row only: the diagonal
        assert np.array_equal(op.indices[test_cols], rows[test_cols])


class TestGradientCheck:
    @pytest.mark.parametrize("kind,loss_kind", [
        ("gcn", "focal"), ("gcn", "wbce"), ("gcn", "bce"),
        ("gae", "focal"), ("gae", "wbce"), ("vgae", "focal"), ("vgae", "wbce"),
    ])
    def test_analytic_matches_fd(self, kind, loss_kind):
        res = gradient_check(kind, loss_kind, seed=0)
        assert res.passed, f"max rel err {res.max_rel_err:.2e}"
        assert res.max_rel_err <= 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["gcn", "gae", "vgae"])
    def test_analytic_matches_fd_when_hidden_is_narrowest(self, kind, seed):
        # hidden 2 below latent 4 and c = 3: every second layer widens,
        # a shape the default check widths never take
        res = gradient_check(kind, "focal", seed=seed, hidden=2, latent=4)
        assert res.passed, f"max rel err {res.max_rel_err:.2e}"

    @pytest.mark.parametrize("kind", ["gae", "vgae"])
    def test_passes_across_recon_blocks(self, kind, monkeypatch):
        # 4-row blocks split the n = 9 instance into blocks of 4, 4 and 1;
        # 1-row blocks leave every pair off the diagonal block, so only
        # the transposed product carries the lower triangle
        for rows in (4, 1):
            monkeypatch.setattr(numerics, "BLOCK_ROWS", rows)
            res = gradient_check(kind, "focal", seed=0)
            assert res.passed, f"{rows}-row blocks: max rel err {res.max_rel_err:.2e}"

    def test_training_and_check_share_one_objective(self, table, monkeypatch):
        calls = []
        real = train.objective_and_grads

        def spy(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(train, "objective_and_grads", spy)
        train_model(table.features, table.labels, table.train_mask, table.test_mask, tiny_cfg("vgae", epochs=4), SeededRng(1))
        assert calls == ["vgae"] * 4
        calls.clear()
        gradient_check("gae", "focal", seed=0)
        assert calls and set(calls) == {"gae"}

    def test_non_finite_objective_is_a_failed_result(self, monkeypatch):
        real = train.objective_and_grads
        seen = []

        def nan_after_first(*args):
            total, report, grads = real(*args)
            seen.append((args[1], {k: w.copy() for k, w in args[1].items()}))
            return (total if len(seen) == 1 else float("nan")), report, grads

        monkeypatch.setattr(train, "objective_and_grads", nan_after_first)
        res = gradient_check("gcn", "focal", seed=0)
        assert not res.passed
        assert res.max_rel_err == float("inf")
        params, before = seen[0]
        for k, w in params.items():
            assert np.array_equal(w, before[k])  # restored after the aborted sweep


@pytest.mark.parametrize("kind", ["gae", "vgae"])
def test_objective_memory_stays_below_one_dense_matrix(kind):
    # one 4000 x 4000 float64 score matrix is 128 MB; the row-blocked
    # reconstruction objective must peak below it
    n, d, hidden, latent = 4000, 16, 32, 16
    rng = SeededRng(5)
    X = rng.normal(size=(n, d))
    Y = (rng.random((n, 3)) < 0.3).astype(np.int64)
    mask = np.ones(n, dtype=bool)
    adj = AdjacencyPattern(knn_graph_symmetric(X, 10)).operator()
    params = models.init_params(kind, d, hidden, latent, 3, rng.substream("init"))
    masks = models.draw_feature_masks(rng.substream("drop"), n, d, hidden, 0.2)
    eps = rng.substream("noise").normal(size=(n, latent))
    args = (kind, params, adj, X, Y, mask, positive_weights(Y), LossConfig(), masks, eps, ReconTargets(adj), 0.5, 10.0)
    (total, _, _), peak = traced_peak(train.objective_and_grads, *args)
    assert np.isfinite(total)
    assert peak < n * n * 8


@pytest.mark.parametrize("rate", [0.2, 0.0])
def test_gcn_objective_keeps_under_three_hidden_width_buffers(rate):
    # one GCN step needs m1, hd and one hidden-width gradient; the
    # cache holds no pre-activation or undropped copy of h
    n, d, hidden = 4000, 16, 128
    rng = SeededRng(5)
    X = rng.normal(size=(n, d))
    Y = (rng.random((n, 3)) < 0.3).astype(np.int64)
    mask = np.ones(n, dtype=bool)
    adj = AdjacencyPattern(knn_graph_symmetric(X, 10)).operator()
    params = models.init_params("gcn", d, hidden, 0, 3, rng.substream("init"))
    masks = models.draw_feature_masks(rng.substream("drop"), n, d, hidden, rate)
    args = ("gcn", params, adj, X, Y, mask, positive_weights(Y), LossConfig(), masks, None, None, 0.0, 10.0)
    (total, _, _), peak = traced_peak(train.objective_and_grads, *args)
    assert np.isfinite(total)
    assert peak < 3 * n * hidden * 8

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemi import graph, losses, models, numerics
from gemi.graph import TAGS, AdjacencyPattern
from gemi.losses import (
    LossConfig,
    ReconTargets,
    kl_and_grads,
    kl_anneal,
    positive_weights,
    recon_loss_and_grad,
    supervised_loss_and_grad,
)
from gemi.numerics import SeededRng, finite_difference_gradient, matmul
from gemi.train import objective_and_grads
from conftest import traced_peak
from graph_oracles import graph_from_pairs
from recon_oracle import (
    dense_recon_loss_and_grad,
    edge_pos_weight,
    recon_loss_from_scores,
    recon_loss_scores_grad,
    recon_targets,
)

WBCE = LossConfig(kind="wbce")


def focal(alpha, gamma):
    return LossConfig(kind="focal", alpha=alpha, gamma=gamma)


def loss(cfg, z, y, w, mask):
    return supervised_loss_and_grad(cfg, z, y, w, mask)[0]


def grad(cfg, z, y, w, mask):
    return supervised_loss_and_grad(cfg, z, y, w, mask)[1]


def naive_weighted_bce(z, y, w, mask):
    """Reference implementation with explicit loops and probabilities."""
    z, y = z[mask], y[mask]
    total = 0.0
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            p = 1.0 / (1.0 + np.exp(-z[i, j]))
            total += -w[j] * y[i, j] * np.log(p) - (1 - y[i, j]) * np.log(1 - p)
    return total / z.shape[0]


def naive_focal(z, y, w, alpha, gamma, mask):
    """Reference focal loss with explicit loops and probabilities."""
    zm, ym = z[mask], y[mask]
    total = 0.0
    for i in range(zm.shape[0]):
        for j in range(zm.shape[1]):
            p = 1.0 / (1.0 + np.exp(-zm[i, j]))
            p_t = ym[i, j] * p + (1 - ym[i, j]) * (1 - p)
            a_t = alpha * ym[i, j] + (1 - alpha) * (1 - ym[i, j])
            bce = -w[j] * ym[i, j] * np.log(p) - (1 - ym[i, j]) * np.log(1 - p)
            total += a_t * (1 - p_t) ** gamma * bce
    return total / zm.shape[0]


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
        np.testing.assert_allclose(loss(WBCE, z, y, w, mask), naive_weighted_bce(z, y, w, mask), rtol=1e-12)

    def test_mask_excludes_rows_bitwise(self, rng):
        z, y, w, mask = _instance(rng)
        loss1 = loss(WBCE, z, y, w, mask)
        z2, y2 = z.copy(), y.copy()
        z2[~mask] = 1e6
        y2[~mask] = 1.0
        assert loss(WBCE, z2, y2, w, mask) == loss1

    def test_grad_matches_fd(self, rng):
        z, y, w, mask = _instance(rng, n=5, c=2)
        for cfg in (WBCE, LossConfig(kind="bce")):
            g = grad(cfg, z, y, w, mask)

            fd = finite_difference_gradient(lambda: loss(cfg, z, y, w, mask), z)
            np.testing.assert_allclose(g, fd, atol=1e-7)

    def test_grad_zero_outside_mask(self, rng):
        z, y, w, mask = _instance(rng)
        g = grad(WBCE, z, y, w, mask)
        assert np.all(g[~mask] == 0)

    def test_empty_mask_raises(self, rng):
        z, y, w, _ = _instance(rng)
        with pytest.raises(ValueError):
            supervised_loss_and_grad(WBCE, z, y, w, np.zeros(z.shape[0], dtype=bool))

    def test_extreme_logits_finite(self):
        z = np.array([[700.0, -700.0]])
        y = np.array([[0.0, 1.0]])
        w = np.ones(2)
        mask = np.ones(1, dtype=bool)
        assert np.isfinite(loss(WBCE, z, y, w, mask))


class TestFocal:
    def test_gamma_zero_alpha_half_identity(self, rng):
        z, y, w, mask = _instance(rng)
        lhs = loss(focal(0.5, 0.0), z, y, w, mask)
        rhs = 0.5 * loss(WBCE, z, y, w, mask)
        assert abs(lhs - rhs) <= 1e-12

    def test_matches_naive(self, rng):
        z, y, w, mask = _instance(rng)
        alpha, gamma = 0.25, 2.0
        expect = naive_focal(z, y, w, alpha, gamma, mask)
        np.testing.assert_allclose(loss(focal(alpha, gamma), z, y, w, mask), expect, rtol=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
    def test_grad_matches_fd(self, rng, gamma):
        z, y, w, mask = _instance(rng, n=5, c=2)
        g = grad(focal(0.25, gamma), z, y, w, mask)

        fd = finite_difference_gradient(lambda: loss(focal(0.25, gamma), z, y, w, mask), z)
        np.testing.assert_allclose(g, fd, atol=1e-6)

    def test_saturated_prediction_no_nan(self):
        # p_t == 1 exactly: the modulation derivative guard must kick in
        z = np.array([[40.0]])
        y = np.array([[1.0]])
        w = np.ones(1)
        mask = np.ones(1, dtype=bool)
        g = grad(focal(0.25, 2.0), z, y, w, mask)
        assert np.all(np.isfinite(g))

    def test_focusing_downweights_easy(self, rng):
        # well-classified examples contribute less as gamma grows
        z = np.full((4, 3), 3.0)
        y = np.ones((4, 3))
        w = np.ones(3)
        mask = np.ones(4, dtype=bool)
        losses = [loss(focal(0.5, g), z, y, w, mask) for g in (0.0, 1.0, 2.0)]
        assert losses[0] > losses[1] > losses[2]


class TestSupervisedDispatch:
    def test_wbce_and_focal_selected(self, rng):
        z, y, w, mask = _instance(rng)
        wb = loss(WBCE, z, y, w, mask)
        fc = loss(focal(0.25, 2.0), z, y, w, mask)
        np.testing.assert_allclose(wb, naive_weighted_bce(z, y, w, mask), rtol=1e-12)
        np.testing.assert_allclose(fc, naive_focal(z, y, w, 0.25, 2.0, mask), rtol=1e-10)
        assert wb != fc

    def test_grad_dispatch(self, rng):
        # the gradient follows the configured alpha and gamma, not the defaults
        z, y, w, mask = _instance(rng)
        fc = focal(0.3, 1.5)
        g = grad(fc, z, y, w, mask)
        fd = finite_difference_gradient(lambda: loss(fc, z, y, w, mask), z)
        np.testing.assert_allclose(g, fd, atol=1e-6)
        assert not np.array_equal(g, grad(LossConfig(kind="focal"), z, y, w, mask))

    def test_plain_bce_ignores_class_weights(self, rng):
        z, y, w, mask = _instance(rng)
        ones = np.ones_like(w)
        plain_loss, plain_grad = supervised_loss_and_grad(LossConfig(kind="bce"), z, y, w, mask)
        unit_loss, unit_grad = supervised_loss_and_grad(WBCE, z, y, ones, mask)
        assert np.array_equal(plain_loss, unit_loss)
        assert np.array_equal(plain_grad, unit_grad)

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

        fd = finite_difference_gradient(lambda: recon_loss_from_scores(t, z, w), z)
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
    return graph_from_pairs(n, pairs, [TAGS.index("knn")] * len(pairs))


class TestBlockedRecon:
    """recon_loss_and_grad against the dense oracle, across row blocks.

    BLOCK_ROWS is 7 here, so n = 10..40 spans several blocks and most
    sizes end in a short block.
    """

    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLOCK_ROWS", 7)

    @pytest.mark.parametrize("case", ["random", "no-edges", "complete", "isolated"])
    @pytest.mark.parametrize("n", [10, 14, 23, 40])
    def test_matches_dense_oracle(self, case, n, monkeypatch):
        rng = SeededRng(1000 * n + len(case))
        g = _recon_graph(case, n, rng)
        Z = rng.normal(size=(n, 3), scale=1.5)
        expect_loss, expect_dZ = dense_recon_loss_and_grad(Z, recon_targets(g))
        # one-row blocks score every pair off the diagonal block; 2n rows
        # make one block that scores all of them in its diagonal block
        for rows in (7, 1, 2 * n):
            monkeypatch.setattr(numerics, "BLOCK_ROWS", rows)
            loss, dZ = recon_loss_and_grad(Z, ReconTargets(AdjacencyPattern(g).operator()))
            np.testing.assert_allclose(loss, expect_loss, rtol=1e-12, atol=0)
            np.testing.assert_allclose(dZ, expect_dZ, rtol=0, atol=1e-12 * np.abs(expect_dZ).max())

    @pytest.mark.parametrize("n", [10, 23, 40])
    def test_scores_each_pair_once(self, n, monkeypatch):
        # the score products Z_I Z_{start:}^T form sum b·(n - start)
        # entries, at most (n² + 7n)/2 for 7-row blocks, not n²
        rng = SeededRng(n)
        Z = rng.normal(size=(n, 3))
        scored = []

        def spy(a, b):
            out = matmul(a, b)
            if np.shares_memory(a, Z):
                scored.append(out.size)
            return out

        monkeypatch.setattr(losses, "matmul", spy)
        recon_loss_and_grad(Z, ReconTargets(AdjacencyPattern(_recon_graph("random", n, rng)).operator()))
        assert len(scored) == -(-n // 7)
        assert sum(scored) == sum(min(7, n - start) * (n - start) for start in range(0, n, 7))
        assert sum(scored) <= (n * n + 7 * n) / 2

    def test_targets_carry_no_state_between_calls(self):
        # one targets object reused over a sequence of Z, saturated ones
        # included, gives the bits of a fresh object per call
        rng = SeededRng(11)
        pattern = AdjacencyPattern(_recon_graph("isolated", 23, rng)).operator()
        reused = ReconTargets(pattern)
        for scale in (1.0, 40.0, 0.1, 3.0):
            Z = rng.normal(size=(23, 3), scale=scale)
            loss, dZ = recon_loss_and_grad(Z, reused)
            fresh_loss, fresh_dZ = recon_loss_and_grad(Z, ReconTargets(pattern))
            assert loss == fresh_loss
            assert np.array_equal(dZ, fresh_dZ)

    def test_keeps_the_block_size_it_was_built_with(self, monkeypatch):
        rng = SeededRng(12)
        pattern = AdjacencyPattern(_recon_graph("random", 20, rng)).operator()
        Z = rng.normal(size=(20, 3))
        targets = ReconTargets(pattern)
        expect = recon_loss_and_grad(Z, targets)
        monkeypatch.setattr(numerics, "BLOCK_ROWS", 3)
        loss, dZ = recon_loss_and_grad(Z, targets)
        assert targets.block_rows == 7 and len(targets.flat) == 3
        assert loss == expect[0] and np.array_equal(dZ, expect[1])

    def test_rejects_z_of_another_node_count(self):
        targets = ReconTargets(AdjacencyPattern(graph_from_pairs(4, [[0, 1]], [TAGS.index("knn")])).operator())
        with pytest.raises(ValueError, match="4 nodes"):
            recon_loss_and_grad(np.ones((5, 2)), targets)

    def test_saturated_scores_finite(self):
        # Z Z^T = [[800, -800], [-800, 800]] exactly: every sign agrees
        # with the A + I target, as in the oracle's saturated case
        pattern = ReconTargets(AdjacencyPattern(graph_from_pairs(2, [], [])).operator())
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
        pattern = ReconTargets(AdjacencyPattern(g).operator())
        Z = rng.normal(size=(10, 3))
        _, dZ = recon_loss_and_grad(Z, pattern)

        fd = finite_difference_gradient(lambda: recon_loss_and_grad(Z, pattern)[0], Z)
        np.testing.assert_allclose(dZ, fd, atol=1e-8)


def test_recon_holds_one_score_block():
    # eight blocks of up to 256 x 2048 scores (4.2 MB); after the first
    # call allocates the two reused buffers, a call holds one block's
    # scores at a time, not the previous block's too
    rng = SeededRng(6)
    g = graph.knn_graph_symmetric(rng.normal(size=(2048, 8)), 5)
    targets = ReconTargets(AdjacencyPattern(g).operator())
    Z = rng.normal(size=(2048, 4), scale=0.3)
    recon_loss_and_grad(Z, targets)
    block = numerics.BLOCK_ROWS * 2048 * 8
    _, peak = traced_peak(recon_loss_and_grad, Z, targets)
    assert peak < 1.25 * block, peak / block


class TestKl:
    def test_standard_normal_is_zero(self):
        kl, d_mu, d_ls = kl_and_grads(np.zeros((5, 4)), np.zeros((5, 4)))
        assert kl == 0.0
        assert not d_mu.any() and not d_ls.any()

    def test_matches_formula(self, rng):
        mu = rng.normal(size=(6, 3))
        ls = rng.normal(size=(6, 3), scale=0.3)
        expect = np.mean(0.5 * np.sum(mu**2 + np.exp(2 * ls) - 1 - 2 * ls, axis=1))
        np.testing.assert_allclose(kl_and_grads(mu, ls)[0], expect, rtol=1e-12)

    def test_nonnegative(self, rng):
        mu = rng.normal(size=(8, 5))
        ls = rng.normal(size=(8, 5))
        assert kl_and_grads(mu, ls)[0] >= 0.0

    def test_grads_match_fd(self, rng):
        mu = rng.normal(size=(3, 2))
        ls = rng.normal(size=(3, 2), scale=0.3)
        _, g_mu, g_ls = kl_and_grads(mu, ls)

        fd_mu = finite_difference_gradient(lambda: kl_and_grads(mu, ls)[0], mu)
        fd_ls = finite_difference_gradient(lambda: kl_and_grads(mu, ls)[0], ls)
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

    @pytest.mark.parametrize("kind", ["gcn", "gae", "vgae"])
    def test_objective_total_is_weighted_sum(self, kind):
        rng = SeededRng(31)
        n, d, hidden, latent = 10, 4, 5, 3
        X = rng.normal(size=(n, d))
        Y = (rng.random((n, 3)) < 0.4).astype(np.int64)
        mask = np.arange(n) < 7
        adj = AdjacencyPattern(graph.knn_graph_symmetric(X, 2)).operator()
        params = models.init_params(kind, d, hidden, latent, 3, rng.substream("init"))
        eps = rng.substream("noise").normal(size=(n, latent))
        # weights distinct from each other and from 1, so a swapped or
        # dropped coefficient changes the total
        cfg = LossConfig(lambda_sup=0.35, lambda_ssl=0.8)
        beta = 0.45
        total, report, _ = objective_and_grads(
            kind, params, adj, X, Y, mask, positive_weights(Y[mask]), cfg, None, eps, ReconTargets(adj), beta, 10.0
        )
        if kind == "gcn":
            assert list(report) == ["sup", "total"]
            expect = report["sup"]
        elif kind == "gae":
            assert list(report) == ["rec", "sup", "total"]
            expect = report["rec"] + 0.35 * report["sup"]
        else:
            assert list(report) == ["rec", "kl", "beta", "sup", "total"]
            assert report["beta"] == beta
            expect = report["rec"] + beta * report["kl"] + 0.8 * report["sup"]
        assert total == report["total"] == expect
        assert all(v > 0.0 for v in report.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_focal_gamma_zero_identity_property(seed):
    rng = SeededRng(seed)
    z, y, w, mask = _instance(rng)
    lhs = loss(focal(0.5, 0.0), z, y, w, mask)
    rhs = 0.5 * loss(WBCE, z, y, w, mask)
    assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0.0, max_value=4.0))
def test_focal_nonnegative_property(seed, gamma):
    rng = SeededRng(seed)
    z, y, w, mask = _instance(rng)
    assert loss(focal(0.25, gamma), z, y, w, mask) >= 0.0

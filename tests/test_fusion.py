import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemi.fusion import (
    GaussianPosterior,
    build_panel_features,
    chunk_average,
    poe_fuse,
)
from gemi.ingest import GaussianTable
from gemi.numerics import SeededRng


def grid_product_moments(posteriors, points=2001, span=8.0):
    """Mean/variance of the normalized product density on a dense grid.

    Independent of the closed form: multiplies the expert densities
    pointwise per dimension and integrates with the trapezoid rule.
    """
    d = posteriors[0].mean.shape[0]
    mean = np.empty(d)
    var = np.empty(d)
    for j in range(d):
        mus = np.array([p.mean[j] for p in posteriors])
        sds = np.array([np.sqrt(p.variance[j]) for p in posteriors])
        lo = (mus - span * sds).min()
        hi = (mus + span * sds).max()
        x = np.linspace(lo, hi, points)
        log_dens = np.zeros_like(x)
        for mu, sd in zip(mus, sds):
            log_dens += -0.5 * ((x - mu) / sd) ** 2 - np.log(sd)
        dens = np.exp(log_dens - log_dens.max())
        z = np.trapezoid(dens, x)
        mean[j] = np.trapezoid(x * dens, x) / z
        var[j] = np.trapezoid((x - mean[j]) ** 2 * dens, x) / z
    return mean, var


class TestGaussianPosterior:
    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            GaussianPosterior(mean=np.zeros(2), variance=np.array([1.0, 0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianPosterior(mean=np.zeros(2), variance=np.ones(3))


def mean_mode_row(x, y):
    """Mean-mode features for one-row image and text tables."""
    return build_panel_features("mean", {"image": (("a",), [x]), "text": (("a",), [y])})[1][0]


class TestMeanFuse:
    def test_against_manual(self):
        x = np.array([3.0, 4.0])
        y = np.array([0.0, 2.0])
        np.testing.assert_allclose(mean_mode_row(x, y), [0.3, 0.9])

    def test_scale_invariant(self, rng):
        x = rng.normal(size=5)
        y = rng.normal(size=5)
        np.testing.assert_allclose(mean_mode_row(x, y), mean_mode_row(10 * x, 0.1 * y), atol=1e-12)


def test_chunk_average_matches_mean(rng):
    chunks = [rng.normal(size=4) for _ in range(3)]
    np.testing.assert_allclose(chunk_average(chunks), np.mean(chunks, axis=0))


class TestPoeFuse:
    def test_closed_form_two_experts(self):
        a = GaussianPosterior(mean=np.array([0.0]), variance=np.array([1.0]))
        b = GaussianPosterior(mean=np.array([2.0]), variance=np.array([1.0]))
        fused = poe_fuse([a, b])
        np.testing.assert_allclose(fused.mean, [1.0])
        np.testing.assert_allclose(fused.variance, [0.5])

    def test_single_expert_identity(self, rng):
        p = GaussianPosterior(mean=rng.normal(size=3), variance=rng.uniform(0.5, 2.0, 3))
        fused = poe_fuse([p])
        np.testing.assert_allclose(fused.mean, p.mean)
        np.testing.assert_allclose(fused.variance, p.variance)

    def test_matches_grid_oracle(self, rng):
        experts = [
            GaussianPosterior(mean=rng.normal(size=2, scale=2.0), variance=rng.uniform(0.2, 3.0, 2))
            for _ in range(3)
        ]
        fused = poe_fuse(experts)
        g_mean, g_var = grid_product_moments(experts)
        np.testing.assert_allclose(fused.mean, g_mean, atol=1e-3)
        np.testing.assert_allclose(fused.variance, g_var, atol=1e-3)

    def test_precision_dominates(self):
        sharp = GaussianPosterior(mean=np.array([5.0]), variance=np.array([1e-4]))
        broad = GaussianPosterior(mean=np.array([-5.0]), variance=np.array([1e4]))
        fused = poe_fuse([sharp, broad])
        assert abs(fused.mean[0] - 5.0) < 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            poe_fuse([
                GaussianPosterior(mean=np.zeros(2), variance=np.ones(2)),
                GaussianPosterior(mean=np.zeros(3), variance=np.ones(3)),
            ])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_poe_commutes_property(seed):
    rng = SeededRng(seed)
    experts = [
        GaussianPosterior(mean=rng.normal(size=2), variance=rng.uniform(0.1, 5.0, 2))
        for _ in range(3)
    ]
    a = poe_fuse(experts)
    b = poe_fuse(experts[::-1])
    np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12)
    np.testing.assert_allclose(a.variance, b.variance, rtol=1e-12)


class TestBuildPanelFeatures:
    def test_precomputed_passthrough(self, rng):
        ids = ("a", "b")
        x = rng.normal(size=(2, 3))
        got_ids, feats = build_panel_features("precomputed", {"embeddings": (ids, x)})
        assert got_ids == ids
        assert np.array_equal(feats, x)

    def test_mean_mode_aligns_text_rows(self, rng):
        ids = ("a", "b")
        ximg = rng.normal(size=(2, 3))
        xtxt = rng.normal(size=(2, 3))
        # text table arrives in reversed id order
        _, feats = build_panel_features(
            "mean", {"image": (ids, ximg), "text": (("b", "a"), xtxt[::-1])}
        )
        expect = np.stack([
            0.5 * (ximg[i] / np.linalg.norm(ximg[i]) + xtxt[i] / np.linalg.norm(xtxt[i]))
            for i in range(2)
        ])
        np.testing.assert_allclose(feats, expect)

    def test_mean_mode_id_mismatch(self, rng):
        with pytest.raises(ValueError, match="text table ids"):
            build_panel_features(
                "mean",
                {"image": (("a", "b"), rng.normal(size=(2, 3))),
                 "text": (("a", "c"), rng.normal(size=(2, 3)))},
            )

    def test_chunks_mode_averages_files(self, rng):
        ids = ("a", "b")
        c1 = rng.normal(size=(2, 4))
        c2 = rng.normal(size=(2, 4))
        _, feats = build_panel_features("chunks", {"chunks": [(ids, c1), (ids, c2)]})
        np.testing.assert_allclose(feats, (c1 + c2) / 2)

    def test_poe_mode_outputs_fused_means(self, rng):
        ids = ("a", "b")
        t1 = GaussianTable(ids=ids, mean=rng.normal(size=(2, 3)), var=rng.uniform(0.5, 2.0, (2, 3)))
        t2 = GaussianTable(ids=ids, mean=rng.normal(size=(2, 3)), var=rng.uniform(0.5, 2.0, (2, 3)))
        _, feats = build_panel_features("poe", {"experts": [t1, t2]})
        for i in range(2):
            fused = poe_fuse([
                GaussianPosterior(mean=t1.mean[i], variance=t1.var[i]),
                GaussianPosterior(mean=t2.mean[i], variance=t2.var[i]),
            ])
            np.testing.assert_allclose(feats[i], fused.mean)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            build_panel_features("magic", {})

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemi.cli import _load_features
from gemi.config import resolve_config
from gemi.fusion import chunk_fuse, mean_fuse, product_of_experts
from gemi.ingest import IngestError
from gemi.numerics import SeededRng
from datasets import write_embeddings, write_gaussians


def grid_product_moments(means, variances, points=2001, span=8.0):
    """Mean/variance of the normalized product density on a dense grid.

    Independent of the closed form: multiplies the expert densities
    pointwise per dimension and integrates with the trapezoid rule.
    """
    d = means[0].shape[0]
    mean = np.empty(d)
    var = np.empty(d)
    for j in range(d):
        mus = np.array([m[j] for m in means])
        sds = np.array([np.sqrt(v[j]) for v in variances])
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


def mean_mode_row(x, y):
    """Mean-mode features for one-row image and text tables."""
    return mean_fuse((("a",), [x]), (("a",), [y]))[1][0]


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
    chunks = [rng.normal(size=(2, 4)) for _ in range(3)]
    ids, fused = chunk_fuse([(("a", "b"), c) for c in chunks])
    assert ids == ("a", "b")
    np.testing.assert_allclose(fused, np.mean(chunks, axis=0))


class TestPoeFuse:
    def test_closed_form_two_experts(self):
        mean, var = product_of_experts([np.array([0.0]), np.array([2.0])], [np.ones(1), np.ones(1)])
        np.testing.assert_allclose(mean, [1.0])
        np.testing.assert_allclose(var, [0.5])

    def test_single_expert_identity(self, rng):
        mu = rng.normal(size=3)
        v = rng.uniform(0.5, 2.0, 3)
        mean, var = product_of_experts([mu], [v])
        np.testing.assert_allclose(mean, mu)
        np.testing.assert_allclose(var, v)

    def test_matches_grid_oracle(self, rng):
        means, variances = [], []
        for _ in range(3):
            means.append(rng.normal(size=2, scale=2.0))
            variances.append(rng.uniform(0.2, 3.0, 2))
        mean, var = product_of_experts(means, variances)
        g_mean, g_var = grid_product_moments(means, variances)
        np.testing.assert_allclose(mean, g_mean, atol=1e-3)
        np.testing.assert_allclose(var, g_var, atol=1e-3)

    def test_precision_dominates(self):
        mean, _ = product_of_experts([np.array([5.0]), np.array([-5.0])], [np.array([1e-4]), np.array([1e4])])
        assert abs(mean[0] - 5.0) < 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            product_of_experts([np.zeros(2), np.zeros(3)], [np.ones(2), np.ones(3)])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_poe_commutes_property(seed):
    rng = SeededRng(seed)
    means, variances = [], []
    for _ in range(3):
        means.append(rng.normal(size=2))
        variances.append(rng.uniform(0.1, 5.0, 2))
    a = product_of_experts(means, variances)
    b = product_of_experts(means[::-1], variances[::-1])
    np.testing.assert_allclose(a[0], b[0], rtol=1e-12)
    np.testing.assert_allclose(a[1], b[1], rtol=1e-12)


def features_for(mode, **dataset):
    """Panel features as ``gemi run`` loads them for ``features.mode``."""
    return _load_features(resolve_config({"features": {"mode": mode}, "dataset": dataset}))


class TestBuildPanelFeatures:
    """The one feature-mode dispatch, ``cli._load_features``, on files."""

    def test_precomputed_passthrough(self, tmp_path, rng):
        ids = ("a", "b")
        x = rng.normal(size=(2, 3))
        write_embeddings(tmp_path / "e.csv", ids, x)
        got_ids, feats = features_for("precomputed", embeddings=str(tmp_path / "e.csv"))
        assert got_ids == ids
        assert np.array_equal(feats, x)

    def test_mean_mode_aligns_text_rows(self, tmp_path, rng):
        ids = ("a", "b")
        ximg = rng.normal(size=(2, 3))
        xtxt = rng.normal(size=(2, 3))
        write_embeddings(tmp_path / "img.csv", ids, ximg)
        # text table arrives in reversed id order
        write_embeddings(tmp_path / "txt.csv", ("b", "a"), xtxt[::-1])
        _, feats = features_for("mean", image=str(tmp_path / "img.csv"), text=str(tmp_path / "txt.csv"))
        expect = np.stack([
            0.5 * (ximg[i] / np.linalg.norm(ximg[i]) + xtxt[i] / np.linalg.norm(xtxt[i]))
            for i in range(2)
        ])
        np.testing.assert_allclose(feats, expect)

    def test_mean_mode_id_mismatch(self, tmp_path, rng):
        write_embeddings(tmp_path / "img.csv", ("a", "b"), rng.normal(size=(2, 3)))
        for text_ids, named in [
            (("a", "c"), r"first missing: \['b'\], first extra: \['c'\]"),
            (("a", "b", "c"), r"first missing: \[\], first extra: \['c'\]"),  # an extra id alone is named too
        ]:
            write_embeddings(tmp_path / "txt.csv", text_ids, rng.normal(size=(len(text_ids), 3)))
            with pytest.raises(ValueError, match=rf"^text table ids do not match the panel ids \({named}\)$"):
                features_for("mean", image=str(tmp_path / "img.csv"), text=str(tmp_path / "txt.csv"))

    @pytest.mark.parametrize(
        "mode, role", [("mean", "text"), ("chunks", r"chunk\[1\]"), ("poe", "expert mean")], ids=["mean", "chunks", "poe"]
    )
    def test_width_mismatch_names_the_table(self, tmp_path, rng, mode, role):
        ids = ("a", "b")
        paths = [str(tmp_path / f"t{k}.csv") for k in range(2)]
        for path, width in zip(paths, (8, 6)):
            if mode == "poe":
                write_gaussians(path, ids, rng.normal(size=(2, width)), rng.normal(size=(2, width)))
            else:
                write_embeddings(path, ids, rng.normal(size=(2, width)))
        dataset = {"mean": {"image": paths[0], "text": paths[1]}, "chunks": {"chunks": paths}, "poe": {"experts": paths}}
        with pytest.raises(IngestError, match=rf"^{role} table has 6 columns, the first table has 8$"):
            features_for(mode, **dataset[mode])

    def test_chunks_mode_averages_files(self, tmp_path, rng):
        ids = ("a", "b")
        c1 = rng.normal(size=(2, 4))
        c2 = rng.normal(size=(2, 4))
        write_embeddings(tmp_path / "c1.csv", ids, c1)
        write_embeddings(tmp_path / "c2.csv", ids[::-1], c2[::-1])
        _, feats = features_for("chunks", chunks=[str(tmp_path / "c1.csv"), str(tmp_path / "c2.csv")])
        np.testing.assert_allclose(feats, (c1 + c2) / 2)

    def test_poe_mode_outputs_fused_means(self, tmp_path, rng):
        ids = ("a", "b")
        mus = [rng.normal(size=(2, 3)) for _ in range(2)]
        logvars = [rng.normal(size=(2, 3)) for _ in range(2)]
        for k in range(2):
            write_gaussians(tmp_path / f"g{k}.csv", ids, mus[k], logvars[k])
        _, feats = features_for("poe", experts=[str(tmp_path / "g0.csv"), str(tmp_path / "g1.csv")])
        for i in range(2):
            fused, _ = product_of_experts([m[i] for m in mus], [np.exp(lv[i]) for lv in logvars])
            np.testing.assert_allclose(feats[i], fused)

import numpy as np
import pytest

from gemi.numerics import SeededRng
from datasets import make_planted_panels


class TestPlantedPanels:
    def test_shapes_and_split(self):
        t = make_planted_panels(n=150, d=32, seed=0)
        assert t.features.shape == (150, 32)
        assert t.labels.shape == (150, 3)
        assert t.train_mask.sum() + t.test_mask.sum() == 150
        assert t.test_mask.sum() == 30  # exact 20% via per-blob quotas

    def test_labels_nested_by_rarity(self):
        # a rarer tag only appears on items carrying the commoner ones
        t = make_planted_panels(n=500, seed=1)
        y = t.labels
        assert np.all(y[:, 2] <= y[:, 1])
        assert np.all(y[:, 1] <= y[:, 0])

    def test_background_items_exist(self):
        t = make_planted_panels(n=500, seed=1)
        assert (t.labels.sum(axis=1) == 0).any()

    def test_prevalences_match_request(self):
        p = np.array([0.44, 0.33, 0.27])
        t = make_planted_panels(n=2000, seed=2, prevalences=tuple(p))
        freq = t.labels.mean(axis=0)
        assert np.all(np.abs(freq - p) < 0.04)
        assert freq[0] > freq[1] > freq[2]

    def test_split_stratified_over_richness(self):
        # every richness level contributes roughly its share of test rows
        t = make_planted_panels(n=1000, seed=6, test_fraction=0.2)
        richness = t.labels.sum(axis=1)
        for r in range(4):
            level = richness == r
            if level.sum() < 5:
                continue
            frac = (level & t.test_mask).sum() / level.sum()
            assert abs(frac - 0.2) < 0.01, f"richness {r} test fraction {frac}"

    def test_deterministic(self):
        a = make_planted_panels(seed=7)
        b = make_planted_panels(seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.split, b.split)

    def test_rng_and_seed_agree(self):
        a = make_planted_panels(seed=4)
        b = make_planted_panels(rng=SeededRng(4))
        assert np.array_equal(a.features, b.features)

    def test_separation_drives_signal(self):
        # class-conditional means should differ along the planted axes
        t = make_planted_panels(n=400, d=16, separation=4.0, seed=3)
        for ell in range(3):
            pos = t.features[t.labels[:, ell] == 1]
            neg = t.features[t.labels[:, ell] == 0]
            gap = np.linalg.norm(pos.mean(axis=0) - neg.mean(axis=0))
            assert gap > 2.0, f"label {ell} separation {gap}"

    def test_background_features_are_pure_noise(self):
        t = make_planted_panels(n=1000, d=16, seed=8)
        empty = t.labels.sum(axis=1) == 0
        centroid = t.features[empty].mean(axis=0)
        assert np.linalg.norm(centroid) < 0.5

    def test_custom_prevalence_tree_rare(self):
        t = make_planted_panels(n=1000, seed=5, prevalences=(0.44, 0.33, 0.10))
        assert t.labels[:, 2].mean() < 0.2

    def test_bad_prevalence_rejected(self):
        with pytest.raises(ValueError):
            make_planted_panels(prevalences=(0.5, 0.0, 0.2))
        with pytest.raises(ValueError):
            make_planted_panels(prevalences=(0.5, 1.2, 0.2))

    def test_dimension_must_fit_labels(self):
        with pytest.raises(ValueError):
            make_planted_panels(n=20, d=2)

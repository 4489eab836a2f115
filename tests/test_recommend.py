import json

import numpy as np
import pytest

from gemi.numerics import SeededRng
from gemi.recommend import (
    MetricsReport,
    aggregate,
    evaluate,
    label_relevance,
    precision_at_k,
    recommend_for_profile,
    score,
    top_k,
    user_embedding,
    write_metrics_csv,
    write_metrics_json,
)
from gemi.users import UserProfile


def brute_force_evaluate(reps, Y, test_mask, profiles, k_rec):
    """Independent reimplementation with explicit loops."""
    test_indices = [i for i in range(len(test_mask)) if test_mask[i]]
    per_user = np.zeros((len(profiles), Y.shape[1]))
    for u, prof in enumerate(profiles):
        emb = np.mean([reps[i] for i in prof.items], axis=0)
        scored = []
        for pos, i in enumerate(test_indices):
            v = reps[i]
            na = np.linalg.norm(emb)
            nb = np.linalg.norm(v)
            s = 0.0 if na < 1e-300 or nb < 1e-300 else float(emb @ v / ((na + 1e-12) * (nb + 1e-12)))
            scored.append((s, pos, i))
        scored.sort(key=lambda t: (-t[0], t[1]))
        recs = [i for _, _, i in scored[:k_rec]]
        for ell in range(Y.shape[1]):
            if prof.preferences[ell] >= 0.5:
                hits = sum(1 for i in recs if Y[i, ell] == 1)
                per_user[u, ell] = hits / k_rec
            else:
                per_user[u, ell] = 0.0
    return per_user


def make_profiles(items_list, prefs_list):
    return [
        UserProfile(user_id=f"u{i}", items=tuple(items), preferences=np.asarray(p, dtype=float))
        for i, (items, p) in enumerate(zip(items_list, prefs_list))
    ]


class TestPieces:
    def test_user_embedding_is_mean(self, rng):
        reps = rng.normal(size=(6, 4))
        np.testing.assert_allclose(user_embedding((1, 3, 5), reps), reps[[1, 3, 5]].mean(axis=0))

    def test_score_is_cosine(self, rng):
        u = rng.normal(size=4)
        reps = rng.normal(size=(5, 4))
        got = score(u, reps)
        for i in range(5):
            expect = u @ reps[i] / ((np.linalg.norm(u) + 1e-12) * (np.linalg.norm(reps[i]) + 1e-12))
            np.testing.assert_allclose(got[i], expect, atol=1e-12)

    def test_score_zero_vector_scores_zero(self, rng):
        reps = rng.normal(size=(3, 4))
        assert np.array_equal(score(np.zeros(4), reps), np.zeros(3))

    def test_top_k_ranks_descending(self):
        assert top_k(np.array([0.1, 0.9, 0.5]), 2).tolist() == [1, 2]

    def test_top_k_ties_by_position(self):
        assert top_k(np.array([0.5, 0.5, 0.5]), 2).tolist() == [0, 1]

    def test_top_k_caps_at_length(self):
        assert top_k(np.array([0.3, 0.1]), 5).tolist() == [0, 1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_top_k_matches_sort_oracle(self, seed):
        # few distinct values, so most positions tie with others
        scores = SeededRng(seed).integers(-3, 4, size=40) / 4.0
        for k in (1, 5, 40, 45):
            expect = sorted(range(40), key=lambda i: (-scores[i], i))[:k]
            assert top_k(scores, k).tolist() == expect

    def test_label_relevance_needs_both(self):
        Y = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        prefs = np.array([1.0, 0.4, 0.9])
        rel = label_relevance([0, 1, 2], prefs, Y)
        assert rel[0] == {0, 2}  # preferred and positive
        assert rel[1] == set()  # preference below 0.5
        assert rel[2] == set()  # no positives

    def test_precision_fixed_denominator(self):
        assert precision_at_k([1, 2, 3], {1, 2}, 5) == 2 / 5
        assert precision_at_k([1, 2], {1, 2}, 5) == 2 / 5  # short list, same denom

    def test_precision_rejects_overlong(self):
        with pytest.raises(ValueError):
            precision_at_k([1, 2, 3], {1}, 2)

    def test_aggregate_population_std(self):
        per_user = np.array([[0.4, 0.0], [0.6, 0.0]])
        rep = aggregate(per_user, model="m", representation="model", k_rec=5, seed=0)
        np.testing.assert_allclose(rep.mean, [0.5, 0.0])
        np.testing.assert_allclose(rep.std, [0.1, 0.0])  # population, not sample


class TestEvaluate:
    def _setup(self, rng, n=30, n_test=10, d=6):
        reps = rng.normal(size=(n, d))
        Y = (rng.random((n, 3)) < 0.4).astype(np.int64)
        test_mask = np.zeros(n, dtype=bool)
        test_mask[-n_test:] = True
        train = np.flatnonzero(~test_mask)
        profiles = make_profiles(
            [tuple(rng.choice(train, size=4, replace=False)) for _ in range(6)],
            [(rng.random(3) > 0.5).astype(float) for _ in range(6)],
        )
        return reps, Y, test_mask, profiles

    def test_matches_brute_force_exactly(self, rng):
        reps, Y, test_mask, profiles = self._setup(rng)
        report = evaluate(reps, Y, test_mask, profiles, 5, model="m", representation="model", seed=0)
        expect = brute_force_evaluate(reps, Y, test_mask, profiles, 5)
        assert np.array_equal(np.asarray(report.per_user), expect)

    def test_report_fields(self, rng):
        reps, Y, test_mask, profiles = self._setup(rng)
        report = evaluate(reps, Y, test_mask, profiles, 5, model="gemi-gcn", representation="raw", seed=7)
        assert report.model == "gemi-gcn"
        assert report.num_users == 6
        assert report.k_rec == 5
        assert report.seed == 7
        assert report.label_names == ("animal", "mythology", "tree")

    def test_empty_test_split_raises(self, rng):
        reps, Y, _, profiles = self._setup(rng)
        with pytest.raises(ValueError):
            evaluate(reps, Y, np.zeros(30, dtype=bool), profiles, 5, model="m", representation="model", seed=0)

    def test_no_profiles_raises(self, rng):
        reps, Y, test_mask, _ = self._setup(rng)
        with pytest.raises(ValueError):
            evaluate(reps, Y, test_mask, [], 5, model="m", representation="model", seed=0)

    def test_recommendations_are_test_items(self, rng):
        reps, Y, test_mask, profiles = self._setup(rng)
        rec = recommend_for_profile(profiles[0], reps, np.flatnonzero(test_mask), 5)
        assert all(test_mask[i] for i in rec.items)


class TestMetricsFiles:
    def _report(self):
        per_user = np.array([[0.2, 0.4, 0.0], [0.6, 0.8, 0.2]])
        return aggregate(per_user, model="gemi-gcn", representation="model", k_rec=5, seed=3)

    def test_json_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_metrics_json(p1, self._report())
        write_metrics_json(p2, self._report())
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_schema(self, tmp_path):
        p = tmp_path / "m.json"
        write_metrics_json(p, self._report())
        m = json.loads(p.read_text())
        assert set(m) >= {"model", "labels", "U", "K_rec", "seed", "per_user"}
        assert m["labels"]["animal"]["mean"] == 0.4
        assert m["U"] == 2

    def test_csv_contents(self, tmp_path):
        p = tmp_path / "m.csv"
        write_metrics_csv(p, self._report())
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "model,label,mean,std,U,K_rec,seed"
        assert len(lines) == 4
        assert lines[1].startswith("gemi-gcn,animal,")

import functools
import json

import numpy as np
import pytest

from gemi import graph
from gemi.graph import row_top_k
from gemi.numerics import SeededRng
from gemi.recommend import (
    MetricsReport,
    aggregate,
    evaluate,
    write_metrics_csv,
    write_metrics_json,
)
from conftest import traced_peak
from users_oracle import make_users, rows_of


def brute_force_picks(reps, test_mask, profiles, k_rec) -> list[list[int]]:
    """Each user's first k_rec test items (global indices) by cosine
    descending, then candidate position ascending, with explicit loops."""
    test_indices = [i for i in range(len(test_mask)) if test_mask[i]]
    picks = []
    for items in rows_of(profiles):
        emb = np.mean([reps[i] for i in items], axis=0)
        scored = []
        for pos, i in enumerate(test_indices):
            v = reps[i]
            na = np.linalg.norm(emb)
            nb = np.linalg.norm(v)
            s = 0.0 if na < 1e-300 or nb < 1e-300 else float(emb @ v / ((na + 1e-12) * (nb + 1e-12)))
            scored.append((s, pos, i))
        scored.sort(key=lambda t: (-t[0], t[1]))
        picks.append([i for _, _, i in scored[:k_rec]])
    return picks


def brute_force_evaluate(reps, Y, test_mask, profiles, k_rec):
    """Independent reimplementation with explicit loops."""
    per_user = np.zeros((len(profiles), Y.shape[1]))
    for u, recs in enumerate(brute_force_picks(reps, test_mask, profiles, k_rec)):
        for ell in range(Y.shape[1]):
            if profiles.preferences[u, ell] >= 0.5:
                hits = sum(1 for i in recs if Y[i, ell] == 1)
                per_user[u, ell] = hits / k_rec
            else:
                per_user[u, ell] = 0.0
    return per_user


def make_profiles(items_list, prefs_list, ids=None):
    return make_users([sorted(items) for items in items_list], prefs_list, ids)


def _evaluate(reps, Y, test_mask, profiles, k_rec):
    report = evaluate(reps, Y, test_mask, profiles, k_rec, model="m", representation="model", seed=0)
    return np.asarray(report.per_user)


class TestPieces:
    def test_user_embedding_is_mean(self):
        # items along e0 and e1: only their mean direction (1, 1) ranks candidate 2 first
        reps = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.1], [0.1, 1.0], [1.0, 1.0]])
        Y = np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        test_mask = np.array([False, False, True, True, True])
        profiles = make_profiles([(0, 1)], [[1.0, 1.0, 1.0]])
        assert _evaluate(reps, Y, test_mask, profiles, 1).tolist() == [[0.0, 0.0, 1.0]]

    def test_score_is_cosine(self):
        # candidate 1 has the larger dot product with the user, candidate 2 the larger cosine
        reps = np.array([[1.0, 0.0], [5.0, 5.0], [1.0, 0.1]])
        Y = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        test_mask = np.array([False, True, True])
        profiles = make_profiles([(0,)], [[1.0, 1.0, 1.0]])
        assert _evaluate(reps, Y, test_mask, profiles, 1).tolist() == [[0.0, 1.0, 0.0]]

    def test_score_zero_vector_scores_zero(self, rng):
        # all of the user's items are zero rows: every candidate scores 0,
        # so the lowest positions win
        reps = np.vstack([np.zeros((2, 4)), rng.normal(size=(4, 4))])
        Y = np.array([[1, 1, 1], [1, 1, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        test_mask = np.array([False, False, True, True, True, True])
        profiles = make_profiles([(0, 1)], [[1.0, 1.0, 1.0]])
        got = _evaluate(reps, Y, test_mask, profiles, 2)
        assert got.tolist() == [[0.5, 0.5, 0.0]]
        assert np.array_equal(got, brute_force_evaluate(reps, Y, test_mask, profiles, 2))

    def test_top_k_ranks_descending(self):
        rows, cols = row_top_k(np.array([[0.1, 0.9, 0.5], [0.7, 0.2, 0.3]]), 2)
        assert rows.tolist() == [0, 0, 1, 1]
        assert cols.tolist() == [1, 2, 0, 2]

    def test_top_k_ties_by_position(self):
        assert row_top_k(np.array([[0.5, 0.5, 0.5]]), 2)[1].tolist() == [0, 1]

    def test_top_k_caps_at_length(self):
        # k equal to the row length takes every column
        assert row_top_k(np.array([[0.3, 0.1]]), 2)[1].tolist() == [0, 1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_top_k_matches_sort_oracle(self, seed):
        # few distinct values, so most positions tie with others
        scores = SeededRng(seed).integers(-3, 4, size=(6, 40)) / 4.0
        for k in (1, 5, 39, 40):
            rows, cols = row_top_k(scores, k)
            assert rows.tolist() == np.repeat(np.arange(6), k).tolist()
            for r in range(6):
                expect = sorted(range(40), key=lambda i: (-scores[r, i], i))[:k]
                assert cols[rows == r].tolist() == sorted(expect)

    def test_label_relevance_needs_both(self):
        reps = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        Y = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])
        test_mask = np.array([False, True, True, True])
        profiles = make_profiles([(0,)], [[0.5, 0.4, 0.9]])
        got = _evaluate(reps, Y, test_mask, profiles, 3)
        # preferred (0.5 counts) and positive twice; preference below 0.5; no positives
        assert got.tolist() == [[2 / 3, 0.0, 0.0]]

    def test_precision_fixed_denominator(self, rng):
        # K_rec = 5 but only 3 candidates: all 3 are recommended, denominator stays 5
        reps = rng.normal(size=(5, 4))
        Y = np.array([[1, 1, 1], [1, 1, 1], [1, 0, 0], [1, 1, 0], [0, 0, 0]])
        test_mask = np.array([False, False, True, True, True])
        profiles = make_profiles([(0, 1)], [[1.0, 1.0, 0.0]])
        got = _evaluate(reps, Y, test_mask, profiles, 5)
        assert got.tolist() == [[2 / 5, 1 / 5, 0.0]]
        assert np.array_equal(got, brute_force_evaluate(reps, Y, test_mask, profiles, 5))

    def test_aggregate_population_std(self):
        per_user = np.array([[0.4, 0.0], [0.6, 0.0]])
        rep = aggregate(per_user, model="m", representation="model", k_rec=5, seed=0)
        np.testing.assert_allclose(rep.mean, [0.5, 0.0])
        np.testing.assert_allclose(rep.std, [0.1, 0.0])  # population, not sample


class TestEvaluate:
    def _setup(self, rng, n=30, n_test=10, d=6, users=6):
        reps = rng.normal(size=(n, d))
        Y = (rng.random((n, 3)) < 0.4).astype(np.int64)
        test_mask = np.zeros(n, dtype=bool)
        test_mask[-n_test:] = True
        train = np.flatnonzero(~test_mask)
        profiles = make_profiles(
            [tuple(rng.choice(train, size=int(rng.integers(1, 7)), replace=False)) for _ in range(users)],
            [(rng.random(3) > 0.5).astype(float) for _ in range(users)],
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
        nobody = make_profiles([], np.zeros((0, 3)))
        with pytest.raises(ValueError):
            evaluate(reps, Y, test_mask, nobody, 5, model="m", representation="model", seed=0)

    def test_empty_profile_raises(self, rng):
        # an empty profile has no mean: its row would be 0 / 0
        reps, Y, test_mask, profiles = self._setup(rng)
        rows = rows_of(profiles)
        rows[2] = ()
        ids = profiles.ids[:2] + ("nobody",) + profiles.ids[3:]
        profiles = make_profiles(rows, profiles.preferences, ids=ids)
        with pytest.raises(ValueError, match="nobody"):
            evaluate(reps, Y, test_mask, profiles, 5, model="m", representation="model", seed=0)

    def test_recommendations_are_test_items(self):
        # the user's own (training) items are the best matches and carry
        # every label, yet only test items are candidates
        reps = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 1.0]])
        Y = np.array([[1, 1, 1], [1, 1, 1], [0, 0, 0], [0, 0, 0]])
        test_mask = np.array([False, False, True, True])
        profiles = make_profiles([(0, 1)], [[1.0, 1.0, 1.0]])
        assert _evaluate(reps, Y, test_mask, profiles, 2).tolist() == [[0.0, 0.0, 0.0]]

    def test_exact_ties_pick_lowest_position(self):
        # three identical candidates with different labels: K_rec = 1 takes the first
        reps = np.array([[1.0, 2.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        Y = np.array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]])
        test_mask = np.array([False, True, True, True])
        profiles = make_profiles([(0,)], [[1.0, 1.0, 1.0]])
        got = _evaluate(reps, Y, test_mask, profiles, 1)
        assert got.tolist() == [[0.0, 1.0, 0.0]]
        assert np.array_equal(got, brute_force_evaluate(reps, Y, test_mask, profiles, 1))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_duplicated_candidates_match_brute_force(self, seed):
        # candidates are unit axis vectors or zero rows, many duplicated:
        # each cosine is one exact product, so ties are exact in any summation order
        rng = SeededRng(seed)
        n_train, n_test, d = 12, 20, 4
        test_rows = np.eye(d)[rng.integers(0, d, size=n_test)]
        test_rows[rng.random(n_test) < 0.2] = 0.0
        reps = np.vstack([rng.normal(size=(n_train, d)), test_rows])
        Y = (rng.random((n_train + n_test, 3)) < 0.5).astype(np.int64)
        test_mask = np.arange(n_train + n_test) >= n_train
        profiles = make_profiles(
            [tuple(rng.choice(n_train, size=int(rng.integers(1, 5)), replace=False)) for _ in range(15)],
            [rng.random(3) for _ in range(15)],
        )
        for k_rec in (1, 3, 7, n_test, n_test + 3):
            expect = brute_force_evaluate(reps, Y, test_mask, profiles, k_rec)
            assert np.array_equal(_evaluate(reps, Y, test_mask, profiles, k_rec), expect)

    def test_user_means_sum_items_in_order(self, rng, monkeypatch):
        # the sparse membership product adds a user's item rows left to right;
        # np.add.reduceat adds the first row to a pairwise sum of the rest, so
        # it agrees to a few ulp of these sums of at most six unit normals
        reps, Y, test_mask, profiles = self._setup(rng, n=60, n_test=10, d=16, users=40)
        ranked = []
        top_k_cosine = graph.top_k_cosine

        def spy(Q, R, k, **kwargs):
            # the user rows as the scorer reads them, one block at a time
            ranked.append(np.vstack([Q[s : s + graph.BLOCK_ROWS] for s in range(0, len(Q), graph.BLOCK_ROWS)]))
            return top_k_cosine(Q, R, k, **kwargs)

        monkeypatch.setattr(graph, "top_k_cosine", spy)
        _evaluate(reps, Y, test_mask, profiles, 5)
        in_order = np.array([functools.reduce(np.add, reps[list(items)]) / len(items) for items in rows_of(profiles)])
        reduceat = np.array([np.add.reduceat(reps[list(items)], [0], axis=0)[0] / len(items) for items in rows_of(profiles)])
        assert len(ranked) == 1
        assert np.array_equal(ranked[0], in_order)
        np.testing.assert_allclose(ranked[0], reduceat, rtol=0, atol=4 * np.finfo(np.float64).eps)

    def test_user_blocks_match_single_block(self, rng, monkeypatch):
        # 40 users with 1..6 items each span 5 blocks of 7 and a short last one
        reps, Y, test_mask, profiles = self._setup(rng, users=40)
        whole = _evaluate(reps, Y, test_mask, profiles, 5)
        picked = []
        top_k_cosine = graph.top_k_cosine

        def spy(Q, R, k, **kwargs):
            picked.append(top_k_cosine(Q, R, k, **kwargs))
            return picked[-1]

        monkeypatch.setattr(graph, "top_k_cosine", spy)
        monkeypatch.setattr(graph, "BLOCK_ROWS", 7)
        blocked = _evaluate(reps, Y, test_mask, profiles, 5)
        assert np.array_equal(blocked, whole)
        assert np.array_equal(blocked, brute_force_evaluate(reps, Y, test_mask, profiles, 5))
        ((rows, cols),) = picked
        assert rows.tolist() == np.repeat(np.arange(40), 5).tolist()
        got = np.flatnonzero(test_mask)[cols].reshape(40, 5).tolist()
        expect = brute_force_picks(reps, test_mask, profiles, 5)
        assert [sorted(row) for row in got] == [sorted(row) for row in expect]


def test_user_rows_are_formed_one_block_at_a_time():
    # 8 blocks of users at d = 64: the U x d user rows are 1 MiB, but
    # evaluate forms and scores them one BLOCK_ROWS block at a time
    import scipy.sparse  # noqa: F401  (before tracing: a first import allocates megabytes)

    rng = SeededRng(3)
    users, d, n_train, n_test, k_rec = 8 * graph.BLOCK_ROWS, 64, 40, 20, 2
    reps = rng.normal(size=(n_train + n_test, d))
    Y = (rng.random((n_train + n_test, 3)) < 0.4).astype(np.int64)
    test_mask = np.arange(n_train + n_test) >= n_train
    profiles = make_users(
        [np.sort(rng.choice(n_train, size=3, replace=False)).tolist() for _ in range(users)], rng.random((users, 3))
    )
    report, peak = traced_peak(
        evaluate, reps, Y, test_mask, profiles, k_rec, model="m", representation="model", seed=0
    )
    assert report.num_users == users
    assert peak < users * d * 8 / 2, peak / (users * d * 8)


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

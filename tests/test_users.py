from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemi.ingest import InteractionTable, load_interactions
from gemi.numerics import SeededRng
from gemi.users import (
    Users,
    bootstrap_augment,
    build_real_profiles,
    compute_lift,
    minmax_normalize_ratings,
    sample_synthetic_users,
    sigmoid_preference,
    smooth_lift,
    threshold_preferences,
    top_k_panels,
    write_user_dataset,
)
import users_oracle as oracle
from users_oracle import empirical_label_frequency, make_users, rows_of

# the users.pseudo_count, users.gain and users.top_k of the default config
REAL = dict(pseudo_count=5.0, gain=5.0, top_k=5)


def make_interactions(users, panels, ratings):
    users = np.asarray(users, dtype=np.int64)
    uids = tuple(f"u{i}" for i in range(users.max() + 1))
    return InteractionTable(
        user_ids=uids,
        users=users,
        panels=np.asarray(panels, dtype=np.int64),
        ratings=np.asarray(ratings, dtype=np.float64),
    )


def assert_same_users(got, expect):
    assert got.ids == expect.ids
    for field in ("indptr", "items", "preferences"):
        a, b = getattr(got, field), getattr(expect, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


class TestUsersRecord:
    def test_fields_and_length(self):
        u = make_users([(1, 4, 9), (), (0,)], [[0.5], [0.0], [1.0]])
        assert len(u) == 3
        assert u.indptr.tolist() == [0, 3, 3, 4]
        assert rows_of(u) == [(1, 4, 9), (), (0,)]

    def test_rejects_unsorted_items(self):
        with pytest.raises(ValueError, match="ascending"):
            make_users([(4, 1, 9)], [[0.5]])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            make_users([(0, 2), (1, 1)], [[0.5], [0.5]])

    def test_user_boundary_may_descend(self):
        # user 0 ends at 9 and user 2 starts at 1, with an empty user between
        u = make_users([(3, 9), (), (1, 2)], [[0.5], [0.5], [0.5]])
        assert rows_of(u)[2] == (1, 2)

    @pytest.mark.parametrize("bad", [1.2, -0.1, np.nan])
    def test_rejects_out_of_range_preferences(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            make_users([(1,)], [[bad]])

    @pytest.mark.parametrize(
        "indptr, items, prefs",
        [
            ([0, 1], [1, 2], [[0.5], [0.5]]),
            ([0, 1, 3], [1, 2], [[0.5], [0.5]]),
            ([1, 1, 2], [1, 2], [[0.5], [0.5]]),
            ([0, 2, 1], [1, 2], [[0.5], [0.5]]),
            ([0, 1, 2], [1, 2], [[0.5]]),
            ([0, 1, 2], [1, 2], [0.5, 0.5]),
            ([0, 1, 2], [[1], [2]], [[0.5], [0.5]]),
            ([0, 1, 2], [-1, 2], [[0.5], [0.5]]),
        ],
        ids=[
            "indptr-short",
            "indptr-past-items",
            "indptr-not-from-0",
            "indptr-falling",
            "one-preference-row",
            "preferences-not-matrix",
            "items-not-flat",
            "negative-item",
        ],
    )
    def test_rejects_mismatched_shapes(self, indptr, items, prefs):
        with pytest.raises(ValueError):
            Users(ids=("a", "b"), indptr=indptr, items=items, preferences=prefs)


class TestSyntheticUsers:
    def _labels(self, rng, n=40):
        Y = (rng.random((n, 3)) < 0.4).astype(np.int64)
        return Y

    def test_profiles_have_k_distinct_items(self, rng):
        Y = self._labels(rng)
        train = np.arange(30)
        profs = sample_synthetic_users(train, Y, 10, 5, 0.2, rng.substream("u"))
        assert len(profs) == 10
        for items in rows_of(profs):
            assert len(items) == 5
            assert set(items) <= set(train.tolist())

    def test_k_capped_at_pool_size(self, rng):
        Y = self._labels(rng)
        profs = sample_synthetic_users(np.arange(3), Y, 4, 10, 0.2, rng.substream("u"))
        for items in rows_of(profs):
            assert len(items) == 3

    def test_preferences_threshold_frequency(self, rng):
        Y = self._labels(rng)
        train = np.arange(40)
        tau = 0.2
        profs = sample_synthetic_users(train, Y, 8, 5, tau, rng.substream("u"))
        for items, prefs in zip(rows_of(profs), profs.preferences):
            freq = empirical_label_frequency(items, Y)
            assert np.array_equal(prefs, (freq >= tau).astype(float))

    def test_deterministic(self, rng):
        Y = self._labels(rng)
        a = sample_synthetic_users(np.arange(30), Y, 5, 4, 0.2, SeededRng(2))
        b = sample_synthetic_users(np.arange(30), Y, 5, 4, 0.2, SeededRng(2))
        assert_same_users(a, b)

    def test_empty_pool_raises(self, rng):
        with pytest.raises(ValueError):
            sample_synthetic_users(np.array([], dtype=np.int64), np.zeros((0, 3)), 5, 3, 0.2, rng)


class TestRatingPipeline:
    def test_minmax_full_range(self):
        np.testing.assert_allclose(minmax_normalize_ratings([1.0, 5.0, 3.0]), [0.0, 1.0, 0.5])

    def test_minmax_constant_goes_zero(self):
        assert np.array_equal(minmax_normalize_ratings([4.0, 4.0]), [0.0, 0.0])

    def test_lift_oracle(self):
        # panels: 0 has animal, 1 has tree, 2 has animal+tree
        Y = np.array([[1, 0, 0], [0, 0, 1], [1, 0, 1]])
        panels = [0, 1, 2]
        ratings = [1.0, 0.0, 0.5]
        lift, support, baseline = compute_lift([3], panels, ratings, Y)
        assert baseline.tolist() == [0.5]
        np.testing.assert_allclose(lift[0, 0], (1.0 + 0.5) / 2 - 0.5)  # animal
        assert lift[0, 1] == 0.0 and support[0, 1] == 0  # mythology unseen
        np.testing.assert_allclose(lift[0, 2], (0.0 + 0.5) / 2 - 0.5)  # tree
        assert support.tolist() == [[2, 0, 2]]

    def test_smoothing_shrinks_toward_prior(self):
        lift = np.array([1.0])
        prior = np.array([0.0])
        light = smooth_lift(lift, np.array([1]), prior, 5.0)
        heavy = smooth_lift(lift, np.array([100]), prior, 5.0)
        np.testing.assert_allclose(light, 1.0 / 6.0)
        np.testing.assert_allclose(heavy, 100.0 / 105.0)

    def test_smoothing_support_zero_gives_prior(self):
        out = smooth_lift(np.array([0.7]), np.array([0]), np.array([0.2]), 5.0)
        np.testing.assert_allclose(out, 0.2)

    def test_sigmoid_preference_range_and_center(self):
        out = sigmoid_preference(np.array([-10.0, 0.0, 10.0]), 5.0)
        assert out[1] == 0.5
        assert 0.0 < out[0] < 0.01 and 0.99 < out[2] <= 1.0

    def test_top_k_ties_by_ascending_panel(self):
        # user 0 keeps 3, 5 (0.9) and 7, the lower index of the 0.5 tie
        panels = [9, 3, 7, 5, 8, 1]
        ratings = [0.5, 0.9, 0.5, 0.9, 0.1, 0.2]
        indptr, items = top_k_panels([4, 2], panels, ratings, 3)
        assert indptr.tolist() == [0, 3, 5]
        assert items.tolist() == [3, 5, 7, 1, 8]

    def test_top_k_truncates(self):
        indptr, items = top_k_panels([2], [4, 2], [1.0, 0.5], 5)
        assert indptr.tolist() == [0, 2]
        assert items.tolist() == [2, 4]


class TestBuildRealProfiles:
    def _setup(self):
        Y = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1]])
        train = np.array([True, True, True, True, False])
        return Y, train

    def test_pipeline_end_to_end(self):
        Y, train = self._setup()
        t = make_interactions(
            [0, 0, 0, 1, 1], [0, 1, 2, 2, 3], [5.0, 4.0, 1.0, 2.0, 4.0]
        )
        profiles = build_real_profiles(t, Y, train, pseudo_count=5.0, gain=5.0, top_k=2)
        assert len(profiles) == 2
        assert profiles.ids[0] == "u0"
        # u0's best two rated panels
        assert rows_of(profiles)[0] == (0, 1)
        assert np.all((profiles.preferences >= 0) & (profiles.preferences <= 1))
        # u0 liked animal panels, disliked the mythology one
        assert profiles.preferences[0, 0] > profiles.preferences[0, 1]

    def test_non_training_interactions_filtered(self):
        Y, train = self._setup()
        # panel 4 is a test panel: interactions on it must not leak in
        t = make_interactions([0, 0, 0], [0, 1, 4], [5.0, 1.0, 3.0])
        profiles = build_real_profiles(t, Y, train, **REAL)
        assert 4 not in rows_of(profiles)[0]

    def test_user_with_only_test_interactions_skipped(self):
        Y, train = self._setup()
        t = make_interactions([0, 1], [0, 4], [5.0, 3.0])
        profiles = build_real_profiles(t, Y, train, **REAL)
        assert profiles.ids == ("u0",)

    def test_all_test_interactions_raises(self):
        Y, train = self._setup()
        t = make_interactions([0], [4], [3.0])
        with pytest.raises(ValueError):
            build_real_profiles(t, Y, train, **REAL)

    def test_prior_is_support_weighted(self):
        Y = np.array([[1, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]])
        train = np.ones(4, dtype=bool)
        # u0 rates 3 animal panels high, u1 rates 1 mythology panel low-ish
        t = make_interactions(
            [0, 0, 0, 0, 1, 1], [0, 1, 2, 3, 0, 3], [5.0, 5.0, 4.0, 1.0, 3.0, 2.0]
        )
        profiles = build_real_profiles(t, Y, train, **REAL)
        # both users exist and have valid prefs; animal lift dominates u0
        assert profiles.preferences[0, 0] > 0.5


class TestBootstrap:
    def _bases(self):
        return make_users([(0, 1, 2), (3, 4)], [[0.9, 0.1, 0.5], [0.2, 0.8, 0.4]], ids=("a", "b"))

    def test_target_count_and_naming(self):
        out = bootstrap_augment(
            self._bases(), np.arange(10), 7, 5, 0.3, 0.8, 1.2, 0.05, 0.05, SeededRng(0)
        )
        assert len(out) == 7
        assert out.ids == tuple(f"boot-{i}" for i in range(7))

    def test_preferences_clipped(self):
        out = bootstrap_augment(
            self._bases(), np.arange(10), 50, 5, 0.3, 0.8, 1.2, 0.5, 0.5, SeededRng(1)
        )
        assert out.preferences.min() >= 0.0
        assert out.preferences.max() <= 1.0

    def test_items_from_base_or_observed(self):
        observed = np.array([7, 8, 9])
        out = bootstrap_augment(
            self._bases(), observed, 30, 4, 0.5, 0.8, 1.2, 0.05, 0.05, SeededRng(2)
        )
        allowed = {0, 1, 2, 3, 4, 7, 8, 9}
        for items in rows_of(out):
            assert set(items) <= allowed
            assert 1 <= len(items) <= 4  # distinct set of 4 drawn slots

    def test_no_replacement_keeps_base_items(self):
        out = bootstrap_augment(
            self._bases(), np.arange(10), 20, 3, 0.0, 1.0, 1.0, 0.0, 0.0, SeededRng(3)
        )
        for items in rows_of(out):
            assert set(items) <= {0, 1, 2} or set(items) <= {3, 4}

    def test_deterministic(self):
        a = bootstrap_augment(self._bases(), np.arange(6), 9, 4, 0.3, 0.8, 1.2, 0.05, 0.05, SeededRng(5))
        b = bootstrap_augment(self._bases(), np.arange(6), 9, 4, 0.3, 0.8, 1.2, 0.05, 0.05, SeededRng(5))
        assert_same_users(a, b)


class TestWriteUserDataset:
    def test_round_trip_via_interactions(self, tmp_path):
        profiles = make_users([(0, 2)], [[1.0, 0.0, 0.5]])
        prefix = str(tmp_path / "users")
        pref_path, inter_path = write_user_dataset(prefix, profiles, panel_ids=("pa", "pb", "pc"))
        loaded = load_interactions(inter_path, ("pa", "pb", "pc"))
        assert loaded.user_ids == ("u0",)
        assert loaded.panels.tolist() == [0, 2]
        text = Path(pref_path).read_text()
        assert text.startswith("user_id,animal,mythology,tree")
        assert "u0,1.0,0.0,0.5" in text


def shuffled_ratings(rng, num_users, n_panels, max_count):
    """Ratings with 1..max_count rows per user, rows in random order."""
    users, panels = [], []
    for u in range(num_users):
        m = int(rng.integers(1, max_count + 1))
        users += [u] * m
        panels += rng.choice(n_panels, size=m, replace=False).tolist()
    order = rng.permutation(len(users))
    ratings = np.round(rng.random(len(users)) * 4.0 + 1.0, 1)  # 0.1 steps give exact ties
    return make_interactions(np.asarray(users)[order], np.asarray(panels)[order], ratings)


class TestAgainstOracle:
    """The array builders reproduce the per-user loops in users_oracle exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [4, 60])
    def test_synthetic(self, seed, k):
        Y = (SeededRng(seed).random((50, 3)) < 0.4).astype(np.int64)
        train = np.arange(3, 48, 2)  # 23 panels: k = 60 is capped
        got = sample_synthetic_users(train, Y, 40, k, 0.3, SeededRng(seed).substream("u"))
        expect = oracle.sample_synthetic_users(train, Y, 40, k, 0.3, SeededRng(seed).substream("u"))
        assert_same_users(got, expect)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_real_profiles_from_unsorted_rows(self, seed):
        rng = SeededRng(seed)
        n = 300
        Y = (rng.random((n, 3)) < 0.35).astype(np.int64)
        train = rng.random(n) < 0.8
        # up to 200 rows per user: sums past numpy's 8- and 128-element
        # blocks; 300 users, so a prior summed in another order shows
        table = shuffled_ratings(rng, 300, n, 200)
        assert np.any(np.diff(table.users) < 0)
        for top_k, pseudo_count in ((1, 3.0), (5, 20.0), (50, 0.5)):
            kw = dict(pseudo_count=pseudo_count, gain=4.0, top_k=top_k)
            got = build_real_profiles(table, Y, train, **kw)
            assert_same_users(got, oracle.build_real_profiles(table, Y, train, **kw))

    def test_real_profiles_skip_users_without_training_rows(self):
        rng = SeededRng(9)
        Y = (rng.random((40, 3)) < 0.5).astype(np.int64)
        train = np.arange(40) < 30
        table = shuffled_ratings(rng, 12, 40, 6)
        only_test = np.isin(table.users, [3, 7])
        table = make_interactions(
            table.users, np.where(only_test, 30 + table.panels % 10, table.panels), table.ratings
        )
        got = build_real_profiles(table, Y, train, **REAL)
        assert "u3" not in got.ids and "u7" not in got.ids
        assert_same_users(got, oracle.build_real_profiles(table, Y, train, **REAL))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p_replace", [0.0, 0.3, 1.0])
    def test_bootstrap(self, seed, p_replace):
        rng = SeededRng(100 + seed)
        # bases hold 1..4 items, fewer than the k = 7 slots drawn
        rows = [tuple(sorted(rng.choice(30, size=int(rng.integers(1, 5)), replace=False).tolist())) for _ in range(12)]
        bases = make_users(rows, rng.random((12, 3)))
        observed = np.arange(5, 40, 3)
        args = (observed, 500, 7, p_replace, 0.8, 1.2, 0.05, 0.1)
        got = bootstrap_augment(bases, *args, SeededRng(seed).substream("boot"))
        expect = oracle.bootstrap_augment(bases, *args, SeededRng(seed).substream("boot"))
        assert_same_users(got, expect)

    def test_bootstrap_of_real_profiles(self):
        rng = SeededRng(4)
        Y = (rng.random((120, 3)) < 0.4).astype(np.int64)
        train = rng.random(120) < 0.8
        bases = build_real_profiles(shuffled_ratings(rng, 50, 120, 25), Y, train, **REAL)
        observed = np.flatnonzero(train)
        got = bootstrap_augment(bases, observed, 2000, 5, 0.3, 0.8, 1.2, 0.05, 0.05, SeededRng(4))
        expect = oracle.bootstrap_augment(bases, observed, 2000, 5, 0.3, 0.8, 1.2, 0.05, 0.05, SeededRng(4))
        assert_same_users(got, expect)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_threshold_preferences_binary_property(seed):
    rng = SeededRng(seed)
    freq = rng.random(3)
    out = threshold_preferences(freq, 0.2)
    assert set(np.unique(out).tolist()) <= {0.0, 1.0}
    assert np.all((out == 1.0) == (freq >= 0.2))

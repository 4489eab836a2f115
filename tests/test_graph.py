from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemi import graph, numerics
from gemi.graph import (
    TAGS,
    AdjacencyPattern,
    ItemGraph,
    attach_test_items,
    augment_label_edges,
    edge_dropout,
    epsilon_graph,
    knn_graph_symmetric,
    top_k_cosine,
)
from gemi.numerics import SeededRng
from conftest import traced_held, traced_peak
from graph_oracles import (
    attach_edges,
    brute_force_attach_edges,
    brute_force_epsilon_edges,
    brute_force_knn_edges,
    coo_normalized_adjacency,
    cosine_similarity_matrix,
    dense_attachment_operator,
    dense_normalized_adjacency,
    edge_set,
    graph_from_pairs,
    ranked,
    sorted_row_top_k,
    tagged_edges,
)

KNN, EPSILON, AUGMENT = (TAGS.index(name) for name in ("knn", "epsilon", "label-augment"))


class TestItemGraph:
    def test_from_pairs_canonicalizes(self):
        # the test oracle, not gemi: any order and orientation in, from_keys' order out
        g = graph_from_pairs(4, [[2, 0], [1, 3]], [AUGMENT, KNN])
        assert g.pairs.tolist() == [[0, 2], [1, 3]]
        assert g.tags.tolist() == [AUGMENT, KNN]
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_pairs(3, [[1, 1]], [KNN])
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_pairs(3, [[0, 1], [1, 0]], [KNN, AUGMENT])

    def test_from_keys_forms_pairs(self):
        g = ItemGraph.from_keys(4, [0 * 4 + 2, 1 * 4 + 3, 2 * 4 + 3], [AUGMENT, KNN, EPSILON])
        assert g.pairs.tolist() == [[0, 2], [1, 3], [2, 3]]
        assert g.pairs.dtype == np.int64 and g.pairs.flags.c_contiguous
        assert g.tags.tolist() == [AUGMENT, KNN, EPSILON] and g.tags.dtype == np.uint8

    # n = 3 below: key i·3 + j, so 1 is (0, 1), 4 is (1, 1) and 3 is (1, 0)
    def test_rejects_self_loop(self):
        for keys in ([0], [1, 4], [2, 8]):
            with pytest.raises(ValueError, match="i < j"):
                ItemGraph.from_keys(3, keys, [KNN] * len(keys))

    def test_rejects_flipped_pair(self):
        for keys in ([3], [1, 3], [2, 5, 7]):
            with pytest.raises(ValueError, match="i < j"):
                ItemGraph.from_keys(3, keys, [KNN] * len(keys))

    def test_rejects_duplicate_edge(self):
        for keys in ([1, 1], [1, 2, 2, 5]):
            with pytest.raises(ValueError, match="strictly increasing"):
                ItemGraph.from_keys(3, keys, [KNN] * len(keys))

    def test_rejects_unsorted(self):
        # in [1, 10, 2] the middle key is out of range too: order is checked over every key
        for keys in ([2, 1], [1, 5, 2], [1, 10, 2]):
            with pytest.raises(ValueError, match="strictly increasing"):
                ItemGraph.from_keys(3, keys, [KNN] * len(keys))

    def test_rejects_out_of_range(self):
        for keys in ([-1], [-3, 1], [9], [1, 10]):
            with pytest.raises(ValueError, match="out of range"):
                ItemGraph.from_keys(3, keys, [KNN] * len(keys))

    def test_rejects_misaligned_tags(self):
        with pytest.raises(ValueError, match="align"):
            ItemGraph.from_keys(3, [1, 2], [KNN])
        with pytest.raises(ValueError, match="align"):
            ItemGraph.from_keys(3, [], [KNN])

    def test_degrees(self):
        g = ItemGraph.from_keys(4, [1, 2, 3], [KNN] * 3)
        assert g.degrees().tolist() == [3, 1, 1, 1]

    def test_rejects_tags_that_are_not_codes(self):
        with pytest.raises(ValueError, match="codes"):
            ItemGraph.from_keys(3, [1], ["knn"])
        with pytest.raises(ValueError, match="codes"):
            ItemGraph.from_keys(3, [1], [len(TAGS)])
        with pytest.raises(ValueError, match="codes"):
            ItemGraph.from_keys(3, [1], [-1])

    def test_degrees_of_empty_graph(self):
        g = ItemGraph.from_keys(3, [], np.empty(0, dtype=np.uint8))
        assert g.m == 0 and g.pairs.shape == (0, 2) and g.pairs.dtype == np.int64
        assert g.degrees().tolist() == [0, 0, 0]
        assert g.degrees().dtype == np.int64


def _tag_cases(rng):
    """knn, epsilon, knn + label-augment and an empty epsilon graph."""
    X = rng.normal(size=(30, 4))
    Y = (rng.random((30, 3)) < 0.5).astype(np.int64)
    knn = knn_graph_symmetric(X, 3)
    augmented = augment_label_edges(knn, X, Y, 0, 4, 30, np.ones(30, dtype=bool), rng.substream("aug"))
    return {"knn": knn, "epsilon": epsilon_graph(X, 0.3), "augmented": augmented, "empty": epsilon_graph(X, 1.5)}


class TestTags:
    def test_one_byte_per_edge(self, rng):
        for name, g in _tag_cases(rng).items():
            assert g.tags.dtype == np.uint8, name
            assert g.tags.nbytes == g.m, name

    def test_summary_counts_tag_names(self, rng):
        cases = _tag_cases(rng)
        assert cases["augmented"].m > cases["knn"].m and cases["epsilon"].m > 0 and cases["empty"].m == 0
        for name, g in cases.items():
            assert graph.graph_summary(g)["edges"] == Counter(tagged_edges(g).values()), name
        assert graph.graph_summary(cases["empty"])["edges"] == {}


class TestKnnGraph:
    @pytest.mark.parametrize("seed,n,k", [(0, 12, 3), (1, 25, 4), (2, 9, 2)])
    def test_matches_brute_force(self, seed, n, k):
        rng = SeededRng(seed)
        X = rng.normal(size=(n, 5))
        g = knn_graph_symmetric(X, k)
        assert edge_set(g) == brute_force_knn_edges(X, k)

    def test_min_degree_at_least_k(self, rng):
        X = rng.normal(size=(30, 4))
        g = knn_graph_symmetric(X, 5)
        assert g.degrees().min() >= 5

    def test_all_edges_tagged_knn(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(10, 3)), 2)
        assert set(g.tags.tolist()) == {KNN}

    def test_tie_break_ascending_index(self):
        # three identical points: similarity ties everywhere; each picks
        # the lowest-indexed other node
        X = np.tile([[1.0, 0.0]], (4, 1))
        g = knn_graph_symmetric(X, 1)
        assert edge_set(g) == {(0, 1), (0, 2), (0, 3)}

    def test_similarity_floor_changes_ranking(self):
        # floor lifts all negatives to the same value, making rank ties
        # resolve by index instead of by raw similarity
        X = np.array([[1.0, 0.0], [-1.0, 0.01], [-1.0, -0.01], [0.9, 0.1]])
        g_raw = knn_graph_symmetric(X, 1)
        g_floored = knn_graph_symmetric(X, 1, similarity_floor=0.0)
        assert edge_set(g_raw) == brute_force_knn_edges(X, 1, floor=-np.inf)
        assert edge_set(g_floored) == brute_force_knn_edges(X, 1, floor=0.0)

    def test_k_bounds(self, rng):
        X = rng.normal(size=(5, 3))
        with pytest.raises(ValueError):
            knn_graph_symmetric(X, 0)
        with pytest.raises(ValueError):
            knn_graph_symmetric(X, 5)


class TestEpsilonGraph:
    def test_matches_brute_force(self, rng):
        X = rng.normal(size=(15, 4))
        eps = 0.3
        g = epsilon_graph(X, eps)
        sims = cosine_similarity_matrix(X)
        expect = {
            (i, j)
            for i in range(15)
            for j in range(i + 1, 15)
            if max(sims[i, j], 0.0) >= eps and max(sims[i, j], 0.0) > 0.0
        }
        assert edge_set(g) == expect

    def test_zero_epsilon_keeps_positive_only(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = epsilon_graph(X, 0.0)
        # orthogonal pair (0, 1) has similarity 0: no edge
        assert edge_set(g) == {(0, 2), (1, 2)}

    def test_epsilon_one_point_one(self, rng):
        g = epsilon_graph(rng.normal(size=(10, 3)), 1.1)
        assert g.m == 0


class TestAugmentLabelEdges:
    def _setup(self, rng, n=20):
        X = rng.normal(size=(n, 4))
        Y = (rng.random((n, 3)) < 0.5).astype(np.int64)
        g = knn_graph_symmetric(X, 2)
        train = np.ones(n, dtype=bool)
        train[-5:] = False
        return X, Y, g, train

    def test_new_edges_tagged(self, rng):
        X, Y, g, train = self._setup(rng)
        out = augment_label_edges(g, X, Y, 0, 3, 100, train, rng.substream("aug"))
        new = out.m - g.m
        assert new > 0
        assert (out.tags == AUGMENT).sum() == new

    def test_only_training_positives_touched(self, rng):
        X, Y, g, train = self._setup(rng)
        out = augment_label_edges(g, X, Y, 1, 3, 100, train, rng.substream("aug"))
        pos = set(np.flatnonzero(train & (Y[:, 1] == 1)).tolist())
        for (i, j), tag in zip(out.pairs.tolist(), out.tags):
            if tag == AUGMENT:
                assert i in pos and j in pos

    def test_existing_edges_keep_tags(self, rng):
        X, Y, g, train = self._setup(rng)
        out = augment_label_edges(g, X, Y, 0, 3, 100, train, rng.substream("aug"))
        assert edge_set(out) >= edge_set(g)
        kept = {tuple(p) for p, t in zip(out.pairs.tolist(), out.tags) if t == KNN}
        assert kept == edge_set(g)

    def test_fewer_than_two_positives_is_identity(self, rng):
        X, Y, g, train = self._setup(rng)
        Y[:, 2] = 0
        Y[0, 2] = 1
        out = augment_label_edges(g, X, Y, 2, 3, 100, train, rng.substream("aug"))
        assert out is g

    def test_max_nodes_caps_subsample(self, rng):
        X, Y, g, train = self._setup(rng, n=30)
        Y[:, 0] = 1
        out = augment_label_edges(g, X, Y, 0, 2, 6, train, rng.substream("aug"))
        touched = {v for (i, j), t in zip(out.pairs.tolist(), out.tags) if t == AUGMENT for v in (i, j)}
        assert len(touched) <= 6

    def test_deterministic(self, rng):
        X, Y, g, train = self._setup(rng, n=30)
        Y[:, 0] = 1
        a = augment_label_edges(g, X, Y, 0, 3, 10, train, SeededRng(4))
        b = augment_label_edges(g, X, Y, 0, 3, 10, train, SeededRng(4))
        assert np.array_equal(a.pairs, b.pairs)


def kept_graph(g, keep) -> ItemGraph:
    """The edges an edge-dropout keep mask keeps, with their tags."""
    return ItemGraph(n=g.n, keys=g.keys[keep], tags=g.tags[keep])


def augment_exempt(g) -> np.ndarray:
    """The exempt mask training builds once per run: the label-augment edges."""
    return np.isin(g.tags, [AUGMENT])


class TestEdgeDropout:
    def test_p_zero_identity(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(12, 3)), 2)
        keep = edge_dropout(g, 0.0, rng.substream("d"))
        assert keep.dtype == bool and keep.shape == (g.m,)
        assert edge_set(kept_graph(g, keep)) == edge_set(g)

    def test_p_one_drops_all(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(12, 3)), 2)
        keep = edge_dropout(g, 1.0, rng.substream("d"))
        assert kept_graph(g, keep).m == 0

    def test_exempt_tags_survive(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(12, 3)), 2)
        tags = g.tags.copy()
        tags[:3] = AUGMENT
        g = ItemGraph(n=g.n, keys=g.keys, tags=tags)
        out = kept_graph(g, edge_dropout(g, 1.0, rng.substream("d"), exempt=augment_exempt(g)))
        assert out.m == 3
        assert set(out.tags.tolist()) == {AUGMENT}

    def test_exemption_does_not_shift_other_draws(self, rng):
        # the same seed must keep/drop each non-exempt edge identically
        # whether or not some other edges are exempt
        g = knn_graph_symmetric(rng.normal(size=(15, 3)), 3)
        tags = g.tags.copy()
        tags[:4] = AUGMENT
        g2 = ItemGraph(n=g.n, keys=g.keys, tags=tags)
        out_plain = kept_graph(g, edge_dropout(g, 0.5, SeededRng(12)))
        out_exempt = kept_graph(g2, edge_dropout(g2, 0.5, SeededRng(12), exempt=augment_exempt(g2)))
        plain_kept = edge_set(out_plain)
        for (i, j), tag in zip(g2.pairs.tolist(), g2.tags):
            if tag != AUGMENT:
                assert ((i, j) in edge_set(out_exempt)) == ((i, j) in plain_kept)

    def test_expected_keep_rate(self):
        g = graph_from_pairs(
            200, np.column_stack([np.arange(100), np.arange(100, 200)]), [KNN] * 100
        )
        kept = kept_graph(g, edge_dropout(g, 0.3, SeededRng(5))).m
        assert 55 <= kept <= 85  # ~Binomial(100, 0.7)


class TestNormalizeAdjacency:
    def test_matches_dense_formula(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(14, 4)), 3)
        expect = dense_normalized_adjacency(g)
        np.testing.assert_allclose(AdjacencyPattern(g).operator().toarray(), expect, atol=1e-14)

    def test_isolated_node_self_entry(self):
        g = graph_from_pairs(3, [[0, 1]], [KNN])
        dense = AdjacencyPattern(g).operator().toarray()
        assert dense[2, 2] == 1.0

    @pytest.mark.parametrize(
        "pairs", [[[0, 1], [0, 3], [1, 3]], []], ids=["isolated-node", "no-edges"]
    )
    def test_canonical_csr(self, pairs):
        g = graph_from_pairs(4, pairs, [KNN] * len(pairs))
        adj = AdjacencyPattern(g).operator()
        assert adj.has_canonical_format
        assert adj.shape == (4, 4)
        assert adj.nnz == 2 * g.m + g.n
        np.testing.assert_allclose(adj.toarray(), dense_normalized_adjacency(g), atol=1e-14)

    def test_canonical_after_edge_dropout(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(40, 5)), 4)
        keep = edge_dropout(g, 0.5, SeededRng(3))
        dropped = kept_graph(g, keep)
        adj = AdjacencyPattern(g).operator(keep)
        assert adj.has_canonical_format
        np.testing.assert_allclose(adj.toarray(), dense_normalized_adjacency(dropped), atol=1e-14)

    def test_spectrum_bounded_by_one(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(20, 4)), 4)
        dense = AdjacencyPattern(g).operator().toarray()
        assert np.all(dense >= 0)
        assert np.array_equal(dense, dense.T)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.max() <= 1.0 + 1e-9
        assert eigs.min() >= -1.0 - 1e-9


def _pattern_case(seed):
    """A random tagged graph with isolated nodes, and its exempt mask or None."""
    rng = SeededRng(seed)
    n = 25
    keep = np.triu(rng.random((n, n)) < 0.25, k=1)
    keep[::5] = False
    keep[:, ::5] = False  # every fifth node is isolated
    pairs = np.argwhere(keep)
    tags = np.where(rng.random(len(pairs)) < 0.3, AUGMENT, KNN)
    g = graph_from_pairs(n, pairs, tags)
    return g, augment_exempt(g) if seed % 2 else None


def assert_same_csr(got, expect):
    assert got.format == "csr" and got.shape == expect.shape
    assert got.has_canonical_format
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(expect, attr)), attr


class TestAdjacencyPattern:
    """The per-epoch operator selected from the pattern, bit for bit the COO build."""

    @pytest.mark.parametrize("p_e", [0.0, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("seed", range(20))
    def test_operator_matches_coo_oracle(self, seed, p_e):
        g, exempt = _pattern_case(seed)
        pattern = AdjacencyPattern(g)
        edge_rng = SeededRng(seed).substream("edge_dropout")
        for _ in range(3):  # one pattern serves every epoch
            keep = edge_dropout(g, p_e, edge_rng, exempt)
            assert_same_csr(pattern.operator(keep), coo_normalized_adjacency(g, keep))
        assert_same_csr(pattern.operator(), coo_normalized_adjacency(g))

    @pytest.mark.parametrize("n", [1, 4])
    def test_no_edges(self, n):
        g = graph_from_pairs(n, [], [])
        pattern = AdjacencyPattern(g)
        for p_e in (0.0, 1.0):
            keep = edge_dropout(g, p_e, SeededRng(n))
            assert_same_csr(pattern.operator(keep), coo_normalized_adjacency(g, keep))
        assert np.array_equal(pattern.operator().toarray(), np.eye(n))

    def test_all_kept_mask_gives_the_clean_operator(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(30, 4)), 3)
        pattern = AdjacencyPattern(g)
        all_kept = np.ones(g.m, dtype=bool)
        assert_same_csr(pattern.operator(), coo_normalized_adjacency(g))
        assert_same_csr(pattern.operator(all_kept), pattern.operator())


class TestAttachment:
    def _operator(self, rng, n_train=15, n_test=4, k=3):
        X_train = rng.normal(size=(n_train, 5))
        X_test = rng.normal(size=(n_test, 5))
        train_graph = knn_graph_symmetric(X_train, k)
        op = attach_test_items(AdjacencyPattern(train_graph).operator(), X_train, X_test, k)
        return X_train, X_test, train_graph, op

    def test_no_test_test_edges(self, rng):
        _, _, train_graph, op = self._operator(rng)
        n_train = train_graph.n
        rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
        test_cols = op.indices >= n_train
        # a test column is read only by its own row: no test-test and no test-train flow
        assert np.array_equal(op.indices[test_cols], rows[test_cols])

    def test_test_rows_hold_k_train_columns_and_diagonal(self, rng):
        _, _, train_graph, op = self._operator(rng, n_test=4, k=3)
        n_train = train_graph.n
        for v in range(n_train, n_train + 4):
            cols = op.indices[op.indptr[v] : op.indptr[v + 1]]
            assert cols.size == 3 + 1
            assert (cols[:-1] < n_train).all() and cols[-1] == v  # own diagonal last

    def test_train_side_untouched(self, rng):
        _, _, train_graph, op = self._operator(rng)
        adj = coo_normalized_adjacency(train_graph)
        n_train, nnz = train_graph.n, adj.nnz
        assert np.array_equal(op.indptr[: n_train + 1], adj.indptr)
        assert np.array_equal(op.indices[:nnz], adj.indices)
        assert np.array_equal(op.data[:nnz], adj.data)

    def test_each_test_node_links_topk_trains(self, rng):
        X_train, X_test, train_graph, op = self._operator(rng, k=3)
        n_train = train_graph.n
        Xtr = X_train / np.linalg.norm(X_train, axis=1, keepdims=True)
        Xte = X_test / np.linalg.norm(X_test, axis=1, keepdims=True)
        sims = Xte @ Xtr.T
        for t in range(X_test.shape[0]):
            expect = set(sorted(range(n_train), key=lambda j: (-sims[t, j], j))[:3])
            got = {j for j, v in attach_edges(op, n_train) if v == n_train + t}
            assert got == expect

    def test_k_too_large_errors(self, rng):
        X_train = rng.normal(size=(4, 3))
        g = knn_graph_symmetric(X_train, 2)
        with pytest.raises(ValueError):
            attach_test_items(AdjacencyPattern(g).operator(), X_train, rng.normal(size=(2, 3)), 5)

    def test_operator_shape_must_match_the_training_rows(self, rng):
        X_train, X_test = rng.normal(size=(6, 3)), rng.normal(size=(2, 3))
        adj = AdjacencyPattern(knn_graph_symmetric(X_train, 2)).operator()
        with pytest.raises(ValueError, match="shape"):
            attach_test_items(adj, X_train[:5], X_test, 2)  # wrong node count
        with pytest.raises(ValueError, match="shape"):
            attach_test_items(adj[:, :5], X_train[:5], X_test, 2)  # not square
        with pytest.raises(ValueError, match="shape"):
            attach_test_items(adj[:5], X_train[:5], X_test, 2)  # not square

    def test_blocks_formula(self, rng):
        _, _, train_graph, op = self._operator(rng, n_train=12, n_test=3, k=2)
        dh_train = train_graph.degrees() + 1.0
        n_train = train_graph.n
        dense = op.toarray()
        for t in range(3):
            v = n_train + t
            linked = {j for j, u in attach_edges(op, n_train) if u == v}
            dh_t = len(linked) + 1.0
            assert dense[v, v] == 1.0 / dh_t
            for i in range(n_train):
                if i in linked:
                    assert dense[v, i] == 1.0 / np.sqrt(dh_t * dh_train[i])
                else:
                    assert dense[v, i] == 0.0


def tie_heavy_features(rng, n, d):
    """Axis-aligned rows (many exact duplicates) and all-zero rows.

    Every cosine is a single product or exactly 0, so the ties are exact
    whatever order a matrix product sums in.
    """
    X = np.zeros((n, d))
    X[np.arange(n), rng.integers(0, d, size=n)] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=n)
    X[rng.random(n) < 0.2] = 0.0
    return X


@pytest.fixture
def small_blocks(monkeypatch):
    """Seven rows per block: n = 10..40 spans 2..6 blocks and a short last one."""
    monkeypatch.setattr(numerics, "BLOCK_ROWS", 7)


INPUTS = {
    "normal": lambda rng, n: rng.normal(size=(n, 4)),
    "tie-heavy": lambda rng, n: tie_heavy_features(rng, n, 3),
}


def rescaled_features(rng, n, d):
    """Rows drawn from a few directions, each scaled by 1e-3 .. 1e3."""
    base = rng.normal(size=(4, d))
    return base[rng.integers(0, 4, size=n)] * 10.0 ** rng.integers(-3, 4, size=(n, 1))


def with_zero_rows(rng, n, d):
    X = rng.normal(size=(n, d))
    X[rng.random(n) < 0.3] = 0.0
    return X


RAW_INPUTS = {
    "rescaled": lambda rng, n: rescaled_features(rng, n, 3),
    "zero-rows": lambda rng, n: with_zero_rows(rng, n, 3),
    "tie-heavy": lambda rng, n: tie_heavy_features(rng, n, 3),
}


@pytest.mark.usefixtures("small_blocks")
class TestRowBlocks:
    @pytest.mark.parametrize("inputs", sorted(RAW_INPUTS))
    @pytest.mark.parametrize("floor", [None, 0.3])
    @pytest.mark.parametrize("seed,n_q,n_r,k", [(0, 10, 12, 3), (1, 23, 9, 9), (2, 40, 30, 1), (3, 15, 22, 6)])
    def test_top_k_cosine_matches_brute_force(self, inputs, floor, seed, n_q, n_r, k):
        # raw, unnormalized rows: the scorer's own normalization must rank
        # like the brute-force cosine matrix, across several row blocks; the
        # floor clamps cosines, so it also catches an unnormalized query row
        rng = SeededRng(seed)
        Q, R = RAW_INPUTS[inputs](rng, n_q), RAW_INPUTS[inputs](rng, n_r)
        sims = np.maximum(cosine_similarity_matrix(np.vstack([Q, R]))[:n_q, n_q:], -np.inf if floor is None else floor)
        rows, cols = top_k_cosine(Q, R, k, floor=floor)
        assert rows.tolist() == np.repeat(np.arange(n_q), k).tolist()
        for q in range(n_q):
            assert cols[rows == q].tolist() == sorted(ranked(sims[q], range(n_r), k))

    @pytest.mark.parametrize("inputs", sorted(INPUTS))
    @pytest.mark.parametrize("floor", [-np.inf, 0.0, 0.3])
    @pytest.mark.parametrize("seed,n,k", [(0, 10, 3), (1, 22, 1), (2, 36, 5), (3, 15, 14), (4, 40, 39)])
    def test_knn_matches_brute_force(self, inputs, floor, seed, n, k):
        X = INPUTS[inputs](SeededRng(seed), n)
        g = knn_graph_symmetric(X, k, similarity_floor=floor)
        assert edge_set(g) == brute_force_knn_edges(X, k, floor=floor)
        assert g.degrees().min() >= k

    @pytest.mark.parametrize("inputs", sorted(INPUTS))
    def test_k_n_minus_one_is_complete(self, inputs):
        n = 17
        g = knn_graph_symmetric(INPUTS[inputs](SeededRng(5), n), n - 1)
        assert edge_set(g) == {(i, j) for i in range(n) for j in range(i + 1, n)}

    @pytest.mark.parametrize("inputs", sorted(INPUTS))
    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.99])
    @pytest.mark.parametrize("seed,n", [(0, 10), (1, 23), (2, 40)])
    def test_epsilon_matches_brute_force(self, inputs, eps, seed, n):
        X = INPUTS[inputs](SeededRng(seed), n)
        g = epsilon_graph(X, eps)
        assert edge_set(g) == brute_force_epsilon_edges(X, eps)
        assert set(g.tags.tolist()) <= {EPSILON}

    @pytest.mark.parametrize("inputs", sorted(INPUTS))
    @pytest.mark.parametrize("seed,n_train,n_test,k", [(0, 12, 9, 3), (1, 20, 15, 1), (2, 25, 8, 25), (3, 12, 0, 2)])
    def test_attach_matches_brute_force(self, inputs, seed, n_train, n_test, k):
        rng = SeededRng(seed)
        X_train = INPUTS[inputs](rng, n_train)
        X_test = INPUTS[inputs](rng, n_test)
        train_graph = knn_graph_symmetric(X_train, 2)
        op = attach_test_items(AdjacencyPattern(train_graph).operator(), X_train, X_test, k)
        assert op.shape == (n_train + n_test, n_train + n_test)
        assert attach_edges(op, n_train) == brute_force_attach_edges(X_train, X_test, k)
        dense = op.toarray()
        assert np.array_equal(dense[:n_train, :n_train], coo_normalized_adjacency(train_graph).toarray())
        assert not dense[:n_train, n_train:].any()
        assert np.array_equal(dense[n_train:], dense_attachment_operator(train_graph, X_train, X_test, k)[n_train:])

    @pytest.mark.parametrize("inputs", sorted(INPUTS))
    @pytest.mark.parametrize("seed,n,k_label", [(0, 30, 3), (1, 40, 6), (2, 25, 30)])
    def test_augment_dedup_matches_set_oracle(self, inputs, seed, n, k_label):
        rng = SeededRng(seed)
        X = INPUTS[inputs](rng, n)
        Y = (rng.random((n, 3)) < 0.6).astype(np.int64)
        train = rng.random(n) < 0.8
        g = knn_graph_symmetric(X, 2)
        out = augment_label_edges(g, X, Y, 1, k_label, n, train, rng.substream("aug"))
        pos = np.flatnonzero(train & (Y[:, 1] == 1))
        kk = min(k_label, pos.size - 1)
        local = brute_force_knn_edges(X[pos], kk, floor=-np.inf)
        expect = {tuple(sorted((int(pos[a]), int(pos[b])))): "label-augment" for a, b in local}
        expect.update(tagged_edges(g))  # existing edges keep their tags
        assert tagged_edges(out) == expect

    def test_sparse_blocks_equal_dense_formula(self):
        rng = SeededRng(9)
        X_train, X_test = tie_heavy_features(rng, 30, 3), rng.normal(size=(11, 3))
        train_graph = knn_graph_symmetric(X_train, 4)
        op = attach_test_items(AdjacencyPattern(train_graph).operator(), X_train, X_test, 5)
        dense = dense_attachment_operator(train_graph, X_train, X_test, 5)
        assert op.format == "csr" and op.nnz == coo_normalized_adjacency(train_graph).nnz + 11 * (5 + 1)
        # the test rows exactly; the training block up to the oracle's own rounding
        np.testing.assert_allclose(op.toarray()[30:], dense[30:], rtol=0, atol=0)
        np.testing.assert_allclose(op.toarray(), dense, rtol=0, atol=1e-15)


def test_knn_build_memory_stays_below_one_dense_matrix():
    # one 3000 x 3000 float64 cosine matrix is 72 MB; the row-blocked
    # build must peak far below it
    X = SeededRng(3).normal(size=(3000, 16))
    g, peak = traced_peak(knn_graph_symmetric, X, 10)
    assert g.degrees().min() >= 10
    assert peak < 72e6 / 4


@pytest.mark.parametrize(
    "build",
    [lambda X: top_k_cosine(X, X, 5, floor=0.0, exclude_self=True), lambda X: epsilon_graph(X, 0.9)],
    ids=["top_k_cosine", "epsilon_graph"],
)
def test_score_loops_hold_one_block(build):
    # eight blocks of 256 x 2048 scores (4.2 MB each): a block is dropped
    # before the next block's matmul, so the peak is one block plus its
    # masks, not two blocks
    X = SeededRng(5).normal(size=(2048, 8))
    block = numerics.BLOCK_ROWS * 2048 * 8
    _, peak = traced_peak(build, X)
    assert peak < 1.6 * block, peak / block


def mixed_tie_block(rng, b, m):
    """Rows cycling through three kinds, so every row slice mixes them.

    Distinct values (tie-free, one -inf self entry), a few repeated
    values (surplus ties for most k), and one constant value (every
    column tied).
    """
    sims = np.empty((b, m))
    for r in range(b):
        kind = r % 3
        if kind == 0:
            sims[r] = rng.permutation(m) / m
            sims[r, r % m] = -np.inf
        elif kind == 1:
            sims[r] = rng.integers(-2, 3, size=m) / 2.0
        else:
            sims[r] = 0.25
    return sims


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_top_k_mixed_ties_match_sort_oracle(seed):
    # 37 rows span several row slices and a short last one; within each
    # slice some rows are tie-free and some hold surplus ties, so only a
    # part of the slice is re-marked
    m = 12
    sims = mixed_tie_block(SeededRng(seed), 37, m)
    for k in (1, 2, m - 1, m):
        kth = np.sort(sims, axis=1)[:, m - k, None]
        surplus = np.count_nonzero(sims >= kth, axis=1) > k
        if k < m:
            assert surplus.any() and not surplus.all()
        rows, cols = graph.row_top_k(sims, k)
        expect_rows, expect_cols = sorted_row_top_k(sims, k)
        assert np.array_equal(rows, expect_rows)
        assert np.array_equal(cols, expect_cols)


def test_row_top_k_makes_no_block_sized_copy():
    # one 256 x 4000 float64 block is 8.2 MB; selecting on a tie-free
    # block must not copy it whole (a whole-block np.partition would)
    sims = SeededRng(4).random((256, 4000))
    (rows, _), peak = traced_peak(graph.row_top_k, sims, 10)
    assert rows.size == 256 * 10
    assert peak < sims.nbytes / 2


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=5, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=31),
)
def test_knn_brute_force_property(seed, n, k, block_rows):
    if k >= n:
        k = n - 1
    rng = SeededRng(seed)
    X = rng.normal(size=(n, 4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "BLOCK_ROWS", block_rows)
        g = knn_graph_symmetric(X, k)
    assert edge_set(g) == brute_force_knn_edges(X, k)
    assert g.degrees().min() >= k


def shuffled_oracle_graph(rng, n, tagged) -> ItemGraph:
    """:func:`graph_from_pairs` over ``{(i, j): tag name}``, handed over in a
    random order with random pairs flipped to (j, i)."""
    edges = list(tagged.items())
    order = rng.permutation(len(edges))
    flip = rng.random(len(edges)) < 0.5
    pairs = [edges[e][0][::-1] if f else edges[e][0] for e, f in zip(order.tolist(), flip.tolist())]
    return graph_from_pairs(n, pairs, [TAGS.index(edges[e][1]) for e in order.tolist()])


def assert_same_graph(got, expect):
    assert got.n == expect.n
    assert got.pairs.dtype == expect.pairs.dtype == np.int64 and got.pairs.flags.c_contiguous
    assert got.tags.dtype == expect.tags.dtype == np.uint8
    assert np.array_equal(got.pairs, expect.pairs)
    assert np.array_equal(got.tags, expect.tags)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=3, max_value=30),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([0.0, 0.2, 0.5]),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(sorted(INPUTS)),
)
def test_builders_agree_with_the_oracle_canonicalizer(seed, n, k, eps, block_rows, inputs):
    # every builder hands its edges to from_keys in its own order; that
    # order must be the one the sorting oracle gives the same edge set,
    # with ε graphs spanning several row blocks
    rng = SeededRng(seed)
    X = INPUTS[inputs](rng, n)
    Y = (rng.random((n, 3)) < 0.6).astype(np.int64)
    train = rng.random(n) < 0.8
    k = min(k, n - 1)
    k_label = int(rng.integers(1, n))
    pos = np.flatnonzero(train & (Y[:, 0] == 1))
    fresh = {}
    if pos.size >= 2:
        local = brute_force_knn_edges(X[pos], min(k_label, pos.size - 1), floor=-np.inf)
        fresh = {tuple(sorted((int(pos[a]), int(pos[b])))): "label-augment" for a, b in local}
    expect_bases = {
        "knn": {e: "knn" for e in brute_force_knn_edges(X, k)},
        "epsilon": {e: "epsilon" for e in brute_force_epsilon_edges(X, eps)},
        "empty": {},
        "complete": {(i, j): "knn" for i in range(n) for j in range(i + 1, n)},
    }
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "BLOCK_ROWS", block_rows)
        bases = {
            "knn": knn_graph_symmetric(X, k),
            "epsilon": epsilon_graph(X, eps),
            "empty": epsilon_graph(X, 1.5),
            "complete": knn_graph_symmetric(X, n - 1),  # already holds every candidate edge
        }
        for name, base in bases.items():
            assert_same_graph(base, shuffled_oracle_graph(rng, n, expect_bases[name]))
            out = augment_label_edges(base, X, Y, 0, k_label, n, train, rng.substream("aug"))
            expect = {**fresh, **expect_bases[name]}  # existing edges keep their tags
            assert_same_graph(out, shuffled_oracle_graph(rng, n, expect))


def test_epsilon_build_cost_per_edge():
    # ε = 0 keeps about half of all pairs: 561 581 edges at n = 1500.  The
    # stored graph is 9 B per edge; the build may add its block keys (8 B),
    # the i < j check's quotient and remainder (16 B) and the score block,
    # but no re-sort of what it already emits in order
    X = SeededRng(5).normal(size=(1500, 8))
    g, peak = traced_peak(epsilon_graph, X, 0.0)
    assert g.m == 561_581
    assert peak / g.m < 40, peak / g.m


def test_graph_stores_one_key_and_tag_per_edge():
    # the graph keeps its int64 keys and one-byte tags, 9 B per edge, and
    # forms (i, j) pairs only when they are read
    X = SeededRng(5).normal(size=(1500, 8))
    g, held = traced_held(epsilon_graph, X, 0.0)
    assert held / g.m <= 10, held / g.m
    assert g.keys.dtype == np.int64 and g.tags.dtype == np.uint8


def test_cosine_similarity_matches_manual(rng):
    x = rng.normal(size=(5, 3))
    sims = cosine_similarity_matrix(x)
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    np.testing.assert_allclose(sims, xn @ xn.T, atol=1e-9)
    np.testing.assert_allclose(np.diag(sims), 1.0, atol=1e-9)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemi.graph import (
    ItemGraph,
    attach_test_items,
    attachment_blocks,
    augment_label_edges,
    edge_dropout,
    epsilon_graph,
    knn_graph_symmetric,
    normalize_adjacency,
)
from gemi.numerics import SeededRng, cosine_similarity_matrix


def brute_force_knn_edges(X, k, floor=0.0):
    """Reference construction: per-node top-k picks, symmetric union."""
    n = X.shape[0]
    sims = np.maximum(cosine_similarity_matrix(X), floor)
    edges = set()
    for i in range(n):
        # sort candidates by (similarity desc, index asc), skip self
        cand = sorted((j for j in range(n) if j != i), key=lambda j: (-sims[i, j], j))
        for j in cand[:k]:
            edges.add((min(i, j), max(i, j)))
    return edges


class TestItemGraph:
    def test_from_pairs_canonicalizes(self):
        g = ItemGraph.from_pairs(4, [[2, 0], [1, 3]], ["a", "b"])
        assert g.pairs.tolist() == [[0, 2], [1, 3]]
        assert list(g.tags) == ["a", "b"]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            ItemGraph.from_pairs(3, [[1, 1]], ["a"])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            ItemGraph.from_pairs(3, [[0, 1], [1, 0]], ["a", "b"])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ItemGraph.from_pairs(2, [[0, 2]], ["a"])

    def test_degrees(self):
        g = ItemGraph.from_pairs(4, [[0, 1], [0, 2], [0, 3]], ["a"] * 3)
        assert g.degrees().tolist() == [3, 1, 1, 1]

    def test_to_adjacency_symmetric_binary(self):
        g = ItemGraph.from_pairs(3, [[0, 1]], ["a"])
        dense = g.to_adjacency().to_dense()
        expect = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(dense, expect)


class TestKnnGraph:
    @pytest.mark.parametrize("seed,n,k", [(0, 12, 3), (1, 25, 4), (2, 9, 2)])
    def test_matches_brute_force(self, seed, n, k):
        rng = SeededRng(seed)
        X = rng.normal(size=(n, 5))
        g = knn_graph_symmetric(X, k)
        assert g.edge_set() == brute_force_knn_edges(X, k)

    def test_min_degree_at_least_k(self, rng):
        X = rng.normal(size=(30, 4))
        g = knn_graph_symmetric(X, 5)
        assert g.degrees().min() >= 5

    def test_all_edges_tagged_knn(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(10, 3)), 2)
        assert set(g.tags) == {"knn"}

    def test_tie_break_ascending_index(self):
        # three identical points: similarity ties everywhere; each picks
        # the lowest-indexed other node
        X = np.tile([[1.0, 0.0]], (4, 1))
        g = knn_graph_symmetric(X, 1)
        assert g.edge_set() == {(0, 1), (0, 2), (0, 3)}

    def test_similarity_floor_changes_ranking(self):
        # floor lifts all negatives to the same value, making rank ties
        # resolve by index instead of by raw similarity
        X = np.array([[1.0, 0.0], [-1.0, 0.01], [-1.0, -0.01], [0.9, 0.1]])
        g_raw = knn_graph_symmetric(X, 1)
        g_floored = knn_graph_symmetric(X, 1, similarity_floor=0.0)
        assert g_raw.edge_set() == brute_force_knn_edges(X, 1, floor=-np.inf)
        assert g_floored.edge_set() == brute_force_knn_edges(X, 1, floor=0.0)

    def test_node_subset_uses_local_indices(self, rng):
        X = rng.normal(size=(20, 4))
        subset = np.array([3, 7, 11, 15, 19])
        g = knn_graph_symmetric(X, 2, node_subset=subset)
        assert g.n == 5
        assert g.edge_set() == brute_force_knn_edges(X[subset], 2)

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
        assert g.edge_set() == expect

    def test_zero_epsilon_keeps_positive_only(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        g = epsilon_graph(X, 0.0)
        # orthogonal pair (0, 1) has similarity 0: no edge
        assert g.edge_set() == {(0, 2), (1, 2)}

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
        assert (out.tags == "label-augment").sum() == new

    def test_only_training_positives_touched(self, rng):
        X, Y, g, train = self._setup(rng)
        out = augment_label_edges(g, X, Y, 1, 3, 100, train, rng.substream("aug"))
        pos = set(np.flatnonzero(train & (Y[:, 1] == 1)).tolist())
        for (i, j), tag in zip(out.pairs.tolist(), out.tags):
            if tag == "label-augment":
                assert i in pos and j in pos

    def test_existing_edges_keep_tags(self, rng):
        X, Y, g, train = self._setup(rng)
        out = augment_label_edges(g, X, Y, 0, 3, 100, train, rng.substream("aug"))
        assert out.edge_set() >= g.edge_set()
        kept = {tuple(p) for p, t in zip(out.pairs.tolist(), out.tags) if t == "knn"}
        assert kept == g.edge_set()

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
        touched = {v for (i, j), t in zip(out.pairs.tolist(), out.tags) if t == "label-augment" for v in (i, j)}
        assert len(touched) <= 6

    def test_deterministic(self, rng):
        X, Y, g, train = self._setup(rng, n=30)
        Y[:, 0] = 1
        a = augment_label_edges(g, X, Y, 0, 3, 10, train, SeededRng(4))
        b = augment_label_edges(g, X, Y, 0, 3, 10, train, SeededRng(4))
        assert np.array_equal(a.pairs, b.pairs)


class TestEdgeDropout:
    def test_p_zero_identity(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(12, 3)), 2)
        out = edge_dropout(g, 0.0, rng.substream("d"))
        assert out.edge_set() == g.edge_set()

    def test_p_one_drops_all(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(12, 3)), 2)
        out = edge_dropout(g, 1.0, rng.substream("d"))
        assert out.m == 0

    def test_exempt_tags_survive(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(12, 3)), 2)
        tags = g.tags.copy()
        tags[:3] = "label-augment"
        g = ItemGraph(n=g.n, pairs=g.pairs, tags=tags)
        out = edge_dropout(g, 1.0, rng.substream("d"), exempt_tags=("label-augment",))
        assert out.m == 3
        assert set(out.tags) == {"label-augment"}

    def test_exemption_does_not_shift_other_draws(self, rng):
        # the same seed must keep/drop each non-exempt edge identically
        # whether or not some other edges are exempt
        g = knn_graph_symmetric(rng.normal(size=(15, 3)), 3)
        tags = g.tags.copy()
        tags[:4] = "label-augment"
        g2 = ItemGraph(n=g.n, pairs=g.pairs, tags=tags)
        out_plain = edge_dropout(g, 0.5, SeededRng(12))
        out_exempt = edge_dropout(g2, 0.5, SeededRng(12), exempt_tags=("label-augment",))
        plain_kept = out_plain.edge_set()
        for (i, j), tag in zip(g2.pairs.tolist(), g2.tags):
            if tag != "label-augment":
                assert ((i, j) in out_exempt.edge_set()) == ((i, j) in plain_kept)

    def test_expected_keep_rate(self):
        g = ItemGraph.from_pairs(
            200, np.column_stack([np.arange(100), np.arange(100, 200)]), ["knn"] * 100
        )
        kept = edge_dropout(g, 0.3, SeededRng(5)).m
        assert 55 <= kept <= 85  # ~Binomial(100, 0.7)


class TestNormalizeAdjacency:
    def test_matches_dense_formula(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(14, 4)), 3)
        a = g.to_adjacency().to_dense() + np.eye(14)
        dhat = a.sum(axis=1)
        expect = a / np.sqrt(np.outer(dhat, dhat))
        np.testing.assert_allclose(normalize_adjacency(g).to_dense(), expect, atol=1e-14)

    def test_isolated_node_self_entry(self):
        g = ItemGraph.from_pairs(3, [[0, 1]], ["knn"])
        dense = normalize_adjacency(g).to_dense()
        assert dense[2, 2] == 1.0

    def test_spectrum_bounded_by_one(self, rng):
        g = knn_graph_symmetric(rng.normal(size=(20, 4)), 4)
        dense = normalize_adjacency(g).to_dense()
        assert np.all(dense >= 0)
        assert np.array_equal(dense, dense.T)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.max() <= 1.0 + 1e-9
        assert eigs.min() >= -1.0 - 1e-9


class TestAttachment:
    def _graphs(self, rng, n_train=15, n_test=4, k=3):
        X_train = rng.normal(size=(n_train, 5))
        X_test = rng.normal(size=(n_test, 5))
        train_graph = knn_graph_symmetric(X_train, k)
        extended = attach_test_items(train_graph, X_train, X_test, k)
        return X_train, X_test, train_graph, extended

    def test_no_test_test_edges(self, rng):
        _, _, train_graph, extended = self._graphs(rng)
        n_train = train_graph.n
        for i, j in extended.pairs.tolist():
            assert not (i >= n_train and j >= n_train)

    def test_attachment_edges_tagged_and_counted(self, rng):
        _, _, train_graph, extended = self._graphs(rng, n_test=4, k=3)
        attach = extended.pairs[extended.tags == "attachment"]
        assert attach.shape[0] == 4 * 3
        assert (attach[:, 1] >= train_graph.n).all()

    def test_train_side_untouched(self, rng):
        _, _, train_graph, extended = self._graphs(rng)
        kept = {
            tuple(p)
            for p, t in zip(extended.pairs.tolist(), extended.tags)
            if t != "attachment"
        }
        assert kept == train_graph.edge_set()

    def test_each_test_node_links_topk_trains(self, rng):
        X_train, X_test, train_graph, extended = self._graphs(rng, k=3)
        n_train = train_graph.n
        Xtr = X_train / np.linalg.norm(X_train, axis=1, keepdims=True)
        Xte = X_test / np.linalg.norm(X_test, axis=1, keepdims=True)
        sims = Xte @ Xtr.T
        for t in range(X_test.shape[0]):
            expect = set(sorted(range(n_train), key=lambda j: (-sims[t, j], j))[:3])
            got = {
                i
                for (i, j), tag in zip(extended.pairs.tolist(), extended.tags)
                if tag == "attachment" and j == n_train + t
            }
            assert got == expect

    def test_k_too_large_errors(self, rng):
        X_train = rng.normal(size=(4, 3))
        g = knn_graph_symmetric(X_train, 2)
        with pytest.raises(ValueError):
            attach_test_items(g, X_train, rng.normal(size=(2, 3)), 5)

    def test_blocks_formula(self, rng):
        _, _, train_graph, extended = self._graphs(rng, n_train=12, n_test=3, k=2)
        B, s = attachment_blocks(extended, train_graph)
        dh_train = train_graph.degrees() + 1.0
        n_train = train_graph.n
        for t in range(3):
            linked = [
                i
                for (i, j), tag in zip(extended.pairs.tolist(), extended.tags)
                if tag == "attachment" and j == n_train + t
            ]
            dh_t = len(linked) + 1.0
            assert s[t] == 1.0 / dh_t
            for i in range(n_train):
                if i in linked:
                    assert B[t, i] == 1.0 / np.sqrt(dh_t * dh_train[i])
                else:
                    assert B[t, i] == 0.0


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=5, max_value=30),
    st.integers(min_value=1, max_value=4),
)
def test_knn_brute_force_property(seed, n, k):
    if k >= n:
        k = n - 1
    rng = SeededRng(seed)
    X = rng.normal(size=(n, 4))
    g = knn_graph_symmetric(X, k)
    assert g.edge_set() == brute_force_knn_edges(X, k)
    assert g.degrees().min() >= k

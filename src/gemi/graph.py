"""Latent item-graph construction and structural transforms.

Graphs are undirected and self-loop-free; each undirected edge carries a
provenance tag (``knn``, ``epsilon``, ``label-augment``, ``attachment``)
so augmentation and attachment edges stay distinguishable from the base
similarity structure.  Self-loops enter only through
:func:`normalize_adjacency`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    SeededRng,
    SparseAdjacency,
    as_matrix,
    cosine_similarity_matrix,
    l2_normalize_rows,
    matmul,
)

EDGE_TAGS = ("knn", "epsilon", "label-augment", "attachment")


@dataclass(frozen=True)
class ItemGraph:
    """Undirected graph over item nodes with per-edge provenance tags.

    ``pairs`` holds one row (i, j) with i < j per undirected edge,
    sorted lexicographically and duplicate-free; ``tags`` aligns with
    ``pairs``.
    """

    n: int
    pairs: np.ndarray  # (m, 2) int64, i < j
    tags: np.ndarray  # (m,) str

    @staticmethod
    def from_pairs(n: int, pairs, tags) -> "ItemGraph":
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        tags = np.asarray(tags, dtype=object).reshape(-1)
        if pairs.shape[0] != tags.shape[0]:
            raise ValueError("pairs and tags must align")
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise ValueError("self-loops are not stored")
            lo = pairs.min(axis=1)
            hi = pairs.max(axis=1)
            pairs = np.column_stack([lo, hi])
            order = np.lexsort((pairs[:, 1], pairs[:, 0]))
            pairs, tags = pairs[order], tags[order]
            dup = (np.diff(pairs[:, 0]) == 0) & (np.diff(pairs[:, 1]) == 0)
            if np.any(dup):
                raise ValueError("duplicate edges")
        return ItemGraph(n=n, pairs=pairs, tags=tags)

    @property
    def m(self) -> int:
        return int(self.pairs.shape[0])

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        if self.m:
            np.add.at(deg, self.pairs[:, 0], 1)
            np.add.at(deg, self.pairs[:, 1], 1)
        return deg

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(i), int(j)) for i, j in self.pairs}

    def to_adjacency(self) -> SparseAdjacency:
        """Binary symmetric adjacency (weight 1 per direction)."""
        if self.m == 0:
            return SparseAdjacency.from_entries(self.n, [], [], [], validate=False)
        rows = np.concatenate([self.pairs[:, 0], self.pairs[:, 1]])
        cols = np.concatenate([self.pairs[:, 1], self.pairs[:, 0]])
        ones = np.ones(rows.size, dtype=np.float64)
        return SparseAdjacency.from_entries(self.n, rows, cols, ones, validate=False)


def _top_k_rows(sims: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k largest entries, ties by ascending index."""
    n_cols = sims.shape[1]
    cols = np.arange(n_cols)
    out = np.empty((sims.shape[0], k), dtype=np.int64)
    for i in range(sims.shape[0]):
        order = np.lexsort((cols, -sims[i]))
        out[i] = order[:k]
    return out


def knn_graph_symmetric(
    X, k: int, similarity_floor: float = 0.0, node_subset=None
) -> ItemGraph:
    """Symmetric k-nearest-neighbor graph on cosine similarity.

    Each node links to its top-k most similar distinct nodes (after
    clamping similarities up to ``similarity_floor``); the union of
    directed picks closes symmetrically, so every node ends with degree
    at least k.  Rank ties break by ascending node index.  With
    ``node_subset`` the graph is built over those rows only, with local
    indices following the subset order.
    """
    X = as_matrix(X)
    if node_subset is not None:
        X = X[np.asarray(node_subset, dtype=np.int64)]
    n = X.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the node count {n}")
    sims = np.maximum(cosine_similarity_matrix(X), similarity_floor)
    np.fill_diagonal(sims, -np.inf)
    picks = _top_k_rows(sims, k)
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = picks.reshape(-1)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    pairs = np.unique(np.column_stack([lo, hi]), axis=0)
    return ItemGraph.from_pairs(n, pairs, np.full(pairs.shape[0], "knn", dtype=object))


def epsilon_graph(X, epsilon: float) -> ItemGraph:
    """Threshold graph: keep pairs whose suppressed similarity clears ε.

    Negative similarities are suppressed to 0 first; an edge requires
    suppressed similarity ≥ ε and > 0, so ε = 0 keeps exactly the pairs
    with strictly positive similarity.
    """
    X = as_matrix(X)
    sims = np.maximum(cosine_similarity_matrix(X), 0.0)
    keep = (sims >= epsilon) & (sims > 0.0)
    iu, ju = np.triu_indices(X.shape[0], k=1)
    mask = keep[iu, ju]
    pairs = np.column_stack([iu[mask], ju[mask]])
    return ItemGraph.from_pairs(
        X.shape[0], pairs, np.full(pairs.shape[0], "epsilon", dtype=object)
    )


def augment_label_edges(
    g: ItemGraph,
    X,
    Y,
    label: int,
    k_label: int,
    max_nodes: int,
    train_mask,
    rng: SeededRng,
) -> ItemGraph:
    """Densify connectivity among training nodes positive for one label.

    The positive set is randomly subsampled to ``max_nodes`` if larger;
    within the subsample each node links to its top-``k_label`` most
    cosine-similar positives.  New edges are tagged ``label-augment``;
    existing edges keep their tags.  Fewer than two positives leave the
    graph unchanged.
    """
    if k_label < 1:
        raise ValueError("k_label must be at least 1")
    Y = np.asarray(Y)
    train_mask = np.asarray(train_mask, dtype=bool)
    pos = np.flatnonzero(train_mask & (Y[:, label] == 1))
    if pos.size < 2:
        return g
    if pos.size > max_nodes:
        pos = np.sort(rng.choice(pos, size=max_nodes, replace=False))
    X = as_matrix(X)
    sims = cosine_similarity_matrix(X[pos])
    np.fill_diagonal(sims, -np.inf)
    kk = min(k_label, pos.size - 1)
    picks = _top_k_rows(sims, kk)
    src = np.repeat(pos, kk)
    dst = pos[picks.reshape(-1)]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    new_pairs = np.unique(np.column_stack([lo, hi]), axis=0)
    existing = g.edge_set()
    fresh = np.array(
        [row for row in new_pairs if (int(row[0]), int(row[1])) not in existing],
        dtype=np.int64,
    ).reshape(-1, 2)
    pairs = np.concatenate([g.pairs, fresh])
    tags = np.concatenate([g.tags, np.full(fresh.shape[0], "label-augment", dtype=object)])
    return ItemGraph.from_pairs(g.n, pairs, tags)


def edge_dropout(g: ItemGraph, p_e: float, rng: SeededRng, exempt_tags=()) -> ItemGraph:
    """Drop each undirected edge with probability p_e (one draw per edge).

    Both directions of an edge share the draw, so symmetry is preserved
    for every seed.  Edges whose tag is in ``exempt_tags`` are always
    kept; their draws are still consumed, so toggling the exemption
    never shifts the stream seen by other edges.
    """
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must be in [0, 1]")
    draws = rng.random(g.m)
    keep = draws < (1.0 - p_e)
    if exempt_tags:
        keep |= np.isin(g.tags, list(exempt_tags))
    return ItemGraph(n=g.n, pairs=g.pairs[keep], tags=g.tags[keep])


def normalize_adjacency(g: ItemGraph) -> SparseAdjacency:
    """Symmetric normalization with self-loops.

    Returns D^{-1/2} (A + I) D^{-1/2} where D is the degree matrix of
    A + I; an isolated node keeps the entry 1 from its self-loop.
    """
    dhat = g.degrees() + 1.0
    inv_sqrt = 1.0 / np.sqrt(dhat)
    i, j = g.pairs[:, 0], g.pairs[:, 1]
    w = inv_sqrt[i] * inv_sqrt[j]
    rows = np.concatenate([i, j, np.arange(g.n, dtype=np.int64)])
    cols = np.concatenate([j, i, np.arange(g.n, dtype=np.int64)])
    weights = np.concatenate([w, w, 1.0 / dhat])
    return SparseAdjacency.from_entries(g.n, rows, cols, weights, validate=False)


def attach_test_items(train_graph: ItemGraph, X_train, X_test, k: int) -> ItemGraph:
    """Extend a training graph with unseen items.

    Nodes 0..n_train-1 keep the training structure unchanged; test item
    t becomes node n_train + t with edges to its top-k most similar
    training nodes only (ties by ascending training index).  Test-test
    edges never exist, so unseen items cannot influence each other.
    """
    X_train = as_matrix(X_train)
    X_test = as_matrix(X_test)
    n_train = X_train.shape[0]
    if n_train != train_graph.n:
        raise ValueError("train_graph and X_train disagree on node count")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n_train:
        raise ValueError(f"k={k} exceeds the training count {n_train}")
    sims = matmul(
        l2_normalize_rows(X_test), np.ascontiguousarray(l2_normalize_rows(X_train).T)
    )
    picks = _top_k_rows(sims, k)
    n_test = X_test.shape[0]
    src = n_train + np.repeat(np.arange(n_test, dtype=np.int64), k)
    dst = picks.reshape(-1)
    pairs = np.concatenate([train_graph.pairs, np.column_stack([dst, src])])
    tags = np.concatenate(
        [train_graph.tags, np.full(src.size, "attachment", dtype=object)]
    )
    return ItemGraph.from_pairs(n_train + n_test, pairs, tags)


def attachment_blocks(
    extended: ItemGraph, train_graph: ItemGraph
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized read-only weights for attached test nodes.

    Returns (B, s) where row i of B holds test node i's normalized
    weights onto training nodes, and s[i] is its self-loop weight.
    Messages flow train → test only: a test node aggregates training
    representations with weight 1/sqrt(dh_i · dh_t) (dh = degree + 1,
    training degrees taken from the unextended graph) plus its own
    features with weight 1/dh_i, and the training side is untouched.
    This keeps every test prediction independent of all other test
    items.
    """
    n_train = train_graph.n
    n_test = extended.n - n_train
    attach = extended.pairs[extended.tags == "attachment"]
    deg_test = np.zeros(n_test, dtype=np.int64)
    np.add.at(deg_test, attach[:, 1] - n_train, 1)
    dh_test = deg_test + 1.0
    dh_train = train_graph.degrees() + 1.0
    B = np.zeros((n_test, n_train), dtype=np.float64)
    ti = attach[:, 1] - n_train
    tr = attach[:, 0]
    B[ti, tr] = 1.0 / np.sqrt(dh_test[ti] * dh_train[tr])
    return B, 1.0 / dh_test

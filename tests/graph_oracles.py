"""Brute-force graph oracles for the graph tests and acceptance gate 04.

Each oracle spells its rule out over the full similarity matrix with a
Python sort per row, independent of the row-blocked builders in
``gemi.graph``; the normalized adjacency is filled densely from the
edge list, or assembled by scipy from COO triplets, both independent of
the CSR entry selection of ``AdjacencyPattern``, which builds every
operator of a run and whose clean operator ``attach_test_items``
extends.
"""

import numpy as np

from gemi.graph import TAGS, ItemGraph
from gemi.numerics import EPS_NORM, l2_normalize_rows, matmul


def graph_from_pairs(n, pairs, tags) -> ItemGraph:
    """The graph of (i, j) pairs in any order and orientation, tags following their pairs.

    Each pair becomes (min, max) and the edges are sorted by key
    min·n + max; a self-loop or an edge given twice raises ValueError.
    Ends in :meth:`ItemGraph.from_keys`, which checks the tags.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    tags = np.asarray(tags).reshape(-1)
    if pairs.shape[0] != tags.shape[0]:
        raise ValueError("pairs and tags must align")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("edge endpoint out of range")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("self-loops are not stored")
    keys = pairs.min(axis=1) * n + pairs.max(axis=1)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if np.any(np.diff(keys) == 0):
        raise ValueError("duplicate edges")
    return ItemGraph.from_keys(n, keys, tags[order])


def cosine_similarity_matrix(x, eps: float = EPS_NORM) -> np.ndarray:
    """Pairwise cosine similarities; symmetric, unit diagonal for nonzero rows."""
    xn = l2_normalize_rows(x, eps)
    return matmul(xn, np.ascontiguousarray(xn.T))


def dense_normalized_adjacency(g) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} as a dense n × n matrix, from ``g.pairs``."""
    a = np.eye(g.n)
    for i, j in g.pairs:
        a[i, j] = a[j, i] = 1.0
    dhat = a.sum(axis=1)
    return a / np.sqrt(np.outer(dhat, dhat))


def coo_normalized_adjacency(g, keep=None):
    """D^{-1/2} (A + I) D^{-1/2} of the kept edges, converted by scipy from COO.

    Each kept edge (i, j) puts 1/sqrt(dh_i) · 1/sqrt(dh_j) on (i, j) and
    (j, i), each node 1/dh on its diagonal, dh = kept degree + 1; scipy
    sorts the triplets into canonical CSR.  ``keep`` is a bool mask over
    ``g.pairs`` (``None`` keeps every edge).
    """
    from scipy.sparse import csr_array

    pairs = g.pairs if keep is None else g.pairs[keep]
    dhat = np.bincount(pairs.ravel(), minlength=g.n) + 1.0
    inv_sqrt = 1.0 / np.sqrt(dhat)
    i, j = pairs[:, 0], pairs[:, 1]
    w = inv_sqrt[i] * inv_sqrt[j]
    nodes = np.arange(g.n)
    rows = np.concatenate([i, j, nodes])
    cols = np.concatenate([j, i, nodes])
    return csr_array((np.concatenate([w, w, 1.0 / dhat]), (rows, cols)), shape=(g.n, g.n))


def edge_set(g) -> set[tuple[int, int]]:
    """The graph's undirected edges as (i, j) tuples with i < j."""
    return {(int(i), int(j)) for i, j in g.pairs}


def tagged_edges(g) -> dict[tuple[int, int], str]:
    """The graph's edges mapped to their tag names (codes read through ``TAGS``)."""
    return {(int(i), int(j)): TAGS[t] for (i, j), t in zip(g.pairs.tolist(), g.tags.tolist())}


def ranked(sims_row, candidates, k) -> list[int]:
    """The first k candidates by (similarity descending, index ascending)."""
    return sorted(candidates, key=lambda j: (-sims_row[j], j))[:k]


def sorted_row_top_k(sims, k) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of each row's :func:`ranked` first k columns, ascending per row."""
    cols = [sorted(ranked(row, range(len(row)), k)) for row in sims]
    return np.repeat(np.arange(len(cols)), k), np.array(cols, dtype=np.int64).ravel()


def brute_force_knn_edges(X, k, floor=0.0) -> set[tuple[int, int]]:
    """Reference construction: per-node top-k picks, symmetric union."""
    n = X.shape[0]
    sims = np.maximum(cosine_similarity_matrix(X), floor)
    edges = set()
    for i in range(n):
        for j in ranked(sims[i], (j for j in range(n) if j != i), k):
            edges.add((min(i, j), max(i, j)))
    return edges


def brute_force_epsilon_edges(X, eps) -> set[tuple[int, int]]:
    n = X.shape[0]
    sims = np.maximum(cosine_similarity_matrix(X), 0.0)
    return {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if sims[i, j] >= eps and sims[i, j] > 0.0
    }


def brute_force_attach_edges(X_train, X_test, k) -> set[tuple[int, int]]:
    """(train node, n_train + t) for each test row t's top-k training rows."""
    n_train = X_train.shape[0]
    sims = l2_normalize_rows(X_test) @ l2_normalize_rows(X_train).T
    return {
        (j, n_train + t)
        for t in range(X_test.shape[0])
        for j in ranked(sims[t], range(n_train), k)
    }


def dense_attachment_operator(train_graph, X_train, X_test, k) -> np.ndarray:
    """The inductive operator filled densely from the edge lists.

    The training block is :func:`dense_normalized_adjacency` of
    ``train_graph``.  Test row n_train + t holds 1/sqrt((k + 1) · dh_j) on
    each of its :func:`brute_force_attach_edges` neighbours j (dh = degree
    + 1 in ``train_graph``) and 1/(k + 1) on its own diagonal; every other
    entry of the test rows and columns is 0.
    """
    n_train, n_test = X_train.shape[0], X_test.shape[0]
    dh = np.ones(n_train)
    for i, j in train_graph.pairs:
        dh[i] += 1.0
        dh[j] += 1.0
    A = np.zeros((n_train + n_test, n_train + n_test))
    A[:n_train, :n_train] = dense_normalized_adjacency(train_graph)
    for j, v in brute_force_attach_edges(X_train, X_test, k):
        A[v, j] = 1.0 / np.sqrt((k + 1.0) * dh[j])
    A[n_train:, n_train:] = np.eye(n_test) / (k + 1.0)
    return A


def attach_edges(op, n_train) -> set[tuple[int, int]]:
    """(train node, test row) per off-diagonal entry of an operator's test rows.

    The form of :func:`brute_force_attach_edges`; test columns off the
    diagonal are kept too, so a test-test entry shows as a mismatch.
    """
    edges = set()
    for v in range(n_train, op.shape[0]):
        for j in op.indices[op.indptr[v] : op.indptr[v + 1]].tolist():
            if j != v:
                edges.add((j, v))
    return edges

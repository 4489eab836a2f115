"""Latent item-graph construction and structural transforms.

Graphs are undirected and self-loop-free; each undirected edge carries a
provenance tag (``knn``, ``epsilon``, ``label-augment``) so augmentation
edges stay distinguishable from the base similarity structure.  A tag is
stored as its one-byte index into :data:`TAGS`, so an edge costs 17
bytes: its (i, j) int64 pair and its tag code.  Every builder emits its
edges as strictly increasing keys i·n + j (i < j), and the one
constructor, :meth:`ItemGraph.from_keys`, checks that order, not sorts.
Self-loops enter only through the operators.  The normalized operator
has one builder, :class:`AdjacencyPattern`, which lays out the CSR
entries of A + I once per graph; training builds one per run, selects
each epoch's operator from it by the keep mask that :func:`edge_dropout`
returns, and keeps its clean (all-kept) operator.  The one-way inductive
operator of :func:`attach_test_items` extends that clean operator.

Cosine ranking has one owner, :func:`top_k_cosine`, which the graph
builders and evaluation's recommendations share.  It takes raw rows and
never holds the full cosine matrix: it scores one
:func:`gemi.numerics.block_map` block of BLOCK_ROWS query rows at a
time, normalizing the reference rows once and each query block as it
scores it, so the work space is one block, BLOCK_ROWS · n floats.
A per-row top-k keeps every entry above the row's k-th largest value,
then the lowest column indices among the entries equal to it, which is
the order (similarity descending, index ascending) cut after k;
:func:`row_top_k` is that rule.  It partitions :data:`SELECT_ROWS` rows
at a time for their k-th values and marks ``sims >= kth`` in one mask
of the block.  A tie-free row marks exactly k entries; only the rows
with surplus ties at the k-th value are re-marked, keeping the lowest
columns.  Its work space beyond that mask is O(SELECT_ROWS · n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng, as_matrix, block_map, l2_normalize_rows, matmul

# Rows that row_top_k partitions at once.  Its time was flat from 8 to 32
# rows at 1 200 to 40 000 columns (2 vCPU, one BLAS thread); partitioning
# all 256 rows of a block at once was 35% slower at 40 000 columns.
SELECT_ROWS = 8

# Edge provenance names; ItemGraph.tags holds each edge's index into this.
TAGS = ("knn", "epsilon", "label-augment")


@dataclass(frozen=True)
class ItemGraph:
    """Undirected graph over item nodes with per-edge provenance tags.

    ``pairs`` holds one row (i, j) with i < j per undirected edge,
    sorted lexicographically and duplicate-free; ``tags`` aligns with
    ``pairs`` and holds each edge's index into :data:`TAGS`.
    """

    n: int
    pairs: np.ndarray  # (m, 2) int64, i < j
    tags: np.ndarray  # (m,) uint8 index into TAGS

    @staticmethod
    def from_keys(n: int, keys, tags) -> "ItemGraph":
        """The graph of the edges keyed i·n + j (i < j), keys strictly increasing.

        Nothing is sorted: keys out of [0, n²), out of order, repeated or
        with i >= j raise ValueError, as do tags that are not codes.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        tags = np.asarray(tags).reshape(-1)
        if keys.shape != tags.shape:
            raise ValueError("keys and tags must align")
        if tags.size and (tags.dtype.kind not in "iu" or tags.min() < 0 or tags.max() >= len(TAGS)):
            raise ValueError(f"tags must be integer codes below {len(TAGS)} (indices into TAGS)")
        pairs = np.empty((keys.size, 2), dtype=np.int64)
        if keys.size:
            # n² fits in int64 for any n < 3·10⁹
            if keys[0] < 0 or keys[-1] >= n * n:
                raise ValueError("edge key out of range [0, n²)")
            if not np.all(keys[1:] > keys[:-1]):
                raise ValueError("edge keys must be strictly increasing (sorted, no duplicate edges)")
            np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
            if not np.all(pairs[:, 0] < pairs[:, 1]):
                raise ValueError("an edge key i·n + j needs i < j (no self-loops, no flipped pairs)")
        return ItemGraph(n=n, pairs=pairs, tags=tags.astype(np.uint8, copy=False))

    @property
    def m(self) -> int:
        return int(self.pairs.shape[0])

    def degrees(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.n)


def graph_summary(g: ItemGraph) -> dict:
    """What the training graph is: n, edges per provenance tag, degree
    min/median/max and the isolated node count."""
    deg = g.degrees()
    return {
        "n": g.n,
        "edges": {
            name: int(count) for name, count in zip(TAGS, np.bincount(g.tags, minlength=len(TAGS))) if count
        },
        "degree": {"min": int(deg.min()), "median": float(np.median(deg)), "max": int(deg.max())},
        "isolated": int(np.count_nonzero(deg == 0)),
    }


def _cosine_scorer(Q, R: np.ndarray):
    """score(start, stop): the cosine similarities of Q[start:stop] with R's rows.

    R is normalized once and each Q block as it is scored; rows normalize
    independently, so a block holds the bits of the fully normalized rows.
    """
    Rt = np.ascontiguousarray(l2_normalize_rows(R).T)
    return lambda start, stop: matmul(l2_normalize_rows(Q[start:stop]), Rt)


def row_top_k(sims: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k largest entries of ``sims``, ties to the lowest columns.

    Keeps every entry above the row's k-th largest value, then the lowest
    column indices among the entries equal to it: the order (value
    descending, column ascending) cut after k.  Requires 1 <= k <= the
    column count.  Returns (rows, cols) in row-major order, exactly k
    entries per row.

    Works on :data:`SELECT_ROWS` rows at a time.  A slice's k-th values
    come from a partitioned copy of the slice, and ``keep = sims >= kth``
    is written into one boolean mask of the block.  On a tie-free row
    that mask holds exactly k entries.  Only rows holding more (surplus
    ties at the k-th value) are rebuilt: every entry above the k-th
    value, then the first ``need`` equal ones by a running count.  The
    work space is the mask plus O(SELECT_ROWS · columns); no block-sized
    copy is made, and the picks come from one flat ``flatnonzero``.
    """
    b, m = sims.shape
    keep = np.empty((b, m), dtype=bool)
    for s in range(0, b, SELECT_ROWS):
        part = sims[s : s + SELECT_ROWS]
        kth = np.partition(part, m - k, axis=1)[:, m - k, None]
        mask = keep[s : s + SELECT_ROWS]
        np.greater_equal(part, kth, out=mask)
        over = np.flatnonzero(np.count_nonzero(mask, axis=1) > k)
        if over.size:
            tied, t = part[over], kth[over]
            above = tied > t
            eq = tied == t
            need = k - np.count_nonzero(above, axis=1)
            mask[over] = above | (eq & (np.cumsum(eq, axis=1) <= need[:, None]))
    return np.divmod(np.flatnonzero(keep), m)


def top_k_cosine(
    Q, R: np.ndarray, k: int, floor: float | None = None, exclude_self: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Each row of Q's k most cosine-similar rows of R, one row block at a time.

    Q and R are raw row arrays; the scorer normalizes both.
    Similarities are clamped up to ``floor`` when given; ``exclude_self``
    (Q and R the same rows) sets each row's own column to -inf.  Ties at
    the k-th value go to the lowest row indices of R (:func:`row_top_k`),
    which requires 1 <= k <= R's row count.  Returns (rows, cols) with
    exactly k entries per row, row-major; the work space is one
    :func:`gemi.numerics.block_map` block of BLOCK_ROWS · R rows scores.
    """
    score = _cosine_scorer(Q, R)

    def select(start, stop):
        sims = score(start, stop)
        if floor is not None:
            np.maximum(sims, floor, out=sims)
        if exclude_self:
            sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        r, c = row_top_k(sims, k)
        return start + r, c

    empty = np.empty(0, dtype=np.int64)
    rows, cols = zip((empty, empty), *block_map(select, len(Q)))
    return np.concatenate(rows), np.concatenate(cols)


def _unique_pair_keys(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Sorted, duplicate-free keys min·n + max of the undirected pairs (a, b)."""
    # sort and an adjacent-difference mask, not np.unique, whose hash path
    # took 53 ms against 4 ms on the 144 000 keys of a 4 800-node kNN build
    keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    return keys[np.diff(keys, prepend=-1) != 0]


def knn_graph_symmetric(X, k: int, similarity_floor: float = 0.0) -> ItemGraph:
    """Symmetric k-nearest-neighbor graph on cosine similarity.

    Each node links to its top-k most similar distinct nodes (after
    clamping similarities up to ``similarity_floor``); the union of
    directed picks closes symmetrically, so every node ends with degree
    at least k.  Rank ties break by ascending node index: a node takes
    every neighbor above its k-th largest similarity, then the lowest
    indices among those equal to it.  Similarities are scored in row
    blocks (:func:`top_k_cosine`), so memory is O(BLOCK_ROWS · n) plus
    the O(n·k) edges.
    """
    X = as_matrix(X)
    n = X.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the node count {n}")
    src, dst = top_k_cosine(X, X, k, floor=similarity_floor, exclude_self=True)
    keys = _unique_pair_keys(src, dst, n)
    return ItemGraph.from_keys(n, keys, np.full(keys.size, TAGS.index("knn"), dtype=np.uint8))


def epsilon_graph(X, epsilon: float) -> ItemGraph:
    """Threshold graph: keep pairs whose suppressed similarity clears ε.

    Negative similarities are suppressed to 0 first; an edge requires
    suppressed similarity ≥ ε and > 0, so ε = 0 keeps exactly the pairs
    with strictly positive similarity.  Similarities are scored in row
    blocks, one BLOCK_ROWS · n block alive at a time; the edges
    themselves can number O(n²) for a small ε.
    """
    X = as_matrix(X)
    n = X.shape[0]
    score = _cosine_scorer(X, X)

    def threshold(start, stop):
        sims = score(start, stop)
        np.maximum(sims, 0.0, out=sims)  # in place: a copy would hold two blocks
        # keep j > i only: block row r is global row start + r, so the flat
        # index r·n + j of the block is the edge key minus start·n
        keep = np.triu((sims >= epsilon) & (sims > 0.0), k=start + 1)
        return start * n + np.flatnonzero(keep)

    keys = np.concatenate([np.empty(0, dtype=np.int64), *block_map(threshold, n)])
    return ItemGraph.from_keys(n, keys, np.full(keys.size, TAGS.index("epsilon"), dtype=np.uint8))


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
    cosine-similar positives (ties by ascending index, as in
    :func:`knn_graph_symmetric`, scored in row blocks).  New edges are
    tagged ``label-augment``; existing edges keep their tags.  Fewer than
    two positives leave the graph unchanged.
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
    Xp = as_matrix(X)[pos]
    src, dst = top_k_cosine(Xp, Xp, min(k_label, pos.size - 1), exclude_self=True)
    new_keys = _unique_pair_keys(pos[src], pos[dst], g.n)
    # g's keys are sorted already; merge the fresh keys in at their places
    keys = g.pairs[:, 0] * g.n + g.pairs[:, 1]
    at = np.searchsorted(keys, new_keys)
    fresh = np.searchsorted(keys, new_keys, side="right") == at
    keys = np.insert(keys, at[fresh], new_keys[fresh])
    tags = np.insert(g.tags, at[fresh], TAGS.index("label-augment"))
    return ItemGraph.from_keys(g.n, keys, tags)


def edge_dropout(g: ItemGraph, p_e: float, rng: SeededRng, exempt=None) -> np.ndarray:
    """The keep mask over ``g.pairs``: each edge dropped with probability p_e.

    One draw per undirected edge, so both directions share it and the
    kept graph stays symmetric for every seed.  ``exempt`` is a bool mask
    over ``g.pairs`` (built once per run, e.g. from the tags) of edges
    always kept; their draws are still consumed, so toggling the
    exemption never shifts the stream seen by other edges.
    """
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must be in [0, 1]")
    keep = rng.random(g.m) < (1.0 - p_e)
    if exempt is not None:
        keep |= exempt
    return keep


class AdjacencyPattern:
    """The entries of A + I in canonical CSR order, built once per graph.

    Entries are sorted by row, then column; each carries the id of its
    undirected edge (its row in ``g.pairs``), and the diagonal the id
    ``m``.  :meth:`operator` then normalizes any edge subset by selecting
    entries and recomputing their weights, with no COO build or index
    sort, so training builds this once per run and each epoch's
    operator from its edge-dropout keep mask.  Indices are int32
    whenever the entry count allows, so the pattern holds 8 bytes per
    entry and each operator 12.
    """

    def __init__(self, g: ItemGraph):
        n, m = g.n, g.m
        i, j = g.pairs[:, 0], g.pairs[:, 1]
        nodes = np.arange(n, dtype=np.int64)
        rows = np.concatenate([i, j, nodes])
        cols = np.concatenate([j, i, nodes])
        order = np.argsort(rows * n + cols)  # keys are distinct: canonical order
        index = np.int32 if 2 * m + n <= np.iinfo(np.int32).max else np.int64
        self.n = n
        self.cols = cols[order].astype(index)
        self.edge = np.concatenate([np.arange(m), np.arange(m), np.full(n, m)])[order].astype(index)
        self.indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(g.degrees() + 1, out=self.indptr[1:])
        self.diag = np.flatnonzero(self.edge == m).astype(index)  # one per row, in row order

    def operator(self, keep=None):
        """D^{-1/2} (A + I) D^{-1/2} over the kept edges, as a canonical csr_array.

        ``keep`` is a bool mask over the graph's edges (``None`` keeps
        all); the diagonal is always kept, so a row's kept count is
        d̂ = degree + 1.  Off the diagonal an entry weighs
        1/sqrt(d̂_row) · 1/sqrt(d̂_col), on it 1/d̂; an isolated node keeps
        the entry 1 from its self-loop.  The all-kept operator shares the
        pattern's index arrays, so no caller may sort or edit them.
        """
        # imported here, not at module top: scipy.sparse adds ~0.2 s to CLI startup
        from scipy.sparse import csr_array

        cols, indptr, diag = self.cols, self.indptr, self.diag
        if keep is not None:
            sel = np.append(keep, True)[self.edge]
            # kept[p]: the kept entries before position p of the full pattern
            kept = np.zeros(sel.size + 1, dtype=indptr.dtype)
            np.cumsum(sel, out=kept[1:])
            cols, indptr, diag = cols[sel], kept[indptr], kept[diag]
        dhat = np.diff(indptr)
        inv_sqrt = 1.0 / np.sqrt(dhat)
        data = np.repeat(inv_sqrt, dhat)
        data *= inv_sqrt[cols]
        data[diag] = 1.0 / dhat
        return csr_array((data, cols, indptr), shape=(self.n, self.n))


def attach_test_items(train_adj, X_train, X_test, k: int):
    """The inductive evaluation operator: unseen items attached one way.

    ``train_adj`` is the training graph's clean operator
    (:meth:`AdjacencyPattern.operator` with every edge kept): a canonical
    n_train × n_train csr_array whose stored entries are exactly A + I.
    Returns an (n_train + n_test)² ``scipy.sparse.csr_array`` whose rows
    0..n_train-1 are ``train_adj``, bit for bit.  Row n_train + t holds
    1/sqrt(dh_t · dh_j) on test item t's top-k most similar training
    nodes j (ties by ascending training index, scored in blocks of test
    rows: O(BLOCK_ROWS · n_train) work space), then 1/dh_t on its own
    diagonal as the row's last entry; dh = degree + 1, with dh_t = k + 1
    and each training dh_j the stored-entry count of ``train_adj``'s row
    j.  No row reads another test item's column, so test items cannot
    influence each other or the training rows.
    """
    # imported here, not at module top: scipy.sparse adds ~0.2 s to CLI startup
    from scipy.sparse import csr_array

    X_train = as_matrix(X_train)
    X_test = as_matrix(X_test)
    n_train = X_train.shape[0]
    if train_adj.shape != (n_train, n_train):
        raise ValueError(f"train_adj has shape {train_adj.shape}, but X_train has {n_train} rows")
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n_train:
        raise ValueError(f"k={k} exceeds the training count {n_train}")
    # exactly k training columns per test row, row-major, columns ascending
    _, cols = top_k_cosine(X_test, X_train, k)
    n_test = X_test.shape[0]
    cols = cols.reshape(n_test, k)
    dh_t = k + 1.0
    w = 1.0 / np.sqrt(dh_t * np.diff(train_adj.indptr)[cols])
    own = n_train + np.arange(n_test, dtype=np.int64)
    data = np.concatenate([train_adj.data, np.column_stack([w, np.full(n_test, 1.0 / dh_t)]).ravel()])
    indices = np.concatenate([train_adj.indices, np.column_stack([cols, own]).ravel()])
    indptr = np.concatenate([train_adj.indptr, train_adj.nnz + (k + 1) * np.arange(1, n_test + 1)])
    n = n_train + n_test
    return csr_array((data, indices, indptr), shape=(n, n))

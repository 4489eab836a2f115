"""Deterministic numeric substrate: seeded RNG, dense/sparse products.

Conventions used throughout the package:

* A dense matrix is a C-contiguous float64 2-D ndarray.
* Sparse adjacency matrices are square, symmetric, hold finite positive
  weights, and are stored in CSR with entries sorted by (row, col).
* All randomness flows through :class:`SeededRng`; independent concerns
  draw from named substreams so adding a consumer never shifts the
  stream of another.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

EPS_NORM = 1e-12


def _tag_to_int(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRng:
    """PCG64 generator with purpose-tagged child streams.

    ``substream(tag)`` derives an independent generator from the parent
    seed and the hashed tag, so the draw order of one consumer never
    perturbs another.  The same (seed, tag path) always reproduces the
    same stream on any platform.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = tuple(_path)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self._path)
        self.gen = np.random.Generator(np.random.PCG64(seq))

    def substream(self, tag: str) -> "SeededRng":
        return SeededRng(self.seed, self._path + (_tag_to_int(tag),))

    # passthroughs for the common draws
    def random(self, size=None):
        return self.gen.random(size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.gen.normal(loc, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self.gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self.gen.integers(low, high, size)

    def choice(self, a, size=None, replace=True, p=None):
        return self.gen.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self.gen.permutation(x)


def as_matrix(x) -> np.ndarray:
    """Validate and convert to a float64 2-D C-contiguous array."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree ({a.shape} @ {b.shape})")
    return np.matmul(a, b)


@dataclass(frozen=True)
class SparseAdjacency:
    """Symmetric square sparse matrix in CSR form.

    Entries are sorted by (row, col) within the arrays; weights are
    finite and strictly positive (zero-weight entries are dropped at
    construction so the sparse product touches only real terms).
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @staticmethod
    def from_entries(n, rows, cols, weights, validate: bool = True) -> "SparseAdjacency":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (rows.shape == cols.shape == weights.shape):
            raise ValueError("entry arrays must have matching lengths")
        if validate:
            if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
                raise ValueError("entry index out of range")
            if not np.all(np.isfinite(weights)) or np.any(weights < 0):
                raise ValueError("weights must be finite and nonnegative")
        keep = weights != 0.0
        rows, cols, weights = rows[keep], cols[keep], weights[keep]
        order = np.lexsort((cols, rows))
        rows, cols, weights = rows[order], cols[order], weights[order]
        if validate:
            if rows.size:
                dup = (np.diff(rows) == 0) & (np.diff(cols) == 0)
                if np.any(dup):
                    raise ValueError("duplicate entries")
            # symmetry: the transposed entry list must sort to the same arrays
            t_order = np.lexsort((rows, cols))
            if not (
                np.array_equal(cols[t_order], rows)
                and np.array_equal(rows[t_order], cols)
                and np.array_equal(weights[t_order], weights)
            ):
                raise ValueError("adjacency must be symmetric")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        return SparseAdjacency(n=n, indptr=indptr, indices=cols, weights=weights)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n), dtype=np.float64)
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        dense[rows, self.indices] = self.weights
        return dense


def spmm(adj: SparseAdjacency, x) -> np.ndarray:
    """Sparse-dense product adj @ x in O(nnz * cols); deterministic per input."""
    # imported here, not at module top: scipy.sparse adds ~0.2 s to CLI startup
    from scipy.sparse import csr_array

    x = as_matrix(x)
    if x.shape[0] != adj.n:
        raise ValueError(f"spmm: adjacency is {adj.n}x{adj.n}, features have {x.shape[0]} rows")
    return csr_array((adj.weights, adj.indices, adj.indptr), shape=(adj.n, adj.n)) @ x


def l2_normalize_rows(x, eps: float = EPS_NORM) -> np.ndarray:
    """Scale each row to unit norm; an all-zero row stays all-zero."""
    x = as_matrix(x)
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    return x / (norms + eps)


def cosine_similarity_matrix(x, eps: float = EPS_NORM) -> np.ndarray:
    """Pairwise cosine similarities; symmetric, unit diagonal for nonzero rows."""
    xn = l2_normalize_rows(x, eps)
    return matmul(xn, np.ascontiguousarray(xn.T))


def finite_difference_gradient(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function on a flat vector."""
    x = np.asarray(x, dtype=np.float64).ravel()
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        fp = f(xp)
        xm = x.copy()
        xm[i] -= h
        fm = f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite value in finite difference at index {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad

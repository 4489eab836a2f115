"""Deterministic numeric substrate: seeded RNG, dense/sparse products.

Conventions used throughout the package:

* A dense matrix is a float64 2-D ndarray.  :func:`as_matrix` makes
  it C-contiguous; :func:`matmul` takes views as they are, so a
  transposed or row-sliced operand reaches BLAS without a copy.
* A sparse matrix is a ``scipy.sparse.csr_array`` in canonical form
  (column indices sorted within each row, no duplicates).  Adjacency
  operators are square and hold finite positive weights.  Training
  operators are symmetric; the inductive evaluation operator is one-way
  (unseen items read the training rows, never the reverse) and only
  clean forwards take it, so backward passes may assume symmetry.
  :func:`spmm` takes any ``csr_array`` whose column count matches x's
  rows; evaluation sums users' items with a U × n membership matrix.
  scipy is imported only inside the functions that build one, so
  importing gemi does not load it.
* All randomness flows through :class:`SeededRng`, a numpy
  ``Generator``, so draws are its ``Generator`` methods; independent
  concerns draw from named substreams so adding a consumer never shifts
  the stream of another.
"""

from __future__ import annotations

import hashlib

import numpy as np

EPS_NORM = 1e-12


def _tag_to_int(tag: str) -> int:
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededRng(np.random.Generator):
    """PCG64 ``Generator`` with purpose-tagged child streams.

    ``substream(tag)`` derives an independent generator from the parent
    seed and the hashed tag, so the draw order of one consumer never
    perturbs another.  The same (seed, tag path) always reproduces the
    same stream on any platform.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = tuple(_path)
        super().__init__(np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=self._path)))

    def substream(self, tag: str) -> "SeededRng":
        return SeededRng(self.seed, self._path + (_tag_to_int(tag),))


def as_matrix(x) -> np.ndarray:
    """Validate and convert to a float64 2-D C-contiguous array."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


def matmul(a, b) -> np.ndarray:
    """a @ b in float64.  Views are not copied: np.matmul hands transposed
    and strided operands with one unit stride to BLAS as they are."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul: expected 2-D matrices, got ndim {a.ndim} @ {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree ({a.shape} @ {b.shape})")
    return np.matmul(a, b)


def spmm(adj, x) -> np.ndarray:
    """Sparse-dense product adj @ x (adj a csr_array) in O(nnz * cols); deterministic per input."""
    x = as_matrix(x)
    if adj.shape[1] != x.shape[0]:
        raise ValueError(f"spmm: inner dimensions disagree ({adj.shape} @ {x.shape})")
    return adj @ x


def l2_normalize_rows(x, eps: float = EPS_NORM) -> np.ndarray:
    """Scale each row to unit norm; an all-zero row stays all-zero."""
    x = as_matrix(x)
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    return x / (norms + eps)


def finite_difference_gradient(f, x) -> np.ndarray:
    """Central-difference gradient, shaped like ``x``, of the scalar ``f()``.

    ``f`` takes no argument and reads the float64 array ``x``, which is
    perturbed in place by ±1e-5 one entry at a time.  Each entry is put
    back exactly before the next is touched, also when ``f`` raises; a
    non-finite value raises :class:`FloatingPointError`.
    """
    h = 1e-5
    grad = np.empty(x.shape)
    for i in np.ndindex(x.shape):
        orig = x[i]
        try:
            x[i] = orig + h
            fp = f()
            x[i] = orig - h
            fm = f()
        finally:
            x[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError(f"non-finite value in finite difference at index {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad

"""Multimodal panel representations: fusion rules.

The encoders that produce the per-modality vectors live upstream; this
module only combines their outputs (mean fusion, chunk averaging,
precision-weighted Product-of-Experts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import GaussianTable
from .numerics import as_matrix, l2_normalize_rows


@dataclass(frozen=True)
class GaussianPosterior:
    """Diagonal Gaussian with strictly positive finite variances."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        variance = np.asarray(self.variance, dtype=np.float64)
        if mean.shape != variance.shape or mean.ndim != 1:
            raise ValueError("mean and variance must be 1-D and the same length")
        if not np.all(np.isfinite(variance)) or np.any(variance <= 0):
            raise ValueError("variances must be strictly positive and finite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", variance)


def chunk_average(chunks) -> np.ndarray:
    """Arithmetic mean of chunk embedding vectors."""
    if len(chunks) == 0:
        raise ValueError("chunk_average requires at least one chunk")
    stacked = np.stack([np.asarray(c, dtype=np.float64) for c in chunks])
    return stacked.mean(axis=0)


def _poe(means, variances) -> tuple[np.ndarray, np.ndarray]:
    """Precision-weighted product of experts given as equal-shape arrays.

    Returns the fused (mean, variance): variance = 1 / Σ 1/var_k and
    mean = Σ (mu_k / var_k) / Σ 1/var_k.
    """
    precision = np.zeros_like(means[0])
    weighted = np.zeros_like(means[0])
    for mu, var in zip(means, variances):
        prec = 1.0 / var
        precision += prec
        weighted += prec * mu
    return weighted / precision, 1.0 / precision


def poe_fuse(posteriors) -> GaussianPosterior:
    """Precision-weighted product of diagonal Gaussian experts."""
    posteriors = list(posteriors)
    if not posteriors:
        raise ValueError("poe_fuse requires at least one posterior")
    d = posteriors[0].mean.shape[0]
    for p in posteriors:
        if p.mean.shape[0] != d:
            raise ValueError("posterior dimensions disagree")
    mean, variance = _poe([p.mean for p in posteriors], [p.variance for p in posteriors])
    return GaussianPosterior(mean=mean, variance=variance)


def _align(ref_ids, ids, matrix, role: str) -> np.ndarray:
    if tuple(ids) == tuple(ref_ids):
        return matrix
    index = {pid: i for i, pid in enumerate(ids)}
    missing = [pid for pid in ref_ids if pid not in index]
    if missing or len(ids) != len(ref_ids):
        raise ValueError(f"{role} table ids do not match the panel ids (first problem: {missing[:1]})")
    return matrix[[index[pid] for pid in ref_ids]]


def build_panel_features(mode: str, tables: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """Produce the per-panel representation matrix for the chosen mode.

    ``tables`` maps modality roles to loaded tables: ``embeddings`` for
    precomputed, ``image``/``text`` (id, matrix) pairs for mean fusion,
    ``chunks`` (list of pairs) for chunk averaging, ``experts`` (list of
    GaussianTable) for PoE, whose output rows are the fused means.
    """

    def require(role):
        if role not in tables or tables[role] is None:
            raise ValueError(f"feature mode {mode!r} requires the {role!r} table")
        return tables[role]

    if mode == "precomputed":
        ids, x = require("embeddings")
        return tuple(ids), as_matrix(x)
    if mode == "mean":
        ids, ximg = require("image")
        tids, xtxt = require("text")
        xtxt = _align(ids, tids, as_matrix(xtxt), "text")
        fused = 0.5 * (l2_normalize_rows(as_matrix(ximg)) + l2_normalize_rows(xtxt))
        return tuple(ids), fused
    if mode == "chunks":
        parts = require("chunks")
        if not parts:
            raise ValueError("feature mode 'chunks' requires at least one chunk table")
        ids = tuple(parts[0][0])
        aligned = [_align(ids, pids, as_matrix(px), f"chunk[{k}]") for k, (pids, px) in enumerate(parts)]
        return ids, chunk_average(aligned)
    if mode == "poe":
        experts = require("experts")
        if not experts:
            raise ValueError("feature mode 'poe' requires at least one expert table")
        if not all(isinstance(e, GaussianTable) for e in experts):
            raise ValueError("poe experts must be Gaussian posterior tables")
        ids = experts[0].ids
        means = [_align(ids, e.ids, e.mean, "expert mean") for e in experts]
        variances = [_align(ids, e.ids, e.var, "expert var") for e in experts]
        return ids, _poe(means, variances)[0]
    raise ValueError(f"unknown feature mode {mode!r}")

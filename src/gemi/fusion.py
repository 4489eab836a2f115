"""Multimodal panel representations: fusion rules.

The encoders that produce the per-modality vectors live upstream; this
module only combines their outputs (mean fusion, chunk averaging,
precision-weighted Product-of-Experts).  Each fusion takes loaded
tables, aligns their rows to the first table's ids and returns
(ids, fused matrix).
"""

from __future__ import annotations

import numpy as np

from .ingest import IngestError
from .numerics import as_matrix, l2_normalize_rows


def product_of_experts(means, variances) -> tuple[np.ndarray, np.ndarray]:
    """Precision-weighted product of diagonal Gaussian experts.

    ``means`` and ``variances`` hold one equal-shape array per expert.
    Returns the fused (mean, variance): variance = 1 / Σ 1/var_k and
    mean = Σ (mu_k / var_k) / Σ 1/var_k.
    """
    precision = np.zeros_like(means[0])
    weighted = np.zeros_like(means[0])
    for mu, var in zip(means, variances, strict=True):
        prec = 1.0 / var
        precision += prec
        weighted += prec * mu
    return weighted / precision, 1.0 / precision


def _align(ref_ids, ids, matrix, role: str, width: int) -> np.ndarray:
    if matrix.shape[1] != width:
        raise IngestError(f"{role} table has {matrix.shape[1]} columns, the first table has {width}")
    if tuple(ids) == tuple(ref_ids):
        return matrix
    index = {pid: i for i, pid in enumerate(ids)}
    ref = set(ref_ids)
    missing = [pid for pid in ref_ids if pid not in index]
    extra = [pid for pid in ids if pid not in ref]
    if missing or extra or len(ids) != len(ref_ids):
        raise IngestError(
            f"{role} table ids do not match the panel ids (first missing: {missing[:1]}, first extra: {extra[:1]})"
        )
    return matrix[[index[pid] for pid in ref_ids]]


def mean_fuse(image, text) -> tuple[tuple[str, ...], np.ndarray]:
    """Mean of the ℓ2-normalised image and text rows; tables are (ids, matrix)."""
    ids, ximg = image[0], as_matrix(image[1])
    tids, xtxt = text
    xtxt = _align(ids, tids, as_matrix(xtxt), "text", ximg.shape[1])
    return tuple(ids), 0.5 * (l2_normalize_rows(ximg) + l2_normalize_rows(xtxt))


def chunk_fuse(tables) -> tuple[tuple[str, ...], np.ndarray]:
    """Arithmetic mean of chunk embedding tables, each (ids, matrix)."""
    ids, width = tuple(tables[0][0]), as_matrix(tables[0][1]).shape[1]
    aligned = [_align(ids, pids, as_matrix(px), f"chunk[{k}]", width) for k, (pids, px) in enumerate(tables)]
    return ids, np.stack(aligned).mean(axis=0)


def poe_fuse(experts) -> tuple[tuple[str, ...], np.ndarray]:
    """Fused Product-of-Experts means of Gaussian posterior tables."""
    ids, width = experts[0].ids, experts[0].mean.shape[1]
    means = [_align(ids, e.ids, e.mean, "expert mean", width) for e in experts]
    variances = [_align(ids, e.ids, e.var, "expert var", width) for e in experts]
    return ids, product_of_experts(means, variances)[0]

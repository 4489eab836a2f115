"""Scalar training objectives and their analytic gradients.

Each loss term is one function that returns its value and its gradient
together: :func:`supervised_loss_and_grad` (wbce, bce or focal on the
label logits), :func:`recon_loss_and_grad` (the A + I reconstruction,
scored in row blocks, each pair of the symmetric Z Zᵀ once, against
:class:`ReconTargets` laid out once per run) and
:func:`kl_and_grads` (the VGAE KL term).  None of them knows the
joint-objective weights; ``train.objective_and_grads`` alone weights
the terms, values and gradients alike.

The supervised loss slices the masked rows out before any arithmetic,
so its value is a bit-exact function of the masked subset: no unmasked
label or logit can bleed in, even through 0·inf.  Reduction is mean
over masked nodes, sum over labels; the gradient is shaped like the
logits, with zeros outside the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .config import is_number
from .numerics import as_matrix, block_map, matmul

POS_WEIGHT_MIN = 1e-3
POS_WEIGHT_MAX = 1e3


@dataclass(frozen=True)
class LossConfig:
    """Supervised-loss settings plus the joint-objective coefficients."""

    kind: str = "focal"  # focal | wbce | bce
    alpha: float = 0.25
    gamma: float = 2.0
    lambda_sup: float = 0.60
    lambda_ssl: float = 0.60
    beta_max: float = 1.0

    def __post_init__(self):
        # each message starts with the field name; validate_config prefixes "loss."
        if self.kind not in ("focal", "wbce", "bce"):
            raise ValueError(f"kind: must be focal, wbce or bce, got {self.kind!r}")
        if not is_number(self.alpha) or not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha: must be in (0, 1)")
        for name in ("gamma", "lambda_sup", "lambda_ssl", "beta_max"):
            value = getattr(self, name)
            if not is_number(value) or value < 0.0:
                raise ValueError(f"{name}: must be nonnegative")


def positive_weights(Y_train) -> np.ndarray:
    """Per-label negative/positive count ratio, clamped to [1e-3, 1e3]."""
    Y = np.asarray(Y_train, dtype=np.float64)
    pos = Y.sum(axis=0)
    neg = Y.shape[0] - pos
    with np.errstate(divide="ignore", invalid="ignore"):
        w = neg / pos
    w = np.where(pos == 0, POS_WEIGHT_MAX, w)
    return np.clip(w, POS_WEIGHT_MIN, POS_WEIGHT_MAX)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z):
    # log(1 + exp(z)) without overflow
    return np.logaddexp(0.0, z)


def supervised_loss_and_grad(cfg: LossConfig, logits, Y, pos_weights, mask) -> tuple[float, np.ndarray]:
    """The supervised label loss selected by ``cfg.kind`` and its dL/dlogits.

    wbce is the weighted BCE with per-label positive weights; bce is the
    same with every weight 1; focal is the class-balanced focal
    modulation of the weighted BCE, per element alpha_t (1 - p_t)^gamma
    · BCE(z, y; w) with p_t the probability assigned to the true class,
    which reduces to 0.5 · wbce at gamma = 0, alpha = 0.5.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no rows")
    z = np.asarray(logits, dtype=np.float64)[mask]
    y = np.asarray(Y, dtype=np.float64)[mask]
    w = np.asarray(pos_weights, dtype=np.float64)
    if cfg.kind == "bce":
        w = np.ones_like(w)
    s = _sigmoid(z)
    # per-element weighted BCE-with-logits: -w y log s(z) - (1-y) log(1-s(z))
    elements = w * y * _softplus(-z) + (1.0 - y) * _softplus(z)
    d_elements = w * y * (s - 1.0) + (1.0 - y) * s
    if cfg.kind == "focal":
        p_t = y * s + (1.0 - y) * (1.0 - s)
        alpha_t = cfg.alpha * y + (1.0 - cfg.alpha) * (1.0 - y)
        ompt = 1.0 - p_t
        modulation = ompt**cfg.gamma
        # d(1-p_t)^g/dz = -g (1-p_t)^{g-1} (2y-1) s(1-s); guard the
        # saturated case p_t == 1.0 where the power would produce inf*0
        base = np.where(ompt > 0.0, ompt, 1.0)
        dmod = np.where(
            ompt > 0.0,
            -cfg.gamma * base ** (cfg.gamma - 1.0) * (2.0 * y - 1.0) * s * (1.0 - s),
            0.0,
        )
        elements, d_elements = (
            alpha_t * modulation * elements,
            alpha_t * (dmod * elements + modulation * d_elements),
        )
    grad = np.zeros(np.asarray(logits).shape, dtype=np.float64)
    grad[mask] = d_elements / z.shape[0]
    return float(elements.sum(axis=1).mean()), grad


class ReconTargets:
    """The A + I reconstruction targets laid out once for :func:`recon_loss_and_grad`.

    ``pattern`` is a csr_array whose stored entries are exactly A + I
    (the clean normalized adjacency has that pattern); its values are
    unused.  Built once per run, it holds ``n``, ``pw`` = #zeros/#ones of
    the targets (from the counts), the :data:`numerics.BLOCK_ROWS` in
    effect when it was built (each loss block's rows), each block's
    target-1 entries at columns >= start as flat indices r·(n - start) + c
    into the contiguous block, and the two b × n work buffers that the
    first call allocates and every call reuses.  The buffers are
    overwritten on each call and carry nothing between calls.
    """

    def __init__(self, pattern):
        n = pattern.shape[0]
        indptr, indices = pattern.indptr, pattern.indices
        self.n = n
        self.pw = (n * n - pattern.nnz) / pattern.nnz
        self.block_rows = numerics.BLOCK_ROWS

        def upper_targets(start, stop):
            r = np.repeat(np.arange(stop - start), np.diff(indptr[start : stop + 1]))
            c = indices[indptr[start] : indptr[stop]] - start
            upper = c >= 0
            return r[upper] * (n - start) + c[upper]

        self.flat = block_map(upper_targets, n, self.block_rows)
        # allocated by the first call, not here: allocated before the first
        # forward, they raised gae-transductive's peak RSS by about 0.9 MB
        # (heap layout, 5 seeds)
        self.buffers = None


def recon_loss_and_grad(Z, targets: ReconTargets) -> tuple[float, np.ndarray]:
    """Weighted BCE between sigma(Z Z^T) and the A + I targets, and dL/dZ.

    The loss is the mean over all n² entries of pw·softplus(-s) where
    the target is 1 and softplus(s) where it is 0, with s = z_i·z_j and
    pw = #zeros/#ones; evaluated from the logits, it stays finite when
    sigma saturates.  Z Z^T and the targets are symmetric, so each pair
    is scored once: the block I = [start, stop) of ``targets.block_rows``
    rows forms S = Z_I Z_{start:}^T, the pairs it has not met in an
    earlier block.  Its first b columns (both ends in I) count once,
    every later column twice, for the mirror entry never formed.  The
    target-1 entries are fixed up in place by the block's flat indices
    in ``targets`` (:class:`ReconTargets`).  The score gradient G is
    symmetric, so dL/dZ = 2 G Z, and the block adds G_I,{start:} Z_{start:}
    to rows I and its mirror G_I,{stop:}^T Z_I to the rows after.  Time
    is still O(n² · latent), at 1.5 n² · latent multiply-adds instead of
    2; the work space is one :func:`gemi.numerics.block_map` block's
    scores plus the two b × n buffers that ``targets`` holds, never n × n.
    """
    Z = as_matrix(Z)
    n = Z.shape[0]
    if n != targets.n:
        raise ValueError(f"Z has {n} rows but the targets cover {targets.n} nodes")
    pw = targets.pw
    if targets.buffers is None:
        size = min(targets.block_rows, n) * n
        targets.buffers = np.empty(size), np.empty(size)
    dZ = np.zeros_like(Z)

    def block_loss(start, stop):
        flat = targets.flat[start // targets.block_rows]
        b, m = stop - start, n - start
        S = matmul(Z[start:stop], Z[start:].T)
        s = S.reshape(-1)  # matmul's fresh output is C-contiguous: a view
        e, work = (buf[: b * m] for buf in targets.buffers)
        np.copysign(s, -1.0, out=e)
        np.exp(e, out=e)  # exp(-|s|), shared by softplus and sigma
        # loss terms: softplus(s) = max(s, 0) + log1p(exp(-|s|)), and
        # pw·softplus(-s) on the targets
        on_targets = pw * (np.maximum(-s[flat], 0.0) + np.log1p(e[flat]))
        np.log1p(e, out=work)
        np.maximum(s, 0.0, out=s)
        work += s
        work[flat] = on_targets
        work = work.reshape(b, m)
        loss = float(work[:, :b].sum()) + 2.0 * float(work[:, b:].sum())
        # score gradient: sigma(s) = exp(min(s, 0)) / (1 + exp(-|s|)) off
        # the targets, pw·(sigma(s) - 1) on them.  The numerator is 1
        # where max(s, 0) > 0 and exp(-|s|) elsewhere, so it is
        # max(exp(-|s|), [max(s, 0) > 0]); S holds it from here
        np.greater(s, 0.0, out=s)
        np.maximum(e, s, out=s)
        e += 1.0
        s /= e
        s[flat] = pw * (s[flat] - 1.0)
        dZ[start:stop] += matmul(S, Z[start:])
        dZ[stop:] += matmul(S[:, b:].T, Z[start:stop])
        return loss

    total = 0.0
    for loss in block_map(block_loss, n, targets.block_rows):
        total += loss  # in block order; sum() would compensate on Python >= 3.12
    dZ *= 2.0 / (n * n)
    return total / (n * n), dZ


def kl_and_grads(mu, log_sigma) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean over nodes of KL(N(mu, sigma^2) || N(0, I)), diagonal, and its
    gradients with respect to mu and log_sigma."""
    mu = np.asarray(mu, dtype=np.float64)
    ls = np.asarray(log_sigma, dtype=np.float64)
    n = mu.shape[0]
    var = np.exp(2.0 * ls)
    per_node = 0.5 * (mu**2 + var - 1.0 - 2.0 * ls).sum(axis=1)
    return float(per_node.mean()), mu / n, (var - 1.0) / n


def kl_anneal(epoch: int, ramp_epochs: int, beta_max: float) -> float:
    """Linear KL warm-up: beta_max · min(1, epoch / ramp_epochs)."""
    if ramp_epochs < 1:
        raise ValueError("ramp_epochs must be at least 1")
    return beta_max * min(1.0, epoch / ramp_epochs)

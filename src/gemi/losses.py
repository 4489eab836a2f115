"""Scalar training objectives and their analytic gradients.

All label losses slice the masked rows out before any arithmetic, so
values are bit-exact functions of the masked subset: no unmasked label
or logit can bleed in, even through 0·inf.  Reduction is mean over
masked nodes, sum over labels.  Gradient helpers return arrays shaped
like their inputs with zeros outside the mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.kind not in ("focal", "wbce", "bce"):
            raise ValueError(f"loss kind must be focal, wbce or bce, got {self.kind!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


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


def _masked(logits, Y, mask):
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("mask selects no rows")
    return np.asarray(logits, dtype=np.float64)[mask], np.asarray(Y, dtype=np.float64)[mask], mask


def _bce_elements(z, y, w):
    # per-element weighted BCE-with-logits: -w y log s(z) - (1-y) log(1-s(z))
    return w * y * _softplus(-z) + (1.0 - y) * _softplus(z)


def weighted_bce(logits, Y, pos_weights, mask) -> float:
    """Mean over masked rows of the label-summed weighted BCE."""
    z, y, _ = _masked(logits, Y, mask)
    w = np.asarray(pos_weights, dtype=np.float64)
    return float(_bce_elements(z, y, w).sum(axis=1).mean())


def weighted_bce_grad(logits, Y, pos_weights, mask) -> np.ndarray:
    z, y, mask = _masked(logits, Y, mask)
    w = np.asarray(pos_weights, dtype=np.float64)
    s = _sigmoid(z)
    local = (w * y * (s - 1.0) + (1.0 - y) * s) / z.shape[0]
    out = np.zeros(np.asarray(logits).shape, dtype=np.float64)
    out[mask] = local
    return out


def _focal_parts(z, y, w, alpha, gamma):
    s = _sigmoid(z)
    p_t = y * s + (1.0 - y) * (1.0 - s)
    alpha_t = alpha * y + (1.0 - alpha) * (1.0 - y)
    one_minus_pt = 1.0 - p_t
    if gamma == 0.0:
        modulation = np.ones_like(z)
    else:
        modulation = one_minus_pt**gamma
    bce = _bce_elements(z, y, w)
    return s, y, alpha_t, one_minus_pt, modulation, bce


def focal_bce(logits, Y, pos_weights, alpha, gamma, mask) -> float:
    """Class-balanced focal modulation of the weighted BCE.

    Per element: alpha_t (1 - p_t)^gamma · BCE(z, y; w), with p_t the
    probability assigned to the true class; reduces to
    0.5 · weighted_bce at gamma = 0, alpha = 0.5.
    """
    z, y, _ = _masked(logits, Y, mask)
    w = np.asarray(pos_weights, dtype=np.float64)
    _, _, alpha_t, _, modulation, bce = _focal_parts(z, y, w, alpha, gamma)
    return float((alpha_t * modulation * bce).sum(axis=1).mean())


def focal_bce_grad(logits, Y, pos_weights, alpha, gamma, mask) -> np.ndarray:
    z, y, mask = _masked(logits, Y, mask)
    w = np.asarray(pos_weights, dtype=np.float64)
    s, y, alpha_t, ompt, modulation, bce = _focal_parts(z, y, w, alpha, gamma)
    dbce = w * y * (s - 1.0) + (1.0 - y) * s
    if gamma == 0.0:
        dmod = np.zeros_like(z)
    else:
        # d(1-p_t)^g/dz = -g (1-p_t)^{g-1} (2y-1) s(1-s); guard the
        # saturated case p_t == 1.0 where the power would produce inf*0
        base = np.where(ompt > 0.0, ompt, 1.0)
        dmod = np.where(
            ompt > 0.0,
            -gamma * base ** (gamma - 1.0) * (2.0 * y - 1.0) * s * (1.0 - s),
            0.0,
        )
    local = alpha_t * (dmod * bce + modulation * dbce) / z.shape[0]
    out = np.zeros(np.asarray(logits).shape, dtype=np.float64)
    out[mask] = local
    return out


def supervised_loss(cfg: LossConfig, logits, Y, pos_weights, mask) -> float:
    if cfg.kind == "bce":
        pos_weights = np.ones_like(np.asarray(pos_weights, dtype=np.float64))
    if cfg.kind in ("wbce", "bce"):
        return weighted_bce(logits, Y, pos_weights, mask)
    return focal_bce(logits, Y, pos_weights, cfg.alpha, cfg.gamma, mask)


def supervised_loss_grad(cfg: LossConfig, logits, Y, pos_weights, mask) -> np.ndarray:
    if cfg.kind == "bce":
        pos_weights = np.ones_like(np.asarray(pos_weights, dtype=np.float64))
    if cfg.kind in ("wbce", "bce"):
        return weighted_bce_grad(logits, Y, pos_weights, mask)
    return focal_bce_grad(logits, Y, pos_weights, cfg.alpha, cfg.gamma, mask)


def edge_pos_weight(targets) -> float:
    """(#zeros / #ones) over the target adjacency (self-loops included)."""
    t = np.asarray(targets, dtype=np.float64)
    pos = t.sum()
    if pos == 0:
        raise ValueError("reconstruction targets contain no positive entries")
    return float((t.size - pos) / pos)


def recon_loss_from_scores(targets, scores, pos_weight: float) -> float:
    """Weighted mean BCE between sigma(scores) and the A + I targets.

    Evaluated from the decoder logits through softplus, so it stays
    finite when the edge probabilities saturate.
    """
    t = np.asarray(targets, dtype=np.float64)
    z = np.asarray(scores, dtype=np.float64)
    terms = pos_weight * t * _softplus(-z) + (1.0 - t) * _softplus(z)
    return float(terms.mean())


def recon_loss_scores_grad(targets, scores, pos_weight: float) -> np.ndarray:
    t = np.asarray(targets, dtype=np.float64)
    z = np.asarray(scores, dtype=np.float64)
    s = _sigmoid(z)
    return (pos_weight * t * (s - 1.0) + (1.0 - t) * s) / t.size


def kl_standard_normal(mu, log_sigma) -> float:
    """Mean over nodes of KL(N(mu, sigma^2) || N(0, I)), diagonal."""
    mu = np.asarray(mu, dtype=np.float64)
    ls = np.asarray(log_sigma, dtype=np.float64)
    per_node = 0.5 * (mu**2 + np.exp(2.0 * ls) - 1.0 - 2.0 * ls).sum(axis=1)
    return float(per_node.mean())


def kl_standard_normal_grads(mu, log_sigma) -> tuple[np.ndarray, np.ndarray]:
    mu = np.asarray(mu, dtype=np.float64)
    ls = np.asarray(log_sigma, dtype=np.float64)
    n = mu.shape[0]
    return mu / n, (np.exp(2.0 * ls) - 1.0) / n


def kl_anneal(epoch: int, ramp_epochs: int, beta_max: float) -> float:
    """Linear KL warm-up: beta_max · min(1, epoch / ramp_epochs)."""
    if ramp_epochs < 1:
        raise ValueError("ramp_epochs must be at least 1")
    return beta_max * min(1.0, epoch / ramp_epochs)


def joint_objective(kind: str, parts: dict) -> tuple[float, dict]:
    """Combine loss parts into the training objective for a model kind.

    gcn: sup alone; gae: rec + lambda_sup·sup; vgae: rec + beta·kl +
    lambda_ssl·sup.  Returns (total, report) where the report maps each
    contributing part name to its value.
    """

    def need(key):
        if key not in parts:
            raise ValueError(f"joint objective for {kind!r} needs part {key!r}")
        return parts[key]

    if kind == "gcn":
        total = need("sup")
        report = {"sup": parts["sup"], "total": total}
    elif kind == "gae":
        total = need("rec") + need("lambda_sup") * need("sup")
        report = {"rec": parts["rec"], "sup": parts["sup"], "total": total}
    elif kind == "vgae":
        total = need("rec") + need("beta") * need("kl") + need("lambda_ssl") * need("sup")
        report = {
            "rec": parts["rec"],
            "kl": parts["kl"],
            "beta": parts["beta"],
            "sup": parts["sup"],
            "total": total,
        }
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return float(total), report

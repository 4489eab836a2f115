"""Dense oracle for the GAE/VGAE reconstruction objective.

The n × n form of the objective: A + I targets filled from ``g.pairs``,
decoder logits Z Zᵀ and a weighted BCE over every entry, with the
gradient pulled back through the symmetric product.  It is independent
of the row-blocked ``gemi.losses.recon_loss_and_grad``, which the loss,
model and train tests check against it.
"""

import numpy as np
from scipy.special import expit


def recon_targets(g) -> np.ndarray:
    """Dense A + I reconstruction targets of an ItemGraph."""
    targets = np.eye(g.n)
    i, j = g.pairs[:, 0], g.pairs[:, 1]
    targets[i, j] = targets[j, i] = 1.0
    return targets


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
    terms = pos_weight * t * np.logaddexp(0.0, -z) + (1.0 - t) * np.logaddexp(0.0, z)
    return float(terms.mean())


def recon_loss_scores_grad(targets, scores, pos_weight: float) -> np.ndarray:
    t = np.asarray(targets, dtype=np.float64)
    z = np.asarray(scores, dtype=np.float64)
    s = expit(z)
    return (pos_weight * t * (s - 1.0) + (1.0 - t) * s) / t.size


def dense_recon_loss_and_grad(Z, targets) -> tuple[float, np.ndarray]:
    """Loss and dL/dZ through the full n × n score matrix Z Zᵀ."""
    scores = Z @ Z.T
    w = edge_pos_weight(targets)
    d_scores = recon_loss_scores_grad(targets, scores, w)
    return recon_loss_from_scores(targets, scores, w), (d_scores + d_scores.T) @ Z

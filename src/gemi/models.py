"""The three graph backbones with hand-derived backward passes.

Forward formulas:

* GCN:  Z = A~ ReLU(A~ X W0) W1, with optional inverted-dropout masks
  on X and the hidden activations; the caller draws the masks, so a
  forward never consumes randomness of its own.
* GAE:  two-layer GCN encoder to a latent Z, inner-product decoder
  sigma(Z Z^T), linear label head on Z.  The decoder is evaluated only
  inside the reconstruction loss (:func:`gemi.losses.recon_loss_and_grad`),
  which hands its dL/dZ to the backward pass.
* VGAE: shared first layer H = ReLU(A~ X W0), then mu = A~ H W_mu and
  log_sigma = clamp(A~ H W_sig); Z = mu + exp(log_sigma) * eps.

Backward passes exploit the symmetry of A~ (its transpose product is
the same spmm) and treat the reparameterization noise as a constant
(pathwise estimator).  Caches hold every intermediate needed, so a
backward call never recomputes a forward quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng, as_matrix, matmul, spmm

LOG_SIGMA_CLAMP = 10.0


def glorot(rng: SeededRng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


@dataclass
class GcnParams:
    w0: np.ndarray  # d x h
    w1: np.ndarray  # h x c

    def weights(self) -> dict[str, np.ndarray]:
        return {"w0": self.w0, "w1": self.w1}


@dataclass
class GaeParams:
    w0: np.ndarray  # d x h
    w1: np.ndarray  # h x d_z
    head: np.ndarray  # d_z x c

    def weights(self) -> dict[str, np.ndarray]:
        return {"w0": self.w0, "w1": self.w1, "head": self.head}


@dataclass
class VgaeParams:
    w0: np.ndarray  # d x h (shared first layer)
    w_mu: np.ndarray  # h x d_z
    w_sigma: np.ndarray  # h x d_z
    head: np.ndarray  # d_z x c
    clamp: float = LOG_SIGMA_CLAMP

    def weights(self) -> dict[str, np.ndarray]:
        return {"w0": self.w0, "w_mu": self.w_mu, "w_sigma": self.w_sigma, "head": self.head}


def init_params(kind: str, d: int, hidden: int, latent: int, c: int, rng: SeededRng):
    """Glorot-uniform initialization from a dedicated substream."""
    if kind == "gcn":
        return GcnParams(w0=glorot(rng, d, hidden), w1=glorot(rng, hidden, c))
    if kind == "gae":
        return GaeParams(
            w0=glorot(rng, d, hidden),
            w1=glorot(rng, hidden, latent),
            head=glorot(rng, latent, c),
        )
    if kind == "vgae":
        return VgaeParams(
            w0=glorot(rng, d, hidden),
            w_mu=glorot(rng, hidden, latent),
            w_sigma=glorot(rng, hidden, latent),
            head=glorot(rng, latent, c),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def flatten_weights(weights: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([weights[k].ravel() for k in sorted(weights)])


def set_weights_from_vector(weights: dict[str, np.ndarray], vec: np.ndarray) -> None:
    offset = 0
    for k in sorted(weights):
        size = weights[k].size
        weights[k][...] = vec[offset : offset + size].reshape(weights[k].shape)
        offset += size
    if offset != vec.size:
        raise ValueError("vector length does not match parameter count")


def dropout_mask(rng: SeededRng, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: entries 0 or 1/(1-rate)."""
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) < (1.0 - rate)
    return keep / (1.0 - rate)


def draw_feature_masks(rng: SeededRng, n: int, d: int, hidden: int, rate: float):
    """Masks for the input features and the hidden activations."""
    return dropout_mask(rng, (n, d), rate), dropout_mask(rng, (n, hidden), rate)


def propagate(params, adj, X, masks=None):
    """Shared skeleton of all three kinds: m2 = A~ drop(ReLU(A~ drop(X) W0)).

    ``adj`` is the normalized csr_array A~ and ``masks`` the (input,
    hidden) dropout masks from :func:`draw_feature_masks`; ``None`` is
    a clean evaluation pass.  Returns (m2, cache); each model applies
    its own output matmuls to m2.
    """
    X = as_matrix(X)
    if masks is None:
        masks = (None, None)
    mask_in, mask_hidden = masks
    X0 = X * mask_in if mask_in is not None else X
    m1 = spmm(adj, X0)
    h_pre = matmul(m1, params.w0)
    h = np.maximum(h_pre, 0.0)
    hd = h * mask_hidden if mask_hidden is not None else h
    m2 = spmm(adj, hd)
    cache = {"adj": adj, "m1": m1, "h_pre": h_pre, "h": h, "hd": hd, "m2": m2, "masks": masks}
    return m2, cache


def _propagate_backward(cache, d_m2) -> np.ndarray:
    """Gradient of the shared skeleton: d_m2 -> dW0."""
    d_hd = spmm(cache["adj"], d_m2)  # A~ is symmetric
    mask_in, mask_hidden = cache["masks"]
    d_h = d_hd * mask_hidden if mask_hidden is not None else d_hd
    d_h_pre = d_h * (cache["h_pre"] > 0.0)
    return matmul(np.ascontiguousarray(cache["m1"].T), d_h_pre)


def _linear_backward(x, w, d_out):
    """Gradients of out = x @ w: returns (dW, dx)."""
    d_w = matmul(np.ascontiguousarray(x.T), d_out)
    d_x = matmul(d_out, np.ascontiguousarray(w.T))
    return d_w, d_x


def gcn_forward(params: GcnParams, adj, X, masks=None):
    """Two-layer GCN logits; cache carries all backprop intermediates."""
    m2, cache = propagate(params, adj, X, masks)
    return matmul(m2, params.w1), cache


def gcn_backward(params: GcnParams, cache, d_logits) -> dict[str, np.ndarray]:
    d_w1, d_m2 = _linear_backward(cache["m2"], params.w1, d_logits)
    return {"w0": _propagate_backward(cache, d_m2), "w1": d_w1}


def _head_decoder_backward(params, cache, d_logits, dZ_rec):
    """Pull of the label head and the inner-product decoder on Z.

    Returns (d_head, dZ): the head's gradient and the total latent
    gradient, the head's pull plus ``dZ_rec``, the decoder's dL/dZ as
    :func:`gemi.losses.recon_loss_and_grad` returns it.
    """
    d_head, dZ = _linear_backward(cache["Z"], params.head, d_logits)
    return d_head, dZ + dZ_rec


def gae_forward(params: GaeParams, adj, X, masks=None):
    m2, cache = propagate(params, adj, X, masks)
    Z = matmul(m2, params.w1)
    cache["Z"] = Z
    logits = matmul(Z, params.head)
    return {"Z": Z, "logits": logits}, cache


def gae_backward(params: GaeParams, cache, d_logits, dZ_rec) -> dict[str, np.ndarray]:
    """Combine supervised and reconstruction pull on the latent."""
    d_head, dZ = _head_decoder_backward(params, cache, d_logits, dZ_rec)
    d_w1, d_m2 = _linear_backward(cache["m2"], params.w1, dZ)
    return {"w0": _propagate_backward(cache, d_m2), "w1": d_w1, "head": d_head}


def vgae_encode(params: VgaeParams, adj, X, masks=None):
    """Shared-first-layer encoder: returns (mu, log_sigma, cache)."""
    m2, cache = propagate(params, adj, X, masks)  # m2 feeds both branches
    mu = matmul(m2, params.w_mu)
    ls_pre = matmul(m2, params.w_sigma)
    log_sigma = np.clip(ls_pre, -params.clamp, params.clamp)
    cache.update(mu=mu, ls_pre=ls_pre, log_sigma=log_sigma)
    return mu, log_sigma, cache


def vgae_forward(params: VgaeParams, adj, X, eps, masks=None):
    """Full VGAE pass with the reparameterization noise ``eps`` (n x d_z) given."""
    mu, log_sigma, cache = vgae_encode(params, adj, X, masks)
    Z = mu + np.exp(log_sigma) * eps
    cache["eps"] = eps
    cache["Z"] = Z
    logits = matmul(Z, params.head)
    return {"mu": mu, "log_sigma": log_sigma, "Z": Z, "logits": logits}, cache


def vgae_backward(params: VgaeParams, cache, d_logits, dZ_rec, d_mu_kl, d_log_sigma_kl):
    """Backward through head, decoder, reparameterization and encoder.

    d_mu_kl / d_log_sigma_kl carry the (beta-scaled) KL gradients; eps
    is the frozen constant of the pathwise estimator; the hard clamp
    zeroes gradients where log_sigma saturated.
    """
    d_head, dZ = _head_decoder_backward(params, cache, d_logits, dZ_rec)
    d_mu = dZ + d_mu_kl
    d_ls = dZ * cache["eps"] * np.exp(cache["log_sigma"]) + d_log_sigma_kl
    inside = np.abs(cache["ls_pre"]) < params.clamp
    d_ls_pre = d_ls * inside
    m2_t = np.ascontiguousarray(cache["m2"].T)  # one copy serves both branches
    d_w_mu = matmul(m2_t, d_mu)
    d_w_sigma = matmul(m2_t, d_ls_pre)
    d_m2_mu = matmul(d_mu, np.ascontiguousarray(params.w_mu.T))
    d_m2_sigma = matmul(d_ls_pre, np.ascontiguousarray(params.w_sigma.T))
    d_w0 = _propagate_backward(cache, d_m2_mu + d_m2_sigma)
    return {"w0": d_w0, "w_mu": d_w_mu, "w_sigma": d_w_sigma, "head": d_head}

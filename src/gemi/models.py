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

Order rule: the second layer A~ H W_out costs O(nnz · width) in its
spmm, so it runs on the narrower side.  When W_out narrows (fewer
columns than rows, e.g. GCN's hidden -> c logits or GAE's hidden ->
latent), H W_out is formed first and only that is propagated, forward
and backward; otherwise H is propagated first.  The choice depends on
the weight shape alone.  VGAE applies the rule to each branch on its
own (mu through W_mu, log_sigma through W_sigma, on the same cached
H), never to the concatenated [W_mu | W_sigma]: the concatenated width
could pick the other order than GAE's W1 of the same shape, and then
mu at zero noise would no longer equal GAE's Z bit for bit.

Operators: every training A~ is symmetric, and the backward passes
exploit that (its transpose product is the same spmm).  The inductive
evaluation operator of :func:`gemi.graph.attach_test_items` is one-way
(test rows read training columns, never the reverse); only clean
forwards take it, so no backward ever sees it.  Backward passes treat
the reparameterization noise as a constant (pathwise estimator).
Caches hold every intermediate needed, so a backward call never
recomputes a forward quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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


def dropout_mask(rng: SeededRng, shape, rate: float) -> np.ndarray | None:
    """Inverted-dropout mask: entries 0 or 1/(1-rate); ``None`` (no mask) at rate 0."""
    if rate == 0.0:
        return None
    keep = rng.random(shape) < (1.0 - rate)
    return keep / (1.0 - rate)


def draw_feature_masks(rng: SeededRng, n: int, d: int, hidden: int, rate: float):
    """Masks for the input features and the hidden activations."""
    return dropout_mask(rng, (n, d), rate), dropout_mask(rng, (n, hidden), rate)


def hidden_layer(params, adj, X, masks=None):
    """First layer of all three kinds: h = ReLU(A~ drop(X) W0).

    ``adj`` is the normalized csr_array A~ and ``masks`` the (input,
    hidden) dropout masks from :func:`draw_feature_masks`; ``None`` is
    a clean evaluation pass.  Returns the cache that the output layers
    and the backward passes read; ``hd`` is h after hidden dropout.
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
    return {"adj": adj, "m1": m1, "h_pre": h_pre, "h": h, "hd": hd, "masks": masks}


def _narrows(w_out) -> bool:
    """Whether W_out maps to fewer columns than it takes (the order rule)."""
    return w_out.shape[1] < w_out.shape[0]


def output_layer(cache, w_out):
    """Second layer A~ hd W_out, with the spmm on the narrower side.

    A narrowing W_out is applied first, so the spmm runs at the output
    width; otherwise hd is propagated first and m2 = A~ hd is cached,
    for the backward pass and for a second branch on the same cache.
    """
    adj, hd = cache["adj"], cache["hd"]
    if _narrows(w_out):
        return spmm(adj, matmul(hd, w_out))
    if "m2" not in cache:
        cache["m2"] = spmm(adj, hd)
    return matmul(cache["m2"], w_out)


def propagate(params, adj, X, w_out, masks=None):
    """Two-layer skeleton A~ drop(ReLU(A~ drop(X) W0)) W_out; returns (out, cache)."""
    cache = hidden_layer(params, adj, X, masks)
    return output_layer(cache, w_out), cache


def _linear_backward(x, w, d_out):
    """Gradients of out = x @ w: returns (dW, dx)."""
    d_w = matmul(np.ascontiguousarray(x.T), d_out)
    d_x = matmul(d_out, np.ascontiguousarray(w.T))
    return d_w, d_x


def _output_backward(cache, branches):
    """Gradient of :func:`output_layer` for each (W_out, d_out) branch on one cache.

    The branches share W_out's shape (VGAE's mu and log_sigma), so they
    share its order: narrowing, each d_out is propagated and hdᵀ is formed
    once; propagating first, the branches' d_m2 are summed before one
    spmm.  Returns ([dW_out per branch], d_hd).
    """
    adj = cache["adj"]
    if _narrows(branches[0][0]):
        hd_t = np.ascontiguousarray(cache["hd"].T)
        d_ps = [spmm(adj, d_out) for _, d_out in branches]  # A~ is symmetric
        d_hd = reduce(np.add, (matmul(d_p, np.ascontiguousarray(w.T)) for (w, _), d_p in zip(branches, d_ps)))
        return [matmul(hd_t, d_p) for d_p in d_ps], d_hd
    m2_t = np.ascontiguousarray(cache["m2"].T)
    d_m2 = reduce(np.add, (matmul(d_out, np.ascontiguousarray(w.T)) for w, d_out in branches))
    return [matmul(m2_t, d_out) for _, d_out in branches], spmm(adj, d_m2)


def _hidden_backward(cache, d_hd) -> np.ndarray:
    """Gradient of :func:`hidden_layer`: d_hd -> dW0."""
    _, mask_hidden = cache["masks"]
    d_h = d_hd * mask_hidden if mask_hidden is not None else d_hd
    d_h_pre = d_h * (cache["h_pre"] > 0.0)
    return matmul(np.ascontiguousarray(cache["m1"].T), d_h_pre)


def propagate_backward(cache, w_out, d_out):
    """Gradient of :func:`propagate`: d_out -> (dW0, dW_out)."""
    (d_w_out,), d_hd = _output_backward(cache, [(w_out, d_out)])
    return _hidden_backward(cache, d_hd), d_w_out


def gcn_forward(params: GcnParams, adj, X, masks=None):
    """Two-layer GCN logits; cache carries all backprop intermediates."""
    return propagate(params, adj, X, params.w1, masks)


def gcn_backward(params: GcnParams, cache, d_logits) -> dict[str, np.ndarray]:
    d_w0, d_w1 = propagate_backward(cache, params.w1, d_logits)
    return {"w0": d_w0, "w1": d_w1}


def _head_decoder_backward(params, cache, d_logits, dZ_rec):
    """Pull of the label head and the inner-product decoder on Z.

    Returns (d_head, dZ): the head's gradient and the total latent
    gradient, the head's pull plus ``dZ_rec``, the decoder's dL/dZ as
    :func:`gemi.losses.recon_loss_and_grad` returns it.
    """
    d_head, dZ = _linear_backward(cache["Z"], params.head, d_logits)
    return d_head, dZ + dZ_rec


def gae_forward(params: GaeParams, adj, X, masks=None):
    Z, cache = propagate(params, adj, X, params.w1, masks)
    cache["Z"] = Z
    logits = matmul(Z, params.head)
    return {"Z": Z, "logits": logits}, cache


def gae_backward(params: GaeParams, cache, d_logits, dZ_rec) -> dict[str, np.ndarray]:
    """Combine supervised and reconstruction pull on the latent."""
    d_head, dZ = _head_decoder_backward(params, cache, d_logits, dZ_rec)
    d_w0, d_w1 = propagate_backward(cache, params.w1, dZ)
    return {"w0": d_w0, "w1": d_w1, "head": d_head}


def vgae_encode(params: VgaeParams, adj, X, masks=None):
    """Shared-first-layer encoder: returns (mu, log_sigma, cache).

    Each branch is its own output layer on the shared cache, so mu is
    computed exactly as GAE computes Z from the same weights.
    """
    cache = hidden_layer(params, adj, X, masks)
    mu = output_layer(cache, params.w_mu)
    ls_pre = output_layer(cache, params.w_sigma)
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
    (d_w_mu, d_w_sigma), d_hd = _output_backward(cache, [(params.w_mu, d_mu), (params.w_sigma, d_ls_pre)])
    return {"w0": _hidden_backward(cache, d_hd), "w_mu": d_w_mu, "w_sigma": d_w_sigma, "head": d_head}

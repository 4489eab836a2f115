"""The three graph backbones with hand-derived backward passes.

One :func:`forward` and one :func:`backward` serve every model kind.
All three share the first layer H = drop(ReLU(A~ drop(X) W0))
(:func:`hidden_layer`); the caller draws the inverted-dropout masks and
the VGAE noise, so a forward never consumes randomness of its own.
Forward formulas:

* GCN:  logits = A~ H W1.
* GAE:  latent Z = A~ H W1 and label head logits = Z head.  The
  inner-product decoder sigma(Z Z^T) is evaluated only inside the
  reconstruction loss (:func:`gemi.losses.recon_loss_and_grad`), which
  hands its dL/dZ to :func:`backward`.
* VGAE: mu = A~ H W_mu and log_sigma = clamp(A~ H W_sig);
  Z = mu + exp(log_sigma) * eps and logits = Z head.

Weights: a model is a plain dict from weight name to array, as
:func:`init_params` draws it; Adam, clipping and the gradient check all
walk that dict in its key order, and :func:`backward` returns its
gradients under the same names, in the same order.

Order: the second layer A~ H W_out forms H W_out first and propagates
only that, forward and backward, so its spmm runs at the output width.
Every default and benchmark width narrows there (hidden -> c logits for
GCN, hidden -> latent for GAE/VGAE), so this is the cheaper order; a
latent at or above hidden pays its second spmm at the wider output.
VGAE runs each branch on its own (mu through W_mu, log_sigma through
W_sigma, on the same cached H), never the concatenated
[W_mu | W_sigma]: one product per branch keeps mu at zero noise equal
to GAE's Z of the same weights bit for bit.

Operators: every training A~ is selected from the run's
:class:`gemi.graph.AdjacencyPattern` and is symmetric, and the backward
passes exploit that (its transpose product is the same spmm).  The
inductive evaluation operator of :func:`gemi.graph.attach_test_items`
extends the clean training operator by one-way rows (test rows read
training columns, never the reverse); only clean forwards take it, so
no backward ever sees it.  Backward passes treat the reparameterization
noise as a constant (pathwise estimator).

Dropout masks are bool keep masks with one scale 1/(1 - rate), applied
as ``x *= keep`` then ``x *= scale``: the same products as a float mask
of 0 and 1/(1 - rate), at an eighth of its memory.

Caches hold only what the backward reads: :func:`hidden_layer` caches
``adj``, ``m1`` = A~ drop(X), ``hd`` (after ReLU and dropout),
``mask_hidden`` and its ``scale``; :func:`forward` adds ``Z`` for GAE
and VGAE, and VGAE also ``eps``, ``log_sigma`` and ``inside``.
``_hidden_backward`` consumes the fresh ``d_hd`` that
``_output_backward`` returns.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .numerics import SeededRng, as_matrix, matmul, spmm


def glorot(rng: SeededRng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def init_params(kind: str, d: int, hidden: int, latent: int, c: int, rng: SeededRng) -> dict[str, np.ndarray]:
    """Glorot-uniform weights from a dedicated substream, drawn in key order."""
    shapes = {
        "gcn": {"w0": (d, hidden), "w1": (hidden, c)},
        "gae": {"w0": (d, hidden), "w1": (hidden, latent), "head": (latent, c)},
        "vgae": {"w0": (d, hidden), "w_mu": (hidden, latent), "w_sigma": (hidden, latent), "head": (latent, c)},
    }
    if kind not in shapes:
        raise ValueError(f"unknown model kind {kind!r}")
    return {name: glorot(rng, *shape) for name, shape in shapes[kind].items()}


def dropout_mask(rng: SeededRng, shape, rate: float) -> np.ndarray | None:
    """Bool keep mask of inverted dropout, each entry kept with probability
    1 - rate; ``None`` (no mask) at rate 0.  Its user scales the kept
    entries by 1/(1 - rate)."""
    if rate == 0.0:
        return None
    return rng.random(shape) < (1.0 - rate)


def draw_feature_masks(rng: SeededRng, n: int, d: int, hidden: int, rate: float):
    """(input keep mask, hidden keep mask, scale 1/(1 - rate) of the kept entries)."""
    return dropout_mask(rng, (n, d), rate), dropout_mask(rng, (n, hidden), rate), 1.0 / (1.0 - rate)


def _apply_mask(x, keep, scale) -> None:
    """x *= keep, then x *= scale, in place: for each entry x · 1 · s = x · s,
    or x · 0 with its sign, the products of a 0-or-s float mask."""
    x *= keep
    x *= scale


def hidden_layer(params, adj, X, masks=None):
    """First layer of all three kinds: hd = drop(ReLU(A~ drop(X) W0)).

    ``adj`` is the normalized csr_array A~ and ``masks`` the (input,
    hidden, scale) dropout masks from :func:`draw_feature_masks`;
    ``None`` is a clean evaluation pass, whose ``hd`` is h itself.  ReLU
    and the hidden mask are applied in place on the pre-activation buffer.
    """
    mask_in, mask_hidden, scale = masks if masks is not None else (None, None, 1.0)
    X = as_matrix(X)
    if mask_in is not None:
        X = X * mask_in
        X *= scale
    m1 = spmm(adj, X)
    hd = matmul(m1, params["w0"])
    np.maximum(hd, 0.0, out=hd)
    if mask_hidden is not None:
        _apply_mask(hd, mask_hidden, scale)
    return {"adj": adj, "m1": m1, "hd": hd, "mask_hidden": mask_hidden, "scale": scale}


def output_layer(cache, w_out):
    """Second layer A~ hd W_out: hd W_out first, then one spmm at the output width."""
    return spmm(cache["adj"], matmul(cache["hd"], w_out))


def _output_backward(params, cache, branches):
    """Gradient of :func:`output_layer` for each branch on one cache.

    ``branches`` maps a weight name to its d_out.  Each d_out is
    propagated (A~ is symmetric) and multiplied by the transposed view
    hdᵀ (VGAE has two branches, mu and log_sigma).  Returns
    ({name: dW_out}, d_hd).
    """
    adj = cache["adj"]
    d_ps = {name: spmm(adj, d_out) for name, d_out in branches.items()}
    d_hd = reduce(np.add, (matmul(d_p, params[name].T) for name, d_p in d_ps.items()))
    return {name: matmul(cache["hd"].T, d_p) for name, d_p in d_ps.items()}, d_hd


def _hidden_backward(cache, d_hd) -> np.ndarray:
    """Gradient of :func:`hidden_layer`: d_hd -> dW0; masks and gates ``d_hd`` in place.

    The ReLU gate reads ``hd > 0``: the mask scale 1/(1 - rate) is at
    least 1, so where the mask is nonzero that is ``h_pre > 0``, and where
    it is zero d_h is already a signed zero that either gate keeps.
    """
    mask_hidden = cache["mask_hidden"]
    if mask_hidden is not None:
        _apply_mask(d_hd, mask_hidden, cache["scale"])
    d_hd *= cache["hd"] > 0.0
    return matmul(cache["m1"].T, d_hd)


def forward(kind, params, adj, X, masks=None, eps=None, clamp=None):
    """One forward pass of ``kind``: returns (outputs, cache).

    The outputs hold ``logits``; gae and vgae add the latent ``Z`` and
    vgae its ``mu`` and ``log_sigma``.  vgae takes the reparameterization
    noise ``eps`` (n x latent) and clips log_sigma to [-clamp, clamp];
    the cache keeps where it was not (``inside``), which is where its
    gradient flows.
    """
    cache = hidden_layer(params, adj, X, masks)
    if kind == "gcn":
        return {"logits": output_layer(cache, params["w1"])}, cache
    if kind == "gae":
        out = {"Z": output_layer(cache, params["w1"])}
    else:
        mu = output_layer(cache, params["w_mu"])
        ls_pre = output_layer(cache, params["w_sigma"])
        log_sigma = np.clip(ls_pre, -clamp, clamp)
        cache.update(eps=eps, log_sigma=log_sigma, inside=np.abs(ls_pre) < clamp)
        out = {"mu": mu, "log_sigma": log_sigma, "Z": mu + np.exp(log_sigma) * eps}
    cache["Z"] = out["Z"]
    out["logits"] = matmul(out["Z"], params["head"])
    return out, cache


def backward(kind, params, cache, d_logits, dZ_rec=None, d_mu_kl=None, d_ls_kl=None) -> dict[str, np.ndarray]:
    """Gradients of one :func:`forward` pass, in ``params`` key order.

    ``d_logits`` is the (weighted) supervised pull on the logits,
    ``dZ_rec`` the decoder's dL/dZ as
    :func:`gemi.losses.recon_loss_and_grad` returns it, and
    ``d_mu_kl`` / ``d_ls_kl`` the (beta-scaled) KL gradients of vgae.
    The key order matters: the global-norm clip sums the squared norms
    in dict order.
    """
    grads = {}
    if kind == "gcn":
        branches = {"w1": d_logits}
    else:
        grads["head"] = matmul(cache["Z"].T, d_logits)
        dZ = matmul(d_logits, params["head"].T) + dZ_rec
        if kind == "gae":
            branches = {"w1": dZ}
        else:
            d_ls = dZ * cache["eps"] * np.exp(cache["log_sigma"]) + d_ls_kl
            branches = {"w_mu": dZ + d_mu_kl, "w_sigma": d_ls * cache["inside"]}
    d_outs, d_hd = _output_backward(params, cache, branches)
    grads.update(d_outs, w0=_hidden_backward(cache, d_hd))
    return {name: grads[name] for name in params}


def represent(kind, params, adj, X):
    """Clean (dropout-free) forward: each item's model representation.

    gcn represents an item by its hidden state h = ReLU(A~ X W0), gae by
    its latent Z and vgae by its mean mu.  ``adj`` may be the one-way
    inductive operator: a clean forward only ever multiplies by it, never
    by its transpose.
    """
    cache = hidden_layer(params, adj, X)
    if kind == "gcn":
        return cache["hd"]  # no mask on a clean pass, so hd is h
    return output_layer(cache, params["w1" if kind == "gae" else "w_mu"])

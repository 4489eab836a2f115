"""Dense oracle for the three backbones' forward and backward passes.

Every product is a dense ``numpy`` one and the second layer always
propagates first: m2 = A @ hd, then m2 @ W_out (the wide order).  The
backward pass is written out by hand from the forward formulas, with
no shared code with ``gemi.models``, which multiplies by W_out before
it propagates and is checked against this on narrowing and widening
shapes.  ``clamp`` bounds VGAE's log sigma.
"""

import numpy as np


def dense_forward(kind, params, A, X, masks=None, eps=None, clamp=None):
    """(outputs, intermediates) of one pass; ``A`` is the dense A~."""
    keep_in, keep_hidden, scale = masks if masks is not None else (1.0, 1.0, 1.0)
    mask_in, mask_hidden = keep_in * scale, keep_hidden * scale
    m1 = A @ (X * mask_in)
    h_pre = m1 @ params["w0"]
    h = np.maximum(h_pre, 0.0)
    hd = h * mask_hidden
    m2 = A @ hd
    inter = {"m1": m1, "h_pre": h_pre, "h": h, "m2": m2, "mask_hidden": mask_hidden}
    if kind == "gcn":
        return {"logits": m2 @ params["w1"]}, inter
    if kind == "gae":
        Z = m2 @ params["w1"]
        return {"Z": Z, "logits": Z @ params["head"]}, inter
    mu = m2 @ params["w_mu"]
    ls_pre = m2 @ params["w_sigma"]
    log_sigma = np.clip(ls_pre, -clamp, clamp)
    Z = mu + np.exp(log_sigma) * eps
    inter.update(ls_pre=ls_pre)
    return {"mu": mu, "log_sigma": log_sigma, "Z": Z, "logits": Z @ params["head"]}, inter


def dense_backward(
    kind, params, A, X, d_logits, masks=None, eps=None, dZ_rec=None, d_mu_kl=None, d_ls_kl=None, clamp=None
):
    """Weight gradients given the upstream gradients of one pass.

    ``d_logits`` is dL/dlogits; gae and vgae add the decoder's
    ``dZ_rec``, and vgae the KL gradients on mu and log_sigma.
    """
    out, inter = dense_forward(kind, params, A, X, masks, eps, clamp)
    m2 = inter["m2"]
    grads = {}
    if kind == "gcn":
        grads["w1"] = m2.T @ d_logits
        d_m2 = d_logits @ params["w1"].T
    else:
        grads["head"] = out["Z"].T @ d_logits
        dZ = d_logits @ params["head"].T + dZ_rec
        if kind == "gae":
            grads["w1"] = m2.T @ dZ
            d_m2 = dZ @ params["w1"].T
        else:
            d_mu = dZ + d_mu_kl
            d_ls = dZ * eps * np.exp(out["log_sigma"]) + d_ls_kl
            d_ls_pre = d_ls * (np.abs(inter["ls_pre"]) < clamp)
            grads["w_mu"] = m2.T @ d_mu
            grads["w_sigma"] = m2.T @ d_ls_pre
            d_m2 = d_mu @ params["w_mu"].T + d_ls_pre @ params["w_sigma"].T
    d_hd = A.T @ d_m2
    d_h_pre = d_hd * inter["mask_hidden"] * (inter["h_pre"] > 0.0)
    grads["w0"] = inter["m1"].T @ d_h_pre
    return out, grads

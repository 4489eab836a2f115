"""Optimization loop, training protocols, and the gradient-check harness.

Determinism contract: (config, seed) fixes every artifact bit-for-bit.
All randomness is drawn from purpose-tagged substreams (init, augment,
edge_dropout, feature_dropout, noise), so adding or reordering one
consumer can never shift another's stream.

Leakage contract: transductively, test features join the graph but the
loss sees train rows only; inductively, test items are invisible until
training ends and are then attached by a one-way operator whose rows
never read another test item, so one test item can never influence
another's prediction.  Both protocols share one evaluation forward.

State built once per run: :func:`train_model` builds the base graph, and
the training loop lays out its adjacency pattern, clean operator and,
for gae/vgae, reconstruction targets before the first epoch.  An epoch
draws only its edge-dropout keep mask, selects its operator from the
pattern and scores the targets.  The clean operator is the run's only
normalized operator: the transductive evaluation forward reuses it, and
the inductive one extends it by the attached test rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import models
from .config import default_config
from .graph import (
    TAGS,
    AdjacencyPattern,
    ItemGraph,
    attach_test_items,
    augment_label_edges,
    edge_dropout,
    epsilon_graph,
    knn_graph_symmetric,
)
from .ingest import LABEL_NAMES
from .losses import (
    LossConfig,
    ReconTargets,
    kl_and_grads,
    kl_anneal,
    positive_weights,
    recon_loss_and_grad,
    supervised_loss_and_grad,
)
from .numerics import SeededRng, finite_difference_gradient

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates per parameter tensor."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @staticmethod
    def for_weights(weights: dict[str, np.ndarray]) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(w) for k, w in weights.items()},
            v={k: np.zeros_like(w) for k, w in weights.items()},
        )


def clip_global_norm(grads: dict[str, np.ndarray], tau: float) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients by tau/‖g‖ when the global norm exceeds tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > tau:
        scale = tau / total
        grads = {k: g * scale for k, g in grads.items()}
    return grads, total


def adam_step(
    state: AdamState,
    weights: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    weight_decay: float,
) -> None:
    """In-place bias-corrected Adam update with coupled L2 decay."""
    state.t += 1
    b1t = 1.0 - ADAM_BETA1**state.t
    b2t = 1.0 - ADAM_BETA2**state.t
    for k, w in weights.items():
        g = grads[k]
        if g.shape != w.shape:
            raise ValueError(f"gradient shape mismatch for {k!r}")
        if weight_decay:
            g = g + weight_decay * w
        state.m[k] = ADAM_BETA1 * state.m[k] + (1.0 - ADAM_BETA1) * g
        state.v[k] = ADAM_BETA2 * state.v[k] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[k] / b1t
        v_hat = state.v[k] / b2t
        w -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class TrainedModel:
    """Frozen model plus everything evaluation needs.

    ``representations`` is aligned to the global panel order: the clean
    forward of the trained weights on the evaluation operator, the full
    graph's normalized adjacency transductively and the one-way
    attachment operator inductively.  ``edges_dropped_per_epoch`` is the
    mean count of base-graph edges that edge dropout removed per epoch.
    """

    params: dict[str, np.ndarray]
    base_graph: ItemGraph
    representations: np.ndarray
    epochs: list[dict]
    edges_dropped_per_epoch: float
    wall_time_s: float


def build_graph(cfg: dict, X, Y, train_mask_local, rng: SeededRng) -> ItemGraph:
    """The run's base item graph over the rows of X, label-augmented from the train rows."""
    g_cfg = cfg["graph"]
    if g_cfg["kind"] == "knn":
        g = knn_graph_symmetric(X, g_cfg["k"], g_cfg["similarity_floor"])
    else:
        g = epsilon_graph(X, g_cfg["epsilon"])
    aug_rng = rng.substream("augment")
    for entry in g_cfg["augment"]:
        label_idx = LABEL_NAMES.index(entry["label"])
        g = augment_label_edges(g, X, Y, label_idx, entry["k"], entry["max_nodes"], train_mask_local, aug_rng)
    return g


def objective_and_grads(kind, params, adj, X, Y, mask, pos_w, loss_cfg, masks, eps, recon, beta, clamp):
    """The training objective of one model kind and its analytic gradient.

    Training calls this once per epoch and the gradient check calls it
    with frozen inputs, so the check verifies the code that trains.
    ``masks`` are the feature-dropout masks, ``eps`` the VGAE noise,
    ``recon`` the :class:`~gemi.losses.ReconTargets` of the A + I
    reconstruction target (laid out from the clean normalized adjacency
    of the base graph), ``beta`` the KL weight and ``clamp`` the bound on
    VGAE's log sigma (``model.logsig_clamp``); gcn ignores the last
    four, gae the last two.  One :func:`gemi.models.forward` and one
    :func:`gemi.models.backward` run every kind; the weighted loss
    gradients are the upstream pulls the backward takes.  This is the
    only place the loss terms are weighted:

    * gcn:  sup
    * gae:  rec + lambda_sup · sup
    * vgae: rec + beta · kl + lambda_ssl · sup

    Returns (total, report of loss parts, grads per weight).
    """
    out, cache = models.forward(kind, params, adj, X, masks, eps, clamp)
    sup, d_sup = supervised_loss_and_grad(loss_cfg, out["logits"], Y, pos_w, mask)
    if kind == "gcn":
        return sup, {"sup": sup, "total": sup}, models.backward(kind, params, cache, d_sup)
    rec, dZ_rec = recon_loss_and_grad(out["Z"], recon)
    if kind == "gae":
        total = rec + loss_cfg.lambda_sup * sup
        grads = models.backward(kind, params, cache, loss_cfg.lambda_sup * d_sup, dZ_rec)
        return total, {"rec": rec, "sup": sup, "total": total}, grads
    kl, d_mu_kl, d_ls_kl = kl_and_grads(out["mu"], out["log_sigma"])
    total = rec + beta * kl + loss_cfg.lambda_ssl * sup
    grads = models.backward(
        kind, params, cache, loss_cfg.lambda_ssl * d_sup, dZ_rec, beta * d_mu_kl, beta * d_ls_kl
    )
    return total, {"rec": rec, "kl": kl, "beta": beta, "sup": sup, "total": total}, grads


def _train_loop(cfg: dict, base_graph: ItemGraph, X, Y, train_mask_local, rng: SeededRng):
    """Core optimization over the base graph's fixed node set.

    Returns (params, its clean operator, epoch logs, mean edges dropped per epoch).
    """
    kind = cfg["model"]["kind"]
    m_cfg = cfg["model"]
    loss_cfg = LossConfig(**cfg["loss"])
    n, d = X.shape
    c = Y.shape[1]

    pos_w = positive_weights(Y[train_mask_local])

    params = models.init_params(kind, d, m_cfg["hidden"], m_cfg["latent"], c, rng.substream("init"))
    adam = AdamState.for_weights(params)

    edge_rng = rng.substream("edge_dropout")
    drop_rng = rng.substream("feature_dropout")
    noise_rng = rng.substream("noise")

    pattern = AdjacencyPattern(base_graph)
    clean_adj = pattern.operator()
    # the clean normalized adjacency is nonzero exactly on the A + I
    # reconstruction targets
    recon = ReconTargets(clean_adj) if kind in ("gae", "vgae") else None
    ramp = max(1, int(round(m_cfg["kl_ramp_fraction"] * m_cfg["epochs"])))
    exempt = base_graph.tags == TAGS.index("label-augment") if cfg["graph"]["augment_exempt_from_dropout"] else None

    epoch_logs = []
    dropped = 0
    for epoch in range(m_cfg["epochs"]):
        keep = edge_dropout(base_graph, cfg["graph"]["edge_dropout"], edge_rng, exempt)
        dropped += base_graph.m - int(np.count_nonzero(keep))
        adj = pattern.operator(keep)
        masks = models.draw_feature_masks(drop_rng, n, d, m_cfg["hidden"], m_cfg["dropout"])
        eps = noise_rng.normal(size=(n, m_cfg["latent"])) if kind == "vgae" else None
        beta = kl_anneal(epoch, ramp, loss_cfg.beta_max)
        _, report, grads = objective_and_grads(
            kind, params, adj, X, Y, train_mask_local, pos_w, loss_cfg, masks, eps, recon, beta, m_cfg["logsig_clamp"]
        )
        grads, grad_norm = clip_global_norm(grads, m_cfg["clip_norm"])
        report["grad_norm"] = float(grad_norm)
        for part, value in report.items():
            if not np.isfinite(value):
                raise FloatingPointError(f"epoch {epoch}: non-finite {part} ({value})")
        adam_step(adam, params, grads, m_cfg["lr"], m_cfg["weight_decay"])
        epoch_logs.append(report)
    return params, clean_adj, epoch_logs, dropped / m_cfg["epochs"]


def train_model(features, labels, train_mask, test_mask, cfg: dict, rng: SeededRng) -> TrainedModel:
    """Train one model, then represent the items with one clean forward.

    Transductively the graph spans every item and the loss reads the
    train rows; the forward runs on the clean normalized adjacency.
    Inductively the items are taken in the local order [train..., test...]
    and training sees the train rows alone; the forward then runs on the
    clean operator extended by :func:`attach_test_items`, and its rows are
    scattered back to the global order (items in neither split keep zero
    rows).
    """
    train_mask = np.asarray(train_mask, dtype=bool)
    if not train_mask.any():
        raise ValueError("training requires a nonempty train split")
    start = time.perf_counter()
    if cfg["protocol"] == "inductive":
        order = np.concatenate([np.flatnonzero(train_mask), np.flatnonzero(test_mask)])
        n_fit = int(train_mask.sum())
        X = features[order]
        fit = (X[:n_fit], labels[order[:n_fit]], np.ones(n_fit, dtype=bool))
    else:
        order, X, fit = None, features, (features, labels, train_mask)
    base_graph = build_graph(cfg, *fit, rng)
    params, adj, epoch_logs, dropped = _train_loop(cfg, base_graph, *fit, rng)
    if order is not None:  # inductive: attach the test rows to the trained graph
        # only the graph.k fallback is clamped: an epsilon graph does not bound it
        attach_k = cfg["graph"]["attach_k"] or min(cfg["graph"]["k"], n_fit)
        # rebinding adj frees the clean operator once the attachment holds its copy
        adj = attach_test_items(adj, X[:n_fit], X[n_fit:], attach_k)
    reps = models.represent(cfg["model"]["kind"], params, adj, X)
    if order is not None:  # scatter the local rows back to the global order
        local, reps = reps, np.zeros((features.shape[0], reps.shape[1]))
        reps[order] = local
    return TrainedModel(
        params=params,
        base_graph=base_graph,
        representations=reps,
        epochs=epoch_logs,
        edges_dropped_per_epoch=dropped,
        wall_time_s=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradientCheckResult:
    kind: str
    loss_kind: str
    seed: int
    max_rel_err: float
    passed: bool


def _check_instance(kind: str, loss_kind: str, seed: int, hidden: int = 5, latent: int = 3):
    """Build a small random instance (9 items, 4 features) away from ReLU/clamp kinks."""
    rng = SeededRng(seed)
    n, d = 9, 4
    for attempt in range(50):
        inst = rng.substream(f"instance{attempt}")
        X = inst.normal(size=(n, d))
        Y = (inst.random((n, 3)) < 0.4).astype(np.int64)
        mask = np.zeros(n, dtype=bool)
        mask[inst.permutation(n)[: max(2, n // 2)]] = True
        g = knn_graph_symmetric(X, 2)
        adj = AdjacencyPattern(g).operator()
        params = models.init_params(kind, d, hidden, latent, 3, inst.substream("init"))
        masks = models.draw_feature_masks(inst.substream("drop"), n, d, hidden, 0.2)
        eps = inst.substream("noise").normal(size=(n, latent))
        # reject draws whose pre-activations sit within finite-difference
        # reach of the ReLU kink; every kind shares the first layer
        if np.abs(models.hidden_layer(params, adj, X, masks)["m1"] @ params["w0"]).min() > 1e-3:
            break
    loss_cfg = LossConfig(kind=loss_kind)
    if not Y[mask].sum():
        Y[np.flatnonzero(mask)[0], 0] = 1
    pos_w = positive_weights(Y[mask])
    return X, Y, mask, adj, params, masks, eps, loss_cfg, pos_w


def gradient_check(
    kind: str, loss_kind: str = "focal", seed: int = 0, hidden: int = 5, latent: int = 3
) -> GradientCheckResult:
    """Compare analytic gradients of objective_and_grads with central differences.

    Dropout masks and reparameterization noise are frozen, so the
    objective is a smooth deterministic function of the parameters.
    :func:`~gemi.numerics.finite_difference_gradient` perturbs each
    weight of the instance's model in place, in key order.
    ``max_rel_err`` is the largest |analytic - fd| / max(|analytic|,
    |fd|, 1e-6) over all entries, and the check passes at 1e-4 or below.
    A failure is reported in the result, never raised.  VGAE's log sigma
    is clamped at the default ``model.logsig_clamp``.
    """
    X, Y, mask, adj, params, masks, eps, loss_cfg, pos_w = _check_instance(kind, loss_kind, seed, hidden, latent)
    beta = 0.7  # a nonzero KL weight, so the KL gradient is checked too
    # no edge dropout here, so adj's pattern is the A + I target; built
    # here, so a patched numerics.BLOCK_ROWS reaches the check
    recon = ReconTargets(adj) if kind in ("gae", "vgae") else None
    clamp = default_config("vgae")["model"]["logsig_clamp"]
    args = (kind, params, adj, X, Y, mask, pos_w, loss_cfg, masks, eps, recon, beta, clamp)
    _, _, analytic = objective_and_grads(*args)

    def objective():
        return objective_and_grads(*args)[0]

    try:
        fds = {name: finite_difference_gradient(objective, w) for name, w in params.items()}
    except FloatingPointError:
        max_rel = float("inf")
    else:
        max_rel = float(np.max([
            np.max(np.abs(analytic[name] - fd) / np.maximum(np.maximum(np.abs(analytic[name]), np.abs(fd)), 1e-6))
            for name, fd in fds.items()
        ]))
    return GradientCheckResult(kind=kind, loss_kind=loss_kind, seed=seed, max_rel_err=max_rel, passed=max_rel <= 1e-4)


# (model kind, loss kind) pairs checked per seed
SUITE_CASES = (
    ("gcn", "focal"),
    ("gcn", "wbce"),
    ("gcn", "bce"),
    ("gae", "focal"),
    ("gae", "wbce"),
    ("vgae", "focal"),
    ("vgae", "wbce"),
)


def gradient_check_suite(seeds=range(20)) -> list[GradientCheckResult]:
    """The full acceptance battery: every backbone with each supervised
    loss it is checked under (:data:`SUITE_CASES`), across many seeds."""
    results = []
    for seed in seeds:
        for kind, loss_kind in SUITE_CASES:
            results.append(gradient_check(kind, loss_kind, seed))
    return results

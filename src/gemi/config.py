"""Experiment configuration: JSON schema, per-model defaults, validation.

A config file specifies only what deviates from the defaults for its
model kind; :func:`resolve_config` materializes every field so the
``config.resolved.json`` artifact alone reproduces a run.  Validation
errors carry the JSON path of the offending field.
"""

from __future__ import annotations

import copy
import json

PROTOCOLS = ("transductive", "inductive")
FEATURE_MODES = ("precomputed", "mean", "chunks", "poe")
GRAPH_KINDS = ("knn", "epsilon")
USER_SOURCES = ("synthetic", "real", "augmented")
REPRESENTATIONS = ("model", "raw")


class ConfigError(ValueError):
    """Invalid configuration; message starts with the field path."""


# positives an augment entry keeps when it names no max_nodes
AUGMENT_MAX_NODES = 2500

# what each model kind sets differently; default_config spreads it over the shared defaults
_KIND_DEFAULTS = {
    "gcn": {
        "graph": {"k": 30, "augment": [{"label": "tree", "k": 25}]},
        "model": {
            "hidden": 128,
            "latent": 64,
            "dropout": 0.20,
            "epochs": 450,
            "lr": 3e-4,
            "weight_decay": 2e-3,
        },
    },
    "gae": {
        "graph": {"k": 30, "augment": [{"label": "animal", "k": 18}, {"label": "mythology", "k": 18}, {"label": "tree", "k": 35}]},
        "model": {
            "hidden": 128,
            "latent": 64,
            "dropout": 0.0,
            "epochs": 400,
            "lr": 2e-3,
            "weight_decay": 2e-4,
        },
    },
    "vgae": {
        "graph": {"k": 25, "augment": [{"label": "tree", "k": 25}]},
        "model": {
            "hidden": 256,
            "latent": 128,
            "dropout": 0.0,
            "epochs": 500,
            "lr": 3e-3,
            "weight_decay": 5e-4,
        },
    },
}
MODEL_KINDS = tuple(_KIND_DEFAULTS)


def default_config(model_kind: str = "gcn") -> dict:
    """Fully materialized defaults for one model kind."""
    from dataclasses import asdict

    from .losses import LossConfig

    if model_kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind: must be one of {MODEL_KINDS}, got {model_kind!r}")
    graph, model = _KIND_DEFAULTS[model_kind]["graph"], _KIND_DEFAULTS[model_kind]["model"]
    return {
        "seed": 0,
        "protocol": "transductive",
        "output_dir": "runs/out",
        "dataset": {
            "embeddings": None,
            "labels": None,
            "image": None,
            "text": None,
            "chunks": [],
            "experts": [],
            "test_fraction": 0.2,
        },
        "features": {"mode": "precomputed"},
        "graph": {
            "kind": "knn",
            "k": graph["k"],
            "epsilon": 0.5,
            "similarity_floor": 0.0,
            "edge_dropout": 0.10,
            "augment": [dict(e, max_nodes=AUGMENT_MAX_NODES) for e in graph["augment"]],
            "augment_exempt_from_dropout": False,
            "attach_k": None,
        },
        "model": {
            "kind": model_kind,
            **model,
            "clip_norm": 2.0,
            "logsig_clamp": 10.0,
            "kl_ramp_fraction": 0.5,
        },
        "loss": asdict(LossConfig()),
        "users": {
            "source": "synthetic",
            "interactions": None,
            "augment_target": 10000,
            "pseudo_count": 5.0,
            "gain": 5.0,
            "top_k": 5,
            "p_replace": 0.3,
            "gain_low": 0.8,
            "gain_high": 1.2,
            "bias_sigma": 0.05,
            "noise_sigma": 0.05,
        },
        "eval": {
            "num_users": 50,
            "interactions_k": 5,
            "tau": 0.2,
            "k_rec": 5,
            "representation": "model",
        },
    }


def _merge(base: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"{here}: unknown field")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here}: expected an object")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _check(cond, path, message):
    if not cond:
        raise ConfigError(f"{path}: {message}")


def is_number(x) -> bool:
    """A JSON number: int or float, but not bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_int(value, path, minimum=1):
    """The one rule for integer fields: an int (never a bool) >= ``minimum``."""
    ok = isinstance(value, int) and not isinstance(value, bool) and value >= minimum
    _check(ok, path, f"must be an integer >= {minimum}")


def validate_config(cfg: dict) -> None:
    from .ingest import LABEL_NAMES
    from .losses import LossConfig

    _check_int(cfg["seed"], "seed", minimum=0)
    _check(cfg["protocol"] in PROTOCOLS, "protocol", f"must be one of {PROTOCOLS}")
    _check(cfg["features"]["mode"] in FEATURE_MODES, "features.mode", f"must be one of {FEATURE_MODES}")
    g = cfg["graph"]
    _check(g["kind"] in GRAPH_KINDS, "graph.kind", f"must be one of {GRAPH_KINDS}")
    _check_int(g["k"], "graph.k")
    _check(is_number(g["epsilon"]), "graph.epsilon", "must be a number")
    _check(is_number(g["similarity_floor"]), "graph.similarity_floor", "must be a number")
    _check(is_number(g["edge_dropout"]) and 0.0 <= g["edge_dropout"] <= 1.0, "graph.edge_dropout", "must be in [0, 1]")
    _check(isinstance(g["augment"], list), "graph.augment", "must be a list")
    for i, entry in enumerate(g["augment"]):
        p = f"graph.augment[{i}]"
        _check(isinstance(entry, dict), p, "must be an object")
        _check(set(entry) <= {"label", "k", "max_nodes"}, p, "allowed keys: label, k, max_nodes")
        _check(entry.get("label") in LABEL_NAMES, f"{p}.label", f"must be one of {LABEL_NAMES}")
        _check_int(entry.get("k"), f"{p}.k")
        _check_int(entry.get("max_nodes", AUGMENT_MAX_NODES), f"{p}.max_nodes", minimum=2)
    _check(isinstance(g["augment_exempt_from_dropout"], bool), "graph.augment_exempt_from_dropout", "must be a bool")
    if g["attach_k"] is not None:
        _check_int(g["attach_k"], "graph.attach_k")
    m = cfg["model"]
    for key in ("hidden", "latent", "epochs"):
        _check_int(m[key], f"model.{key}")
    _check(is_number(m["lr"]) and m["lr"] > 0, "model.lr", "must be positive")
    _check(is_number(m["weight_decay"]) and m["weight_decay"] >= 0, "model.weight_decay", "must be nonnegative")
    _check(is_number(m["dropout"]) and 0.0 <= m["dropout"] < 1.0, "model.dropout", "must be in [0, 1)")
    for key in ("clip_norm", "logsig_clamp"):
        _check(is_number(m[key]) and m[key] > 0, f"model.{key}", "must be positive")
    _check(is_number(m["kl_ramp_fraction"]) and 0.0 < m["kl_ramp_fraction"] <= 1.0, "model.kl_ramp_fraction", "must be in (0, 1]")
    try:
        LossConfig(**cfg["loss"])
    except ValueError as exc:
        raise ConfigError(f"loss.{exc}") from None
    u = cfg["users"]
    _check(u["source"] in USER_SOURCES, "users.source", f"must be one of {USER_SOURCES}")
    if u["source"] in ("real", "augmented"):
        _check(isinstance(u["interactions"], str), "users.interactions", "required for real/augmented users")
    _check_int(u["augment_target"], "users.augment_target")
    _check(is_number(u["pseudo_count"]) and u["pseudo_count"] >= 0, "users.pseudo_count", "must be nonnegative")
    _check(is_number(u["gain"]) and u["gain"] > 0, "users.gain", "must be positive")
    _check_int(u["top_k"], "users.top_k")
    _check(is_number(u["p_replace"]) and 0.0 <= u["p_replace"] <= 1.0, "users.p_replace", "must be in [0, 1]")
    for key in ("gain_low", "gain_high"):
        _check(is_number(u[key]), f"users.{key}", "must be a number")
    _check(u["gain_low"] <= u["gain_high"], "users.gain_low", "must not exceed users.gain_high")
    for key in ("bias_sigma", "noise_sigma"):
        _check(is_number(u[key]) and u[key] >= 0, f"users.{key}", "must be nonnegative")
    ev = cfg["eval"]
    for key in ("num_users", "interactions_k", "k_rec"):
        _check_int(ev[key], f"eval.{key}")
    _check(is_number(ev["tau"]) and 0.0 < ev["tau"] < 1.0, "eval.tau", "must be in (0, 1)")
    _check(ev["representation"] in REPRESENTATIONS, "eval.representation", f"must be one of {REPRESENTATIONS}")
    _check(isinstance(cfg["output_dir"], str) and cfg["output_dir"], "output_dir", "must be a nonempty string")
    d = cfg["dataset"]
    for key in ("embeddings", "labels", "image", "text"):
        _check(d[key] is None or isinstance(d[key], str), f"dataset.{key}", "must be a string or null")
    for key in ("chunks", "experts"):
        ok = isinstance(d[key], list) and all(isinstance(path, str) for path in d[key])
        _check(ok, f"dataset.{key}", "must be a list of strings")
    _check(is_number(d["test_fraction"]) and 0.0 < d["test_fraction"] < 1.0, "dataset.test_fraction", "must be in (0, 1)")


def resolve_config(raw: dict) -> dict:
    """Merge a partial config over the defaults for its model kind."""
    if not isinstance(raw, dict):
        raise ConfigError(": config root must be a JSON object")
    model = raw.get("model")
    kind = model.get("kind", "gcn") if isinstance(model, dict) else "gcn"  # else _merge names the section
    cfg = _merge(default_config(kind), raw, "")
    validate_config(cfg)
    for entry in cfg["graph"]["augment"]:
        entry.setdefault("max_nodes", AUGMENT_MAX_NODES)  # the resolved config records it
    return cfg


def read_config(path) -> dict:
    """The raw JSON config at ``path``, before defaults are merged in."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def load_config(path) -> dict:
    return resolve_config(read_config(path))


def set_by_path(raw: dict, dotted: str, value) -> dict:
    """Return a copy of a raw config with the scalar field at dotted path set.

    The path is checked against the defaults, which have the same key
    paths for every kind; sections missing from ``raw`` are created.
    """
    node = default_config()
    parts = dotted.split(".")
    for key in parts:
        if not isinstance(node, dict) or key not in node:
            raise ConfigError(f"{dotted}: no such config field")
        node = node[key]
    if isinstance(node, (dict, list)):
        raise ConfigError(f"{dotted}: not a scalar field")
    out = copy.deepcopy(raw)
    node = out
    for key in parts[:-1]:
        node = node.setdefault(key, {})
    node[parts[-1]] = value
    return out

"""Traced `gemi run`: spans and work counts at public gemi function boundaries.

Child side (run as a script)::

    python perfbench/tracer.py TRACE.json run --config CFG --out DIR

imports ``gemi.cli``, wraps every name in :data:`TARGETS` in each gemi
module that resolves it (``gemi.models.spmm`` and ``gemi.train.spmm``
are both the object ``gemi.numerics.spmm``), then runs
``gemi.cli.main`` exactly as ``python -m gemi.cli`` would.  Each call
records one span: name, start, end, parent span, the process's peak RSS
at its end, and work counts computed from the argument and result
shapes.  Spans stay in memory and are written to TRACE.json at exit.
A target that the program no longer defines is listed as absent; a
counter that no longer fits a signature is listed under count_errors.
Neither stops the run.

Parent side: :func:`layer_metrics` turns the span file into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import inspect
import json
import resource
import sys
import time

MODULES = ("ingest", "graph", "numerics", "models", "losses", "train", "users", "recommend")


def _rows(x) -> int:
    return int(x.shape[0])


def _cols(x) -> int:
    return int(x.shape[1])


def _nbytes(obj) -> int:
    """Bytes held by an array, a sparse matrix, or a tuple of them."""
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    if hasattr(obj, "nbytes"):
        return int(obj.nbytes)
    return sum(int(getattr(obj, a).nbytes) for a in ("data", "indices", "indptr") if hasattr(obj, a))


def _augment_pairs(a) -> int:
    """Cosine pairs scored inside one label's (subsampled) training positives."""
    pos = int(((a["Y"][:, a["label"]] == 1) & a["train_mask"]).sum())
    p = min(pos, a["max_nodes"]) if pos >= 2 else 0
    return p * p


# name -> counter(bound arguments, result) -> {quantity: count}
TARGETS = {
    "ingest.load_embeddings": lambda a, r: {"cells": int(r[1].size)},
    "ingest.load_labels": None,
    "ingest.assign_split": None,
    "ingest.load_interactions": lambda a, r: {"rows": int(r.panels.size)},
    "graph.knn_graph_symmetric": lambda a, r: {"pairs_scored": r.n * r.n, "edges": r.m},
    "graph.augment_label_edges": lambda a, r: {
        "pairs_scored": _augment_pairs(a),
        "edges_added": r.m - a["g"].m,
    },
    "graph.edge_dropout": None,
    "graph.normalize_adjacency": lambda a, r: {"nnz": int(r.nnz)},
    "graph.attach_test_items": lambda a, r: {"pairs_scored": _rows(a["X_test"]) * _rows(a["X_train"])},
    "graph.attachment_blocks": lambda a, r: {"bytes_computed": _nbytes(r)},
    "numerics.spmm": lambda a, r: {"nnz_madds": int(a["adj"].nnz) * _cols(r)},
    "numerics.matmul": lambda a, r: {"flops": 2 * _rows(r) * _cols(r) * _cols(a["a"])},
    "models.gcn_forward": None,
    "models.gcn_backward": None,
    "models.gae_forward": None,
    "models.gae_backward": None,
    "models.decode_scores": lambda a, r: {"bytes_out": _nbytes(r)},
    "losses.recon_loss_from_scores": lambda a, r: {"elements": int(a["scores"].size)},
    "losses.recon_loss_scores_grad": lambda a, r: {"elements": int(a["scores"].size)},
    "losses.supervised_loss": None,
    "losses.supervised_loss_grad": None,
    "train.train_model": None,
    "train.adam_step": None,
    "train.clip_global_norm": None,
    "users.sample_synthetic_users": lambda a, r: {"profiles": len(r)},
    "users.build_real_profiles": lambda a, r: {"profiles": len(r)},
    "users.bootstrap_augment": lambda a, r: {"profiles": len(r)},
    "recommend.evaluate": lambda a, r: {
        "users": len(a["profiles"]),
        "candidates_scored": len(a["profiles"]) * int(a["test_mask"].sum()),
    },
    "recommend.write_metrics_json": None,
    "recommend.write_metrics_csv": None,
}

# Stage boundaries for process.rss_after.<stage>: the peak RSS at the end
# of the last span of the stage.
STAGES = {
    "ingest": ("ingest.load_embeddings", "ingest.load_labels", "ingest.assign_split"),
    "graph": ("graph.knn_graph_symmetric", "graph.augment_label_edges"),
    "train": ("train.train_model",),
    "users": ("users.sample_synthetic_users", "users.build_real_profiles", "users.bootstrap_augment"),
    "eval": ("recommend.evaluate",),
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.count_errors: set[str] = set()

    def wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = {"name": name, "parent": self.stack[-1] if self.stack else None}
            idx = len(self.spans)
            self.spans.append(span)
            self.stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                span["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = counter(bound.arguments, result)
                except Exception:  # a renamed argument must not stop the run
                    self.count_errors.add(name)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target wherever a gemi module binds it; return absent names."""
        absent = []
        gemi_modules = [
            m for k, m in sys.modules.items()
            if k.startswith("gemi.") and k not in ("gemi.kernels", "gemi._core")
        ]
        for name, counter in TARGETS.items():
            module_name, func_name = name.split(".")
            original = getattr(importlib.import_module(f"gemi.{module_name}"), func_name, None)
            if not callable(original):
                absent.append(name)
                continue
            wrapper = self.wrap(name, original, counter)
            for mod in gemi_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return absent


def main(argv: list[str]) -> int:
    trace_path, gemi_argv = argv[0], argv[1:]
    import gemi.cli

    tracer = Tracer()
    absent = tracer.install()
    try:
        return gemi.cli.main(gemi_argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"absent": absent, "count_errors": sorted(tracer.count_errors), "spans": tracer.spans},
                fh,
            )


# ---------------------------------------------------------------------------
# parent side


def layer_metrics(trace: dict, traced_run_s: float) -> dict[str, float]:
    """Per-layer metrics from one span file.

    self_s is a span's duration minus its child spans.  train.epochs is
    the number of edge_dropout calls; train.epoch_s is the loop window
    (first edge_dropout start to last adam_step end, which leaves out
    graph build and the post-loop eval/attach work) divided by it.
    share.<module> is that module's total self time over the traced run_s;
    share.other is the rest (interpreter start, imports, unwrapped code).
    """
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for name in TARGETS:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for i, s in enumerate(spans):
        name = s["name"]
        out[f"{name}.self_s"] += s["end"] - s["start"] - child_s[i]
        out[f"{name}.calls"] += 1
        for quantity, value in s.get("counts", {}).items():
            out[f"{name}.{quantity}"] = out.get(f"{name}.{quantity}", 0) + value

    madds = out.get("numerics.spmm.nnz_madds", 0)
    spmm_s = out["numerics.spmm.self_s"]
    out["numerics.spmm.gmacs_per_s"] = madds / spmm_s / 1e9 if spmm_s > 0 else 0.0

    epochs = out["graph.edge_dropout.calls"]
    out["train.epochs"] = epochs
    drop_starts = [s["start"] for s in spans if s["name"] == "graph.edge_dropout"]
    adam_ends = [s["end"] for s in spans if s["name"] == "train.adam_step"]
    if epochs and adam_ends:
        out["train.epoch_s"] = (max(adam_ends) - min(drop_starts)) / epochs
    else:
        out["train.epoch_s"] = 0.0

    for stage, names in STAGES.items():
        ends = [(s["end"], s["rss_kb"]) for s in spans if s["name"] in names]
        out[f"process.rss_after.{stage}"] = max(ends)[1] / 1024.0 if ends else 0.0

    attributed = 0.0
    for module in MODULES:
        module_s = sum(out[f"{n}.self_s"] for n in TARGETS if n.startswith(module + "."))
        out[f"share.{module}"] = module_s / traced_run_s
        attributed += module_s
    out["share.other"] = 1.0 - attributed / traced_run_s
    out["trace.absent"] = len(trace["absent"])
    out["trace.count_errors"] = len(trace["count_errors"])
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

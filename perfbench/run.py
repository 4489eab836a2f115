"""End-to-end and per-layer benchmark for `gemi run`.

    python3 perfbench/run.py --workload gcn-transductive --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The inputs (planted-label embeddings,
labels without a split column, and for one workload a ratings CSV) are
generated from --seed into .perfbench_work/ and removed at exit.  Each
measured run is one fresh ``python -m gemi.cli run`` process with
PYTHONPATH=<checkout>/src, BLAS pinned to one thread, the numpy kernel
backend and address-space randomization off, repeated while the next
run is expected to end within --seconds (at least MIN_RUNS runs).

--trace 0 prints the end-to-end metrics (medians over the runs):
  run_s        launch-to-exit wall time of one `gemi run` process
  setup_s      launch until gemi.cli is imported and the config resolved,
               from two probe processes before each run, after one warm-up
  peak_rss_mb  that run's own peak RSS, from os.wait4 on its pid
  p_at_k       mean over labels of per-label mean Precision@K (metrics.json)
--trace 1 adds one traced run (perfbench/tracer.py) and prints the
per-layer metrics; trace.overhead_s is its run_s minus the untraced median.

Every run is checked: exit code 0, all four artifacts present, every
P@K in [0, 1], and metrics.json byte-identical across all runs of the
invocation, traced or not.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GEMI_KERNELS": "numpy",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINS)  # before numpy loads BLAS; children inherit it

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ARTIFACTS = ("config.resolved.json", "train_report.json", "metrics.json", "metrics.csv")
SETUP_PROBES_PER_RUN = 2
MIN_RUNS = 3
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
ADDR_NO_RANDOMIZE = 0x0040000  # from <linux/personality.h>

SETUP_PROBE = (
    "import sys, time\n"
    "import gemi, gemi.cli\n"
    "from gemi.config import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(time.monotonic(), gemi.__file__)\n"
)

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p_at_k": "fraction",
}

# (unit, better); units: s, count, B, MB, GMAC/s, fraction
_S, _N = ("s", "lower"), ("count", "lower")
PER_LAYER = {
    "numerics.spmm.self_s": _S,
    "numerics.spmm.calls": _N,
    "numerics.spmm.nnz_madds": _N,
    "numerics.spmm.gmacs_per_s": ("GMAC/s", "higher"),
    "numerics.matmul.self_s": _S,
    "numerics.matmul.calls": _N,
    "numerics.matmul.flops": _N,
    "graph.knn_graph_symmetric.self_s": _S,
    "graph.knn_graph_symmetric.pairs_scored": _N,
    "graph.knn_graph_symmetric.edges": _N,
    "graph.augment_label_edges.self_s": _S,
    "graph.augment_label_edges.pairs_scored": _N,
    "graph.augment_label_edges.edges_added": _N,
    "graph.attach_test_items.self_s": _S,
    "graph.attach_test_items.pairs_scored": _N,
    "graph.attachment_blocks.self_s": _S,
    "graph.attachment_blocks.bytes_computed": ("B", "lower"),
    "graph.edge_dropout.self_s": _S,
    "graph.normalize_adjacency.self_s": _S,
    "graph.normalize_adjacency.nnz": _N,
    "models.gcn_forward.self_s": _S,
    "models.gcn_backward.self_s": _S,
    "models.gae_forward.self_s": _S,
    "models.gae_backward.self_s": _S,
    "models.decode_scores.self_s": _S,
    "models.decode_scores.bytes_out": ("B", "lower"),
    "losses.recon_loss_from_scores.self_s": _S,
    "losses.recon_loss_from_scores.elements": _N,
    "losses.recon_loss_scores_grad.self_s": _S,
    "losses.recon_loss_scores_grad.elements": _N,
    "losses.supervised_loss.self_s": _S,
    "losses.supervised_loss_grad.self_s": _S,
    "train.train_model.self_s": _S,
    "train.adam_step.self_s": _S,
    "train.clip_global_norm.self_s": _S,
    "train.epochs": _N,
    "train.epoch_s": _S,
    "ingest.load_embeddings.self_s": _S,
    "ingest.load_embeddings.cells": _N,
    "ingest.load_labels.self_s": _S,
    "ingest.assign_split.self_s": _S,
    "ingest.load_interactions.self_s": _S,
    "ingest.load_interactions.rows": _N,
    "users.sample_synthetic_users.self_s": _S,
    "users.sample_synthetic_users.profiles": _N,
    "users.build_real_profiles.self_s": _S,
    "users.build_real_profiles.profiles": _N,
    "users.bootstrap_augment.self_s": _S,
    "users.bootstrap_augment.profiles": _N,
    "recommend.evaluate.self_s": _S,
    "recommend.evaluate.users": _N,
    "recommend.evaluate.candidates_scored": _N,
    "recommend.write_metrics_json.self_s": _S,
    "recommend.write_metrics_csv.self_s": _S,
    **{f"process.rss_after.{stage}": ("MB", "lower") for stage in tracer.STAGES},
    **{f"share.{m}": ("fraction", "lower") for m in (*tracer.MODULES, "other")},
    "trace.overhead_s": _S,
    "trace.absent": _N,
    "trace.count_errors": _N,
}



def fix_child_address_layout() -> bool:
    """Turn off address-space randomization for every child started later.

    The personality flag is inherited through fork and exec and touches
    no other process.  With it, one config gives the same peak RSS on
    every run; with randomization, where the allocator lands the n x n
    temporaries moves the peak by up to ~15 MB between identical runs.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    current = libc.personality(0xFFFFFFFF)  # query without changing
    return current != -1 and libc.personality(current | ADDR_NO_RANDOMIZE) != -1


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GEMI_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path, timeout_s: float) -> tuple[float, float, int]:
    """Run one child to completion; return (wall s, its own peak RSS MB, exit code).

    os.wait4 on the child's pid gives that child's ru_maxrss alone, unlike
    RUSAGE_CHILDREN, which keeps the maximum over every child reaped so far.
    """
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        killer = threading.Timer(timeout_s, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def probe_setup(cfg: Path) -> float:
    """One setup_s sample from a probe process.

    The probe prints CLOCK_MONOTONIC once gemi.cli is imported and the
    config resolved; the parent reads the same clock just before launch.
    """
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(cfg)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
    stamp, gemi_file = proc.stdout.split()
    if not Path(gemi_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"gemi was imported from {gemi_file}, not from {SRC}")
    return float(stamp) - t0


def check_run(exit_code: int, out_dir: Path, reference: bytes | None) -> tuple[str, bytes | None]:
    """Return (failure reason or "", metrics.json bytes)."""
    if exit_code != 0:
        return f"exit code {exit_code}", None
    missing = [a for a in ARTIFACTS if not (out_dir / a).is_file()]
    if missing:
        return f"missing artifacts {missing}", None
    raw = (out_dir / "metrics.json").read_bytes()
    try:
        metrics = json.loads(raw)
        values = [v["mean"] for v in metrics["labels"].values()]
        values += [x for row in metrics["per_user"] for x in row]
    except (ValueError, KeyError, TypeError) as exc:
        return f"metrics.json unreadable: {exc}", None
    if not values or not all(0.0 <= v <= 1.0 for v in values):
        return "a P@K value lies outside [0, 1]", None
    if reference is not None and raw != reference:
        return "metrics.json differs from the first run", None
    return "", raw


def p_at_k(raw: bytes) -> float:
    labels = json.loads(raw)["labels"]
    return statistics.fmean(v["mean"] for v in labels.values())


def make_inputs(name: str, seed: int, work: Path) -> Path:
    w = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    features, labels = inputs.planted_panels(rng, w.n)
    emb, lab, ratings = work / "embeddings.csv", work / "labels.csv", None
    inputs.write_panels(str(emb), str(lab), features, labels)
    if w.raters:
        ratings = work / "ratings.csv"
        inputs.write_ratings(str(ratings), inputs.ratings(rng, labels, w.raters, w.ratings_per_rater))
    cfg = work / "config.json"
    cfg.write_text(json.dumps(w.config(seed, str(emb), str(lab), str(ratings) if ratings else None)))
    return cfg


def environment() -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pins": PINS,
    }


def measure(args, cfg: Path, work: Path, t_start: float) -> dict:
    probe_setup(cfg)  # untimed warm-up: page cache and .pyc files
    setup, untraced, traced, failures = [], [], None, []
    reference = None
    t_loop = time.perf_counter()
    attempted = 0
    while (
        len(untraced) < MIN_RUNS
        or (args.trace and traced is None)
        # start another run only if a typical one still ends inside the window
        or time.perf_counter() - t_loop + statistics.median(w for w, _ in untraced) <= args.seconds
    ):
        budget = DEADLINE_S - (time.perf_counter() - t_start)
        if budget <= 0:
            break
        if not args.trace:
            # spread over the window, so setup_s sees the same machine state as run_s
            setup += [probe_setup(cfg) for _ in range(SETUP_PROBES_PER_RUN)]
        do_trace = bool(args.trace) and traced is None and len(untraced) >= 1
        out_dir = work / f"out-{attempted}"
        argv = [sys.executable]
        if do_trace:
            argv += [str(HERE / "tracer.py"), str(work / "trace.json")]
        else:
            argv += ["-m", "gemi.cli"]
        argv += ["run", "--config", str(cfg), "--out", str(out_dir)]
        wall, rss, code = spawn(argv, work / f"run-{attempted}.log", budget)
        attempted += 1
        reason, raw = check_run(code, out_dir, reference)
        if reason:
            failures.append(f"run {attempted}: {reason}")
        elif reference is None:
            reference = raw
        if do_trace:
            traced = (wall, reason)
        elif not reason:
            untraced.append((wall, rss))
        elif len(failures) >= MIN_RUNS:
            break  # a broken program fails every run; stop early
    if not untraced or reference is None:
        raise RuntimeError("no run succeeded: " + "; ".join(failures))

    run_s = statistics.median(w for w, _ in untraced)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    if setup:
        print(f"setup_s probes: {[round(t, 4) for t in setup]}")
    print(f"runs (wall s, peak RSS MB): {[(round(w, 3), round(r, 1)) for w, r in untraced]}")
    for f in failures:
        print(f"FAILED {f}")
    if not args.trace:
        values = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r for _, r in untraced),
            "p_at_k": p_at_k(reference),
        }
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        return result
    traced_s, reason = traced
    if reason:
        raise RuntimeError(f"traced run failed: {reason}")
    trace = json.loads((work / "trace.json").read_text())
    layers = tracer.layer_metrics(trace, traced_s)
    layers["trace.overhead_s"] = traced_s - run_s
    if trace["absent"] or trace["count_errors"]:
        print(f"absent: {trace['absent']}  count errors: {trace['count_errors']}")
    top = sorted((k for k in layers if k.endswith(".self_s")), key=layers.get, reverse=True)[:8]
    print("top self time: " + ", ".join(f"{k} {layers[k] / traced_s:.1%}" for k in top))
    result["metrics"] = {
        k: {"value": layers.get(k, 0), "unit": unit} for k, (unit, _) in PER_LAYER.items()
    }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t_start = time.perf_counter()
    if not (SRC / "gemi" / "cli.py").is_file():
        print(f"error: no gemi source at {SRC}; run from the root of a gemi checkout", file=sys.stderr)
        return 2
    fixed_layout = fix_child_address_layout()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cfg = make_inputs(args.workload, args.seed, work)
        result = measure(args, cfg, work, t_start)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it
    print("env " + json.dumps({**environment(), "child_aslr_off": fixed_layout}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

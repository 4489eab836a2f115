"""Command-line experiment runner.

Subcommands: ``run`` (one config-driven experiment), ``sweep`` (one run
per value of a scalar config field plus a combined CSV), ``users`` (the
user population that a run config evaluates, written as a dataset),
``check`` (the gradient finite-difference suite).  GEMI_SEED overrides the seed of run, users and
every sweep but one over ``seed``.
Exit codes: 0 success, 2 usage or config error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys

import numpy as np

from . import fusion, recommend, users as users_mod
from .config import ConfigError, load_config, read_config, resolve_config, set_by_path
from .ingest import (
    IngestError,
    PanelTable,
    assign_split,
    load_embeddings,
    load_gaussians,
    load_interactions,
    load_labels,
)
from .graph import graph_summary
from .numerics import SeededRng
from .train import gradient_check_suite, train_model


def _require_file(path, field):
    if path is None:
        raise ConfigError(f"{field}: required for this run")
    if not os.path.isfile(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    return path


def _required_list(ds, key: str, mode: str) -> list:
    if not ds[key]:
        raise ConfigError(f"dataset.{key}: required for feature mode {mode!r}")
    return [_require_file(p, f"dataset.{key}[{i}]") for i, p in enumerate(ds[key])]


def _load_features(cfg):
    """(panel ids, feature matrix) for the configured ``features.mode``."""
    mode = cfg["features"]["mode"]
    ds = cfg["dataset"]
    if mode == "precomputed":
        return load_embeddings(_require_file(ds["embeddings"], "dataset.embeddings"))
    if mode == "mean":
        return fusion.mean_fuse(
            load_embeddings(_require_file(ds["image"], "dataset.image")),
            load_embeddings(_require_file(ds["text"], "dataset.text")),
        )
    if mode == "chunks":
        return fusion.chunk_fuse([load_embeddings(p) for p in _required_list(ds, "chunks", mode)])
    return fusion.poe_fuse([load_gaussians(p) for p in _required_list(ds, "experts", mode)])


def _load_table(cfg, rng: SeededRng) -> PanelTable:
    """The configured panels with every split tag assigned and neither split empty.

    Untagged panels get a stratified split from ``rng``'s ``split`` substream.
    """
    ids, features = _load_features(cfg)
    labels, split = load_labels(_require_file(cfg["dataset"]["labels"], "dataset.labels"), ids)
    table = PanelTable(ids=ids, features=features, labels=labels, split=split)
    if (table.split == "unassigned").any():
        table = assign_split(table, cfg["dataset"]["test_fraction"], rng.substream("split"))
    for side, mask in (("train", table.train_mask), ("test", table.test_mask)):
        if not mask.any():
            raise IngestError(f"{cfg['dataset']['labels']}: the {side} split is empty")
    return table


def _build_profiles(cfg, panel_ids, labels, train_mask, rng: SeededRng):
    """The user population that ``cfg["users"]`` and ``cfg["eval"]`` describe.

    Real users come from the ratings file.  Synthetic users sample the
    training panels, and augmented users bootstrap the real ones, with
    draws from ``rng``: the run's ``users`` substream, which ``gemi run``
    and ``gemi users`` both pass, so both build the same population.
    """
    u_cfg = cfg["users"]
    ev = cfg["eval"]
    if u_cfg["source"] == "synthetic":
        return users_mod.sample_synthetic_users(
            np.flatnonzero(train_mask), labels, ev["num_users"], ev["interactions_k"], ev["tau"], rng
        )
    inter = load_interactions(_require_file(u_cfg["interactions"], "users.interactions"), panel_ids)
    profiles = users_mod.build_real_profiles(
        inter,
        labels,
        train_mask,
        pseudo_count=u_cfg["pseudo_count"],
        gain=u_cfg["gain"],
        top_k=u_cfg["top_k"],
    )
    if u_cfg["source"] == "real":
        return profiles
    observed = np.unique(inter.panels[train_mask[inter.panels]])
    return users_mod.bootstrap_augment(
        profiles,
        observed,
        u_cfg["augment_target"],
        ev["interactions_k"],
        u_cfg["p_replace"],
        u_cfg["gain_low"],
        u_cfg["gain_high"],
        u_cfg["bias_sigma"],
        u_cfg["noise_sigma"],
        rng,
    )


def run_pipeline(cfg: dict, out_dir: str) -> recommend.MetricsReport:
    """Execute one resolved experiment and write its artifacts."""
    os.makedirs(out_dir, exist_ok=True)
    recommend.write_json(os.path.join(out_dir, "config.resolved.json"), cfg)

    rng = SeededRng(cfg["seed"])
    table = _load_table(cfg, rng)
    inductive, k = cfg["protocol"] == "inductive", cfg["graph"]["k"]
    n = int(table.train_mask.sum()) if inductive else len(table.ids)
    if cfg["graph"]["kind"] == "knn" and k >= n:
        nodes = "train items" if inductive else "items"
        raise ConfigError(f"graph.k: {k} must be smaller than the {cfg['protocol']} graph's node count, {n} {nodes}")
    attach_k = cfg["graph"]["attach_k"]
    if inductive and attach_k is not None and attach_k > n:
        raise ConfigError(f"graph.attach_k: {attach_k} must not exceed the training count, {n} train items")

    # users before training: a bad ratings file fails before any epoch runs
    profiles = _build_profiles(cfg, table.ids, table.labels, table.train_mask, rng.substream("users"))
    trained = train_model(
        table.features, table.labels, table.train_mask, table.test_mask, cfg, rng.substream("train")
    )

    rep_source = cfg["eval"]["representation"]
    reps = table.features if rep_source == "raw" else trained.representations
    report = recommend.evaluate(
        reps,
        table.labels,
        table.test_mask,
        profiles,
        cfg["eval"]["k_rec"],
        model=f"gemi-{cfg['model']['kind']}",
        representation=rep_source,
        seed=cfg["seed"],
    )

    recommend.write_json(
        os.path.join(out_dir, "train_report.json"),
        {
            "kind": cfg["model"]["kind"],
            "protocol": cfg["protocol"],
            "seed": cfg["seed"],
            "wall_time_s": trained.wall_time_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "epochs": trained.epochs,
            "graph": {
                **graph_summary(trained.base_graph),
                "edges_dropped_per_epoch": trained.edges_dropped_per_epoch,
            },
        },
    )
    recommend.write_metrics_json(os.path.join(out_dir, "metrics.json"), report)
    recommend.write_metrics_csv(os.path.join(out_dir, "metrics.csv"), report)
    return report


def _env_seed(default: int) -> int:
    """The validated GEMI_SEED override, or ``default`` when it is unset."""
    env = os.environ.get("GEMI_SEED")
    if env is None:
        return default
    try:
        seed = int(env)
    except ValueError:
        raise ConfigError(f"GEMI_SEED: must be an integer, got {env!r}") from None
    if seed < 0:
        raise ConfigError("GEMI_SEED: must be nonnegative")
    return seed


def _out_dir(args, cfg) -> str:
    if args.out == "":
        raise ConfigError("--out: must be a nonempty path")
    return cfg["output_dir"] if args.out is None else args.out


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    cfg["seed"] = _env_seed(cfg["seed"])
    out_dir = _out_dir(args, cfg)
    report = run_pipeline(cfg, out_dir)
    for i, name in enumerate(report.label_names):
        print(f"{report.model} {name}: {report.mean[i]:.4f} +/- {report.std[i]:.4f}")
    print(f"artifacts written to {out_dir}")
    return 0


def _derived_seed(base: int, param: str, value) -> int:
    token = f"{param}={json.dumps(value, sort_keys=True)}".encode("utf-8")
    h = int.from_bytes(hashlib.sha256(token).digest()[:8], "big") & (2**63 - 1)
    return base ^ h


def _sweep_worker(job):
    cfg, subdir = job
    run_pipeline(cfg, subdir)
    return subdir


def _parse_value(token: str):
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        return token


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be at least 1, got {args.jobs}")
    if args.param == "output_dir":
        raise ConfigError("--param: output_dir cannot be swept; each run writes under --out")
    raw = read_config(args.config)
    cfg = resolve_config(raw)
    seed = _env_seed(cfg["seed"])
    tokens = [tok for tok in args.values.split(",") if tok != ""]
    if not tokens:
        raise ConfigError("--values: at least one value required")
    values = [_parse_value(tok) for tok in tokens]
    out_dir = _out_dir(args, cfg)
    jobs, owner = [], {}
    for token, value in zip(tokens, values):
        run_raw = set_by_path(raw, args.param, value)
        if args.param != "seed":  # a swept seed is the run's seed
            run_raw["seed"] = _derived_seed(seed, args.param, value)
        run_cfg = resolve_config(run_raw)  # like `gemi run`: a swept kind brings its defaults
        safe = str(value).replace(os.sep, "_").replace(" ", "")
        subdir = os.path.join(out_dir, f"{args.param}={safe}")
        if subdir in owner:
            raise ConfigError(f"--values: {owner[subdir]!r} and {token!r} would both write {subdir}")
        owner[subdir] = token
        jobs.append((run_cfg, subdir))
    os.makedirs(out_dir, exist_ok=True)
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so a plain run never imports it

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            list(pool.map(_sweep_worker, jobs))
    else:
        for job in jobs:
            _sweep_worker(job)
    sweep_path = os.path.join(out_dir, "sweep.csv")
    with open(sweep_path, "w", encoding="utf-8") as fh:
        fh.write("param,value,label,mean,std,seed\n")
        for value, (run_cfg, subdir) in zip(values, jobs):
            with open(os.path.join(subdir, "metrics.json"), encoding="utf-8") as mf:
                metrics = json.load(mf)
            for label, stats in sorted(metrics["labels"].items()):
                fh.write(
                    f"{args.param},{json.dumps(value)},{label},"
                    f"{stats['mean']!r},{stats['std']!r},{metrics['seed']}\n"
                )
    print(f"sweep results in {sweep_path}")
    return 0


def cmd_users(args) -> int:
    cfg = load_config(args.config)
    cfg["seed"] = _env_seed(cfg["seed"])
    prefix = _out_dir(args, cfg)
    rng = SeededRng(cfg["seed"])
    table = _load_table(cfg, rng)
    profiles = _build_profiles(cfg, table.ids, table.labels, table.train_mask, rng.substream("users"))
    pref_path, inter_path = users_mod.write_user_dataset(prefix, profiles, panel_ids=table.ids)
    print(f"wrote {len(profiles)} users to {pref_path} and {inter_path}")
    return 0


def cmd_check(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds: must be at least 1, got {args.seeds}")
    failures = 0
    for res in gradient_check_suite(seeds=range(args.seeds)):
        print(
            f"{'PASS' if res.passed else 'FAIL'}  gradient {res.kind}/{res.loss_kind} seed {res.seed} "
            f"(max rel err {res.max_rel_err:.2e})"
        )
        failures += not res.passed
    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gemi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="override the config output_dir")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run once per value of a scalar config field")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, help="dotted config path, e.g. loss.gamma")
    p_sweep.add_argument("--values", required=True, help="comma-separated JSON scalars")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_users = sub.add_parser("users", help="write the user population a run config evaluates")
    p_users.add_argument("--config", required=True)
    p_users.add_argument("--out", required=True, help="output path prefix")
    p_users.set_defaults(func=cmd_users)

    p_check = sub.add_parser("check", help="check every model and loss gradient by finite differences")
    p_check.add_argument("--seeds", type=int, default=3, help="seeds per gradient check")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, IngestError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

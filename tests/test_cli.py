import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gemi.cli import build_parser, main
from gemi.config import resolve_config
from gemi.numerics import EPS_NORM
from datasets import make_planted_panels, write_embeddings, write_gaussians, write_interactions, write_labels


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli-data")
    table = make_planted_panels(n=60, d=8, seed=13)
    emb = tmp / "emb.csv"
    lab = tmp / "labels.csv"
    write_embeddings(emb, table.ids, table.features)
    write_labels(lab, table)
    return {"dir": tmp, "emb": str(emb), "labels": str(lab), "table": table}


def write_cfg(tmp, dataset, **overrides):
    cfg = {
        "seed": 5,
        "output_dir": str(tmp / "out"),
        "dataset": {"embeddings": dataset["emb"], "labels": dataset["labels"]},
        "model": {"kind": "gcn", "epochs": 15, "hidden": 8},
        "graph": {"k": 4, "augment": []},
        "eval": {"num_users": 10},
    }
    for key, value in overrides.items():
        cfg.setdefault(key, {}).update(value) if isinstance(value, dict) else cfg.__setitem__(key, value)
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


class TestRun:
    def test_writes_all_artifacts(self, dataset, tmp_path, capsys):
        cfg_path, cfg = write_cfg(tmp_path, dataset)
        assert main(["run", "--config", cfg_path]) == 0
        out = tmp_path / "out"
        for name in ("config.resolved.json", "metrics.json", "metrics.csv", "train_report.json"):
            assert (out / name).is_file(), name
        printed = capsys.readouterr().out
        assert "gemi-gcn" in printed

    def test_train_report_describes_the_graph(self, dataset, tmp_path, monkeypatch):
        import gemi.cli

        trained = []
        real = gemi.cli.train_model
        monkeypatch.setattr(gemi.cli, "train_model", lambda *a: trained.append(real(*a)) or trained[-1])
        augment = [{"label": "animal", "k": 3, "max_nodes": 40}]
        cfg_path, _ = write_cfg(tmp_path, dataset, graph={"k": 4, "augment": augment, "edge_dropout": 0.3})
        assert main(["run", "--config", cfg_path]) == 0
        out = tmp_path / "out"
        block = json.loads((out / "train_report.json").read_text())["graph"]
        g = trained[0].base_graph
        deg = g.degrees()
        assert block["n"] == g.n
        assert set(block["edges"]) == {"knn", "label-augment"}
        assert sum(block["edges"].values()) == g.m
        assert block["degree"] == {"min": int(deg.min()), "median": float(np.median(deg)), "max": int(deg.max())}
        assert block["isolated"] == int(np.count_nonzero(deg == 0))
        assert 0.0 < block["edges_dropped_per_epoch"] < g.m
        assert block["edges_dropped_per_epoch"] == trained[0].edges_dropped_per_epoch
        assert "graph" not in json.loads((out / "metrics.json").read_text())

    def test_out_flag_overrides_config(self, dataset, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, dataset)
        target = tmp_path / "elsewhere"
        assert main(["run", "--config", cfg_path, "--out", str(target)]) == 0
        assert (target / "metrics.json").is_file()

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "model.lr", "--values", "0.01"]])
    def test_empty_out_flag_exit_2(self, dataset, tmp_path, capsys, command):
        # an empty --out is an error, not a fall back to the config's output_dir
        cfg_path, cfg = write_cfg(tmp_path, dataset)
        assert main([command[0], "--config", cfg_path, *command[1:], "--out", ""]) == 2
        assert capsys.readouterr().err == "error: --out: must be a nonempty path\n"
        assert not os.path.exists(cfg["output_dir"])

    def test_byte_identical_reruns(self, dataset, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, dataset)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(b)]) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()

    def test_train_report_records_peak_rss(self, dataset, tmp_path, monkeypatch):
        import resource
        from types import SimpleNamespace

        cfg_path, _ = write_cfg(tmp_path, dataset)
        real = resource.getrusage
        reports, metrics = [], []
        for scale in (1, 3):
            # a different peak must not reach metrics.json
            monkeypatch.setattr(
                resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=scale * real(who).ru_maxrss)
            )
            out = tmp_path / f"x{scale}"
            assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
            reports.append(json.loads((out / "train_report.json").read_text())["peak_rss_mb"])
            metrics.append((out / "metrics.json").read_bytes())
        assert isinstance(reports[0], float) and 0.0 < reports[0] < reports[1]
        assert metrics[0] == metrics[1] and b"rss" not in metrics[0]

    def test_not_utf8_input_exit_2(self, dataset, tmp_path, capsys):
        emb = tmp_path / "emb.csv"
        lines = Path(dataset["emb"]).read_bytes().split(b"\n")
        lines[40] = b"p\xe9" + lines[40][lines[40].index(b","):]
        emb.write_bytes(b"\n".join(lines))
        cfg_path, _ = write_cfg(tmp_path, {**dataset, "emb": str(emb)})
        assert main(["run", "--config", cfg_path]) == 2
        assert capsys.readouterr().err == f"error: {emb}:41: not UTF-8 text\n"

    def test_missing_dataset_exit_2(self, dataset, tmp_path, capsys):
        cfg_path, cfg = write_cfg(tmp_path, dataset)
        raw = json.loads(Path(cfg_path).read_text())
        raw["dataset"]["embeddings"] = str(tmp_path / "nope.csv")
        Path(cfg_path).write_text(json.dumps(raw))
        assert main(["run", "--config", cfg_path]) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_bad_config_exit_2(self, dataset, tmp_path, capsys):
        cfg_path, _ = write_cfg(tmp_path, dataset, model={"kind": "gcn", "epochs": -3})
        assert main(["run", "--config", cfg_path]) == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("users.top_k", 0),
            ("users.gain", 0.0),
            ("users.pseudo_count", -1.0),
            ("users.p_replace", 3),
            ("users.gain_low", 1.5),  # above the default gain_high 1.2
            ("users.noise_sigma", -0.1),
            ("loss.lambda_sup", "x"),
            ("loss.beta_max", -1.0),
            ("model.logsig_clamp", -1),
            ("graph.similarity_floor", "x"),
            ("graph.augment_exempt_from_dropout", 3),
            # json writes these as the NaN and Infinity literals Python's json reads back
            *[
                (field, float(literal))
                for field in (
                    "graph.epsilon",
                    "graph.similarity_floor",
                    "loss.gamma",
                    "loss.lambda_sup",
                    "loss.lambda_ssl",
                    "loss.beta_max",
                    "users.gain_low",
                    "model.lr",
                    "eval.tau",
                )
                for literal in ("NaN", "Infinity", "-Infinity")
            ],
        ],
    )
    def test_bad_value_exit_2(self, dataset, tmp_path, capsys, field, value):
        group, key = field.split(".")
        cfg_path, _ = write_cfg(tmp_path, dataset, **{group: {key: value}})
        assert main(["run", "--config", cfg_path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_non_string_dataset_path_exit_2(self, dataset, tmp_path, capsys):
        # open(0) is stdin: unchecked, the run read its embeddings from there
        cfg_path, cfg = write_cfg(tmp_path, dataset)
        cfg["dataset"]["embeddings"] = 0
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", cfg_path]) == 2
        assert capsys.readouterr().err.startswith("error: dataset.embeddings: ")

    @pytest.mark.parametrize(
        "field",
        [
            "seed",
            "graph.k",
            "graph.attach_k",
            "graph.augment[0].k",
            "graph.augment[0].max_nodes",
            "model.hidden",
            "model.latent",
            "model.epochs",
            "users.augment_target",
            "users.top_k",
            "eval.num_users",
            "eval.interactions_k",
            "eval.k_rec",
        ],
    )
    def test_bool_integer_field_exit_2(self, dataset, tmp_path, capsys, field):
        # true is a JSON boolean, never the integer 1
        _, cfg = write_cfg(tmp_path, dataset)
        if field.startswith("graph.augment"):
            cfg["graph"]["augment"] = [{"label": "tree", "k": 2, field.rsplit(".", 1)[1]: True}]
        elif "." in field:
            group, key = field.split(".")
            cfg.setdefault(group, {})[key] = True
        else:
            cfg[field] = True
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_bad_ratings_exit_2_before_training(self, dataset, tmp_path, monkeypatch, capsys):
        from gemi import cli

        def no_training(*args, **kwargs):
            raise AssertionError("train_model ran before the ratings were read")

        monkeypatch.setattr(cli, "train_model", no_training)
        table = dataset["table"]
        ratings = tmp_path / "ratings.csv"
        write_interactions(ratings, [("u1", table.ids[0], 3.0), ("u1", table.ids[1], float("nan"))])
        cfg_path, _ = write_cfg(
            tmp_path, dataset, users={"source": "augmented", "interactions": str(ratings)}
        )
        assert main(["run", "--config", cfg_path]) == 2
        assert "ratings.csv:3: non-finite cell 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("side, tag", [("test", "train"), ("train", "test")])
    def test_empty_split_exit_2_before_training(self, dataset, tmp_path, monkeypatch, capsys, side, tag):
        from gemi import cli

        def no_training(*args, **kwargs):
            raise AssertionError("train_model ran on an empty split")

        monkeypatch.setattr(cli, "train_model", no_training)
        table = dataset["table"]
        labels = tmp_path / "all_one_split.csv"
        write_labels(labels, dataclasses.replace(table, split=np.full(len(table.ids), tag, dtype=object)))
        _, cfg = write_cfg(tmp_path, dataset)
        cfg["dataset"]["labels"] = str(labels)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {labels}: the {side} split is empty")

    @pytest.mark.parametrize("protocol", ["transductive", "inductive"])
    def test_knn_k_above_node_count_exit_2_before_users(self, dataset, tmp_path, monkeypatch, capsys, protocol):
        from gemi import cli

        def no_users(*args, **kwargs):
            raise AssertionError("users were built for an impossible graph")

        monkeypatch.setattr(cli, "_build_profiles", no_users)
        table = dataset["table"]
        n = len(table.ids) if protocol == "transductive" else int(table.train_mask.sum())
        cfg_path, _ = write_cfg(tmp_path, dataset, protocol=protocol, graph={"k": n})
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: graph.k:")
        assert f"{protocol} graph's node count, {n}" in err

    def test_attach_k_above_train_count_exit_2_before_users(self, dataset, tmp_path, monkeypatch, capsys):
        from gemi import cli

        def no_users(*args, **kwargs):
            raise AssertionError("users were built for an impossible attachment")

        monkeypatch.setattr(cli, "_build_profiles", no_users)
        n = int(dataset["table"].train_mask.sum())
        cfg_path, _ = write_cfg(tmp_path, dataset, protocol="inductive", graph={"attach_k": n + 1})
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: graph.attach_k:")
        assert f"training count, {n} train items" in err

    def test_attach_k_at_train_count_runs(self, dataset, tmp_path):
        # every training item is a neighbour: the largest attachment allowed
        n = int(dataset["table"].train_mask.sum())
        cfg_path, _ = write_cfg(tmp_path, dataset, protocol="inductive", graph={"attach_k": n})
        assert main(["run", "--config", cfg_path]) == 0

    def test_seed_env_override(self, dataset, tmp_path, monkeypatch):
        cfg_path, _ = write_cfg(tmp_path, dataset)
        monkeypatch.setenv("GEMI_SEED", "99")
        out = tmp_path / "seeded"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["seed"] == 99

    def test_nonfinite_loss_exit_1(self, dataset, tmp_path, monkeypatch, capsys):
        from gemi import train

        monkeypatch.setattr(
            train, "supervised_loss_and_grad", lambda cfg, logits, *a: (float("nan"), np.zeros_like(logits))
        )
        cfg_path, _ = write_cfg(tmp_path, dataset)
        out = tmp_path / "nan"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
        assert "epoch 0: non-finite sup" in capsys.readouterr().err
        assert not (out / "train_report.json").exists()

    def test_resolved_config_written_first(self, dataset, tmp_path):
        # even a failing run leaves the resolved config for debugging
        cfg_path, cfg = write_cfg(tmp_path, dataset)
        raw = json.loads(Path(cfg_path).read_text())
        raw["dataset"]["labels"] = str(tmp_path / "gone.csv")
        Path(cfg_path).write_text(json.dumps(raw))
        out = tmp_path / "failed"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 2
        assert (out / "config.resolved.json").is_file()

    def test_raw_representation_mode(self, dataset, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, dataset, eval={"num_users": 10, "representation": "raw"})
        out = tmp_path / "raw"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["representation"] == "raw"


class TestFeatureModes:
    """`gemi run` trains on the fused matrix of each multimodal ``features.mode``."""

    @pytest.fixture
    def trained_features(self, monkeypatch):
        from gemi import cli

        seen = []

        def spy(features, *args, **kwargs):
            seen.append(features)
            return train_model(features, *args, **kwargs)

        train_model = cli.train_model
        monkeypatch.setattr(cli, "train_model", spy)
        return seen

    def _run(self, dataset, tmp_path, mode, files):
        cfg_path, cfg = write_cfg(tmp_path, dataset, features={"mode": mode})
        cfg["dataset"].update(files)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", cfg_path]) == 0

    def test_mean(self, dataset, tmp_path, trained_features):
        table = dataset["table"]
        image = table.features
        text = np.random.default_rng(1).normal(size=image.shape)
        write_embeddings(tmp_path / "img.csv", table.ids, image)
        write_embeddings(tmp_path / "txt.csv", table.ids[::-1], text[::-1])
        self._run(dataset, tmp_path, "mean", {"image": str(tmp_path / "img.csv"), "text": str(tmp_path / "txt.csv")})
        unit = lambda x: x / (np.linalg.norm(x, axis=1, keepdims=True) + EPS_NORM)  # noqa: E731
        np.testing.assert_allclose(trained_features[0], 0.5 * (unit(image) + unit(text)), rtol=1e-12)

    def test_chunks(self, dataset, tmp_path, trained_features):
        table = dataset["table"]
        second = np.random.default_rng(2).normal(size=table.features.shape)
        write_embeddings(tmp_path / "c0.csv", table.ids, table.features)
        write_embeddings(tmp_path / "c1.csv", table.ids[::-1], second[::-1])
        self._run(dataset, tmp_path, "chunks", {"chunks": [str(tmp_path / "c0.csv"), str(tmp_path / "c1.csv")]})
        np.testing.assert_allclose(trained_features[0], (table.features + second) / 2, rtol=1e-12)

    def test_poe(self, dataset, tmp_path, trained_features):
        table = dataset["table"]
        rng = np.random.default_rng(3)
        mus = [table.features, rng.normal(size=table.features.shape)]
        logvars = [rng.normal(size=table.features.shape) for _ in range(2)]
        write_gaussians(tmp_path / "g0.csv", table.ids, mus[0], logvars[0])
        write_gaussians(tmp_path / "g1.csv", table.ids[::-1], mus[1][::-1], logvars[1][::-1])
        self._run(dataset, tmp_path, "poe", {"experts": [str(tmp_path / "g0.csv"), str(tmp_path / "g1.csv")]})
        precisions = [np.exp(-lv) for lv in logvars]
        expect = (precisions[0] * mus[0] + precisions[1] * mus[1]) / (precisions[0] + precisions[1])
        np.testing.assert_allclose(trained_features[0], expect, rtol=1e-12)


    def test_mean_mode_id_mismatch_exit_2(self, dataset, tmp_path, capsys):
        table = dataset["table"]
        write_embeddings(tmp_path / "img.csv", table.ids, table.features)
        write_embeddings(tmp_path / "txt.csv", ("other", *table.ids[1:]), table.features)
        cfg_path, cfg = write_cfg(tmp_path, dataset, features={"mode": "mean"})
        cfg["dataset"].update(image=str(tmp_path / "img.csv"), text=str(tmp_path / "txt.csv"))
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", cfg_path]) == 2
        assert "text table ids do not match" in capsys.readouterr().err


class TestSweep:
    def test_sweep_outputs(self, dataset, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, dataset)
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--config", cfg_path, "--param", "model.lr",
            "--values", "0.001,0.01", "--out", str(out),
        ])
        assert code == 0
        csv_text = (out / "sweep.csv").read_text()
        assert csv_text.startswith("param,value,label,mean,std,seed")
        assert csv_text.count("model.lr") == 6  # 2 values x 3 labels
        subdirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(subdirs) == 2
        for sub in subdirs:
            assert (sub / "metrics.json").is_file()

    def test_parallel_sweep_matches_serial(self, dataset, tmp_path):
        # two values on two worker processes, no more
        cfg_path, _ = write_cfg(tmp_path, dataset)
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in ("1", "2")}
        for jobs, out in outs.items():
            assert main(["sweep", "--config", cfg_path, "--param", "model.lr",
                         "--values", "0.001,0.01", "--out", str(out), "--jobs", jobs]) == 0
        serial, parallel = outs["1"], outs["2"]
        assert (parallel / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()
        subdirs = sorted(p.name for p in serial.iterdir() if p.is_dir())
        assert subdirs == sorted(p.name for p in parallel.iterdir() if p.is_dir())
        assert len(subdirs) == 2
        for sub in subdirs:
            assert (parallel / sub / "metrics.json").read_bytes() == (serial / sub / "metrics.json").read_bytes()

    def test_derived_seeds_differ_per_value(self, dataset, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, dataset)
        out = tmp_path / "sweep2"
        main(["sweep", "--config", cfg_path, "--param", "model.lr",
              "--values", "0.001,0.01", "--out", str(out)])
        seeds = set()
        for sub in out.iterdir():
            if sub.is_dir():
                seeds.add(json.loads((sub / "metrics.json").read_text())["seed"])
        assert len(seeds) == 2

    def test_kind_sweep_resolves_each_kind(self, dataset, tmp_path):
        # each run resolves like `gemi run`: the swept kind brings its own
        # defaults for every field the raw config leaves unset
        cfg_path, raw = write_cfg(tmp_path, dataset, model={"epochs": 2})
        out = tmp_path / "kinds"
        assert main(["sweep", "--config", cfg_path, "--param", "model.kind",
                     "--values", "gae,vgae", "--out", str(out)]) == 0
        for kind in ("gae", "vgae"):
            resolved = json.loads((out / f"model.kind={kind}" / "config.resolved.json").read_text())
            expected = resolve_config({**raw, "model": {**raw["model"], "kind": kind}})
            del resolved["seed"], expected["seed"]
            assert resolved == expected, kind

    def test_swept_seed_is_the_run_seed(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("GEMI_SEED", "99")  # no effect on a seed sweep
        cfg_path, _ = write_cfg(tmp_path, dataset, model={"epochs": 2})
        out = tmp_path / "seeds"
        assert main(["sweep", "--config", cfg_path, "--param", "seed", "--values", "1,2", "--out", str(out)]) == 0
        for seed in (1, 2):
            for name in ("config.resolved.json", "metrics.json"):
                assert json.loads((out / f"seed={seed}" / name).read_text())["seed"] == seed

    def test_output_dir_param_exit_2(self, dataset, tmp_path, capsys, monkeypatch):
        # every run writes under --out, so a swept output_dir would be recorded but unused
        monkeypatch.chdir(tmp_path)
        cfg_path, _ = write_cfg(tmp_path, dataset)
        code = main(["sweep", "--config", cfg_path, "--param", "output_dir", "--values", "a,b", "--out", "s"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --param: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize(
        "param, values",
        [("model.lr", "0.5,0.50"), ("dataset.embeddings", "a/b,a_b")],
        ids=["equal-numbers", "separator"],
    )
    def test_values_sharing_a_directory_exit_2(self, dataset, tmp_path, capsys, param, values):
        cfg_path, _ = write_cfg(tmp_path, dataset)
        out = tmp_path / "s"
        code = main(["sweep", "--config", cfg_path, "--param", param, "--values", values, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        first, second = values.split(",")
        assert f"{first!r} and {second!r}" in err
        assert not out.exists()  # rejected before any run

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_2(self, dataset, tmp_path, capsys, jobs):
        cfg_path, _ = write_cfg(tmp_path, dataset)
        out = tmp_path / "s"
        code = main(["sweep", "--config", cfg_path, "--param", "model.lr",
                     "--values", "0.01", "--out", str(out), "--jobs", jobs])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --jobs: ")
        assert not out.exists()  # rejected before any run

    def test_non_finite_value_exit_2(self, dataset, tmp_path, capsys):
        cfg_path, _ = write_cfg(tmp_path, dataset)
        out = tmp_path / "s"
        code = main(["sweep", "--config", cfg_path, "--param", "graph.epsilon", "--values", "0.5,NaN", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: graph.epsilon: ")
        assert not out.exists()  # no run started

    def test_unknown_param_exit_2(self, dataset, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, dataset)
        assert main(["sweep", "--config", cfg_path, "--param", "model.nope",
                     "--values", "1", "--out", str(tmp_path / "s")]) == 2


def _ratings(tmp, table, raters=3, panels=8):
    """A ratings file: ``raters`` users, each rating the first ``panels`` training panels."""
    path = tmp / "ratings.csv"
    train_ids = [table.ids[i] for i in np.flatnonzero(table.train_mask)[:panels]]
    write_interactions(
        path, [(f"user-{u}", pid, float(1 + (u + i) % 5)) for u in range(raters) for i, pid in enumerate(train_ids)]
    )
    return str(path)


def _users(cfg_path, prefix):
    return main(["users", "--config", cfg_path, "--out", str(prefix)])


def _written(prefix):
    return tuple(Path(f"{prefix}.{part}.csv").read_bytes() for part in ("preferences", "interactions"))


class TestUsers:
    def test_synth_writes_dataset(self, dataset, tmp_path, capsys):
        cfg_path, _ = write_cfg(tmp_path, dataset, seed=2, eval={"num_users": 6, "interactions_k": 4})
        assert _users(cfg_path, tmp_path / "synth") == 0
        prefs, inter = (part.decode().strip().split("\n") for part in _written(tmp_path / "synth"))
        assert len(prefs) == 7  # header + 6 users
        assert len(inter) == 1 + 6 * 4
        assert "wrote 6 users" in capsys.readouterr().out

    def test_synth_deterministic(self, dataset, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, dataset, seed=8, eval={"num_users": 4, "interactions_k": 3})
        for prefix in ("s1", "s2"):
            assert _users(cfg_path, tmp_path / prefix) == 0
        assert _written(tmp_path / "s1") == _written(tmp_path / "s2")

    def test_real_pipeline(self, dataset, tmp_path):
        ratings = _ratings(tmp_path, dataset["table"])
        cfg_path, _ = write_cfg(tmp_path, dataset, users={"source": "real", "interactions": ratings})
        assert _users(cfg_path, tmp_path / "real") == 0
        prefs = _written(tmp_path / "real")[0].decode().strip().split("\n")
        assert len(prefs) == 4

    @pytest.mark.parametrize("seed", ["abc", "-5"])
    def test_bad_seed_env_exit_2(self, dataset, tmp_path, monkeypatch, capsys, seed):
        monkeypatch.setenv("GEMI_SEED", seed)
        cfg_path, _ = write_cfg(tmp_path, dataset)
        assert _users(cfg_path, tmp_path / "x") == 2
        assert "GEMI_SEED" in capsys.readouterr().err

    def test_missing_labels_exit_2(self, dataset, tmp_path):
        cfg_path, _ = write_cfg(tmp_path, {**dataset, "labels": str(tmp_path / "no.csv")})
        assert _users(cfg_path, tmp_path / "x") == 2

    def test_empty_out_exit_2(self, dataset, tmp_path, capsys):
        cfg_path, _ = write_cfg(tmp_path, dataset)
        assert _users(cfg_path, "") == 2
        assert capsys.readouterr().err == "error: --out: must be a nonempty path\n"

    def test_all_test_labels_exit_2(self, dataset, tmp_path, capsys):
        # as `gemi run` fails on them, not on an empty sample
        table = dataset["table"]
        labels = tmp_path / "all_test.csv"
        write_labels(labels, dataclasses.replace(table, split=np.full(len(table.ids), "test", dtype=object)))
        cfg_path, _ = write_cfg(tmp_path, {**dataset, "labels": str(labels)})
        assert _users(cfg_path, tmp_path / "x") == 2
        assert capsys.readouterr().err == f"error: {labels}: the train split is empty\n"
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("field, value", [
        ("eval.num_users", 0),
        ("eval.interactions_k", 0),
        ("eval.tau", 1.5),
        ("users.top_k", 0),
        ("users.p_replace", 3),
        ("users.augment_target", -2),
        ("users.gain", 0),
        ("users.pseudo_count", -1),
    ])
    def test_bad_field_exit_2(self, dataset, tmp_path, capsys, field, value):
        ratings = tmp_path / "ratings.csv"
        write_interactions(ratings, [("u", dataset["table"].ids[0], 1.0)])
        group, key = field.split(".")
        overrides = {"users": {"source": "augmented", "interactions": str(ratings)}, "eval": {}}
        overrides[group][key] = value
        cfg_path, _ = write_cfg(tmp_path, dataset, **overrides)
        prefix = tmp_path / "bad"
        assert _users(cfg_path, prefix) == 2
        assert field in capsys.readouterr().err
        assert not list(tmp_path.glob("bad*"))  # nothing written

    @pytest.mark.parametrize("field, value", [
        ("gain_low", 0.5),
        ("gain_high", 1.5),
        ("bias_sigma", 0.2),
        ("noise_sigma", 0.2),
    ])
    def test_every_population_field_reaches_users(self, dataset, tmp_path, field, value):
        ratings = _ratings(tmp_path, dataset["table"])
        users = {"source": "augmented", "interactions": ratings, "augment_target": 30}
        base, _ = write_cfg(tmp_path, dataset, users=users)
        assert _users(base, tmp_path / "base") == 0
        changed, _ = write_cfg(tmp_path, dataset, users={**users, field: value})
        assert _users(changed, tmp_path / "changed") == 0
        assert _written(tmp_path / "changed")[0] != _written(tmp_path / "base")[0]

    @pytest.mark.parametrize("split_column", [True, False], ids=["split-tagged", "no-split-column"])
    @pytest.mark.parametrize("source", ["synthetic", "real", "augmented"])
    def test_one_population(self, dataset, tmp_path, monkeypatch, source, split_column):
        # the users `gemi users --config C` writes are the users `gemi run --config C` evaluates
        from gemi import recommend
        from gemi.users import write_user_dataset

        table = dataset["table"]
        labels = tmp_path / "labels.csv"
        write_labels(labels, table, include_split=split_column)
        users = {"source": source}
        if source != "synthetic":
            users.update(interactions=_ratings(tmp_path, table, raters=4, panels=12), augment_target=40)
        cfg_path, _ = write_cfg(tmp_path, {**dataset, "labels": str(labels)}, seed=2, model={"epochs": 1}, users=users)
        evaluated, evaluate = [], recommend.evaluate

        def spy(reps, labels, test_mask, profiles, *args, **kwargs):
            evaluated.append(profiles)
            return evaluate(reps, labels, test_mask, profiles, *args, **kwargs)

        monkeypatch.setattr(recommend, "evaluate", spy)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "run")]) == 0
        assert _users(cfg_path, tmp_path / "users") == 0
        write_user_dataset(str(tmp_path / "evaluated"), evaluated[0], panel_ids=table.ids)
        assert _written(tmp_path / "users") == _written(tmp_path / "evaluated")


class TestCheck:
    def test_check_passes(self, capsys):
        assert main(["check", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_exit_2(self, capsys, seeds):
        assert main(["check", "--seeds", seeds]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --seeds: ")
        assert captured.out == ""  # no check ran, none reported as passed


class TestBlasThreads:
    # each child runs gcn and gae under both protocols with one BLAS thread
    # count; the metrics must not depend on how BLAS splits its products
    SCRIPT = (
        "import sys\n"
        "from pathlib import Path\n"
        "from gemi.cli import main\n"
        "for cfg in sys.argv[2:]:\n"
        "    if main(['run', '--config', cfg, '--out', str(Path(sys.argv[1], Path(cfg).stem))]):\n"
        "        sys.exit(1)\n"
    )

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores to run BLAS on two threads")
    def test_thread_count_keeps_the_bytes(self, tmp_path, gemi_env):
        # 300 items of width 16 at the default widths: the cosine blocks and
        # the first layer's products are large enough for BLAS to split them
        table = make_planted_panels(n=300, d=16, seed=3)
        write_embeddings(tmp_path / "emb.csv", table.ids, table.features)
        write_labels(tmp_path / "labels.csv", table)
        configs = []
        for i, (kind, protocol) in enumerate(
            [("gcn", "transductive"), ("gae", "transductive"), ("gcn", "inductive"), ("gae", "inductive")]
        ):
            cfg = {
                "protocol": protocol,
                "dataset": {"embeddings": str(tmp_path / "emb.csv"), "labels": str(tmp_path / "labels.csv")},
                "model": {"kind": kind, "epochs": 3},
                "eval": {"num_users": 20},
            }
            configs.append(tmp_path / f"cfg{i}.json")
            configs[-1].write_text(json.dumps(cfg))
        for threads in ("1", "2"):
            env = {**gemi_env, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT, str(tmp_path / f"threads{threads}"), *map(str, configs)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        for i in range(len(configs)):
            one, two = (tmp_path / f"threads{t}" / f"cfg{i}" / "metrics.json" for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), configs[i].read_text()


def test_readme_command_lines_parse():
    # every `gemi ...` line of the README's command block, optional parts included
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text(encoding="utf-8").splitlines() if line.startswith("gemi ")]
    assert len(lines) >= 4
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


class TestEntryPoint:
    def test_console_script_installed(self, gemi_env):
        proc = subprocess.run(
            [sys.executable, "-m", "gemi.cli", "--help"], capture_output=True, text=True, env=gemi_env
        )
        assert proc.returncode == 0
        assert "run" in proc.stdout and "sweep" in proc.stdout

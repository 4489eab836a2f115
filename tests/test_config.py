import json
from dataclasses import asdict

import pytest

from gemi.config import (
    AUGMENT_MAX_NODES,
    MODEL_KINDS,
    ConfigError,
    default_config,
    load_config,
    resolve_config,
    set_by_path,
    validate_config,
)
from gemi.losses import LossConfig


class TestDefaults:
    @pytest.mark.parametrize("kind", ["gcn", "gae", "vgae"])
    def test_defaults_validate(self, kind):
        cfg = default_config(kind)
        validate_config(cfg)  # must not raise
        assert cfg["model"]["kind"] == kind

    def test_gcn_table_values(self):
        cfg = default_config("gcn")
        m = cfg["model"]
        assert (m["hidden"], m["dropout"], m["epochs"]) == (128, 0.20, 450)
        assert (m["lr"], m["weight_decay"]) == (3e-4, 2e-3)
        assert cfg["graph"]["k"] == 30

    def test_vgae_table_values(self):
        cfg = default_config("vgae")
        m = cfg["model"]
        assert (m["hidden"], m["latent"], m["epochs"]) == (256, 128, 500)
        assert (m["lr"], m["weight_decay"]) == (3e-3, 5e-4)
        assert cfg["graph"]["k"] == 25
        assert cfg["loss"]["beta_max"] == 1.0

    def test_kinds_share_key_paths(self):
        # a field only one kind sets would differ here
        def paths(node, prefix=""):
            if not isinstance(node, dict):
                return {prefix}
            return {p for key, value in node.items() for p in paths(value, f"{prefix}.{key}")}

        assert paths(default_config("gae")) == paths(default_config("gcn")) == paths(default_config("vgae"))

    def test_gae_augment_entries(self):
        cfg = default_config("gae")
        labels = [e["label"] for e in cfg["graph"]["augment"]]
        assert labels == ["animal", "mythology", "tree"]

    def test_eval_defaults(self):
        cfg = default_config("gcn")
        ev = cfg["eval"]
        assert (ev["num_users"], ev["interactions_k"], ev["tau"], ev["k_rec"]) == (50, 5, 0.2, 5)


class TestResolve:
    def test_partial_merge(self):
        cfg = resolve_config({"seed": 5, "model": {"kind": "gae", "epochs": 10}})
        assert cfg["seed"] == 5
        assert cfg["model"]["epochs"] == 10
        assert cfg["model"]["hidden"] == 128  # untouched default

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve_config({"model": {"kind": "gcn", "depth": 3}})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"model": {"kind": "transformer"}})

    def test_augment_replaced_wholesale(self):
        cfg = resolve_config({"model": {"kind": "gae"}, "graph": {"augment": []}})
        assert cfg["graph"]["augment"] == []

    def test_augment_max_nodes_resolved(self):
        # the resolved config records the value the run uses
        cfg = resolve_config({"graph": {"augment": [{"label": "animal", "k": 3}, {"label": "tree", "k": 4, "max_nodes": 9}]}})
        assert cfg["graph"]["augment"] == [
            {"label": "animal", "k": 3, "max_nodes": AUGMENT_MAX_NODES},
            {"label": "tree", "k": 4, "max_nodes": 9},
        ]
        for kind in MODEL_KINDS:
            assert all(e["max_nodes"] == AUGMENT_MAX_NODES for e in default_config(kind)["graph"]["augment"])

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config({"seed": -1})
        with pytest.raises(ConfigError, match="seed"):
            resolve_config({"seed": True})

    def test_bad_protocol(self):
        with pytest.raises(ConfigError, match="protocol"):
            resolve_config({"protocol": "semi"})

    def test_unknown_feature_mode(self):
        with pytest.raises(ConfigError, match=r"^features\.mode: "):
            resolve_config({"features": {"mode": "magic"}})

    def test_loss_kinds(self):
        for kind in ("focal", "wbce", "bce"):
            cfg = resolve_config({"loss": {"kind": kind}})
            assert cfg["loss"]["kind"] == kind
        with pytest.raises(ConfigError, match="loss.kind"):
            resolve_config({"loss": {"kind": "hinge"}})

    @pytest.mark.parametrize(
        "field, value", [("alpha", 1.5), ("alpha", "0.5"), ("alpha", True), ("gamma", -1.0), ("gamma", None)]
    )
    def test_loss_errors_name_field(self, field, value):
        # LossConfig holds the rule; resolve_config reports it under loss.<field>
        with pytest.raises(ConfigError, match=rf"^loss\.{field}: "):
            resolve_config({"loss": {field: value}})

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"model": {"logsig_clamp": -1}}, "model.logsig_clamp"),
            ({"graph": {"similarity_floor": "x"}}, "graph.similarity_floor"),
            ({"graph": {"augment_exempt_from_dropout": 3}}, "graph.augment_exempt_from_dropout"),
            ({"dataset": {"embeddings": 0}}, "dataset.embeddings"),
            ({"dataset": {"embeddings": ["emb.csv"]}}, "dataset.embeddings"),
            ({"dataset": {"labels": 1.5}}, "dataset.labels"),
            ({"dataset": {"image": True}}, "dataset.image"),
            ({"dataset": {"text": {"path": "t.csv"}}}, "dataset.text"),
            ({"dataset": {"chunks": "emb.csv"}}, "dataset.chunks"),
            ({"dataset": {"chunks": ["a.csv", 0]}}, "dataset.chunks"),
            ({"dataset": {"experts": None}}, "dataset.experts"),
            ({"output_dir": 0}, "output_dir"),
            ({"output_dir": None}, "output_dir"),
            ({"output_dir": ""}, "output_dir"),
            ({"model": ["gcn"]}, "model"),
        ],
    )
    def test_unchecked_fields_rejected(self, raw, field):
        with pytest.raises(ConfigError, match=rf"^{field}: "):
            resolve_config(raw)

    def test_error_names_field_path(self):
        with pytest.raises(ConfigError, match="model.dropout"):
            resolve_config({"model": {"kind": "gcn", "dropout": 1.5}})


class TestLoadConfig:
    def test_load_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 9, "model": {"kind": "vgae"}}))
        cfg = load_config(p)
        assert cfg["seed"] == 9
        assert cfg["model"]["latent"] == 128

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)


class TestHelpers:
    def test_loss_config_from(self):
        # training builds LossConfig(**cfg["loss"]): the loss section's
        # keys must be exactly the LossConfig fields for every kind
        for kind in MODEL_KINDS:
            cfg = default_config(kind)
            lc = LossConfig(**cfg["loss"])
            assert lc.kind == cfg["loss"]["kind"]
            assert lc.lambda_sup == cfg["loss"]["lambda_sup"]
            assert asdict(lc) == cfg["loss"]

    def test_set_by_path(self):
        cfg = default_config("gcn")
        out = set_by_path(cfg, "model.lr", 1e-2)
        assert out["model"]["lr"] == 1e-2
        assert cfg["model"]["lr"] == 3e-4  # original untouched

    def test_set_by_path_on_a_raw_config(self):
        # a sweep sets its field on the raw config, creating missing sections
        raw = {"model": {"epochs": 2}}
        assert set_by_path(raw, "model.kind", "vgae") == {"model": {"epochs": 2, "kind": "vgae"}}
        assert set_by_path(raw, "loss.gamma", 1.0) == {"model": {"epochs": 2}, "loss": {"gamma": 1.0}}
        assert raw == {"model": {"epochs": 2}}  # original untouched

    def test_set_by_path_unknown(self):
        with pytest.raises(ConfigError):
            set_by_path(default_config("gcn"), "model.width", 4)

    def test_set_by_path_rejects_containers(self):
        with pytest.raises(ConfigError):
            set_by_path(default_config("gcn"), "graph.augment", 3)

import importlib.util
import logging
from pathlib import Path

import numpy as np
import pytest

from gemi import ingest
from gemi.ingest import (
    IngestError,
    PanelTable,
    assign_split,
    load_embeddings,
    load_gaussians,
    load_interactions,
    load_labels,
)
from gemi.numerics import SeededRng
import ingest_oracle as oracle
from conftest import traced_peak
from datasets import write_embeddings, write_interactions, write_labels


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEmbeddings:
    def test_round_trip_exact(self, tmp_path, rng):
        ids = ("a", "b", "c")
        feats = rng.normal(size=(3, 4))
        p = tmp_path / "e.csv"
        write_embeddings(p, ids, feats)
        got_ids, got = load_embeddings(p)
        assert got_ids == ids
        # repr() round-trips float64 exactly
        assert np.array_equal(got, feats)

    def test_ragged_row(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id,f0,f1\na,1.0\n")
        with pytest.raises(IngestError, match="expected 3 cells"):
            load_embeddings(p)

    def test_duplicate_id(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id,f0\na,1.0\na,2.0\n")
        with pytest.raises(IngestError, match="duplicate id"):
            load_embeddings(p)

    def test_non_numeric(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id,f0\na,oops\n")
        with pytest.raises(IngestError, match="non-numeric"):
            load_embeddings(p)

    def test_non_finite(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id,f0\na,inf\n")
        with pytest.raises(IngestError, match="non-finite"):
            load_embeddings(p)

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path / "e.csv", "\n\n")
        with pytest.raises(IngestError, match="no rows"):
            load_embeddings(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id,f0\n\na,1.5\n\nb,2.5\n")
        ids, feats = load_embeddings(p)
        assert ids == ("a", "b")
        assert np.array_equal(feats, [[1.5], [2.5]])

    def test_error_names_line_number(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id,f0\na,1.0\nb,zzz\n")
        with pytest.raises(IngestError, match=":3:"):
            load_embeddings(p)

    def test_error_line_counts_file_lines_not_records(self, tmp_path):
        # the quoted id spans lines 2 and 3, so 'zzz' sits on file line 7
        p = _write(tmp_path / "e.csv", 'id,f0\n"p00001\nx",1.0\nb,1.0\nc,1.0\nd,1.0\ne,zzz\n')
        with pytest.raises(IngestError, match=r"e\.csv:7: non-numeric cell 'zzz'"):
            load_embeddings(p)

    def test_not_utf8_names_the_line(self, tmp_path):
        # past the decoder's first buffer, so a byte offset would not be a line
        lines = ["id,f0"] + [f"p{i:05d},{i}.5" for i in range(2000)]
        lines[1500] = "p\xe9,1.0"
        p = tmp_path / "e.csv"
        p.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        with pytest.raises(IngestError, match=r"e\.csv:1501: not UTF-8 text"):
            load_embeddings(p)


@pytest.mark.parametrize(
    "loader, text",
    [
        (load_embeddings, "id,f0\na,1.0\n,2.0\n"),
        (lambda p: load_labels(p, ("a", "")), "id,animal,mythology,tree\na,1,0,0\n,0,1,0\n"),
        (load_gaussians, "id,mu_0,logvar_0\na,0.0,0.0\n,1.0,0.0\n"),
    ],
    ids=["embeddings", "labels", "gaussians"],
)
def test_empty_id_rejected(tmp_path, loader, text):
    p = _write(tmp_path / "f.csv", text)
    with pytest.raises(IngestError, match=r"f\.csv:3: empty id"):
        loader(p)


class TestLabels:
    def test_aligned_to_given_ids(self, tmp_path):
        p = _write(
            tmp_path / "l.csv",
            "id,animal,mythology,tree,split\nb,0,1,0,test\na,1,0,1,train\n",
        )
        labels, split = load_labels(p, ("a", "b"))
        assert np.array_equal(labels, [[1, 0, 1], [0, 1, 0]])
        assert list(split) == ["train", "test"]

    def test_missing_id(self, tmp_path):
        p = _write(tmp_path / "l.csv", "id,animal,mythology,tree\na,1,0,0\n")
        with pytest.raises(IngestError, match="missing labels"):
            load_labels(p, ("a", "b"))

    def test_extra_id(self, tmp_path):
        p = _write(tmp_path / "l.csv", "id,animal,mythology,tree\na,1,0,0\nb,0,0,1\n")
        with pytest.raises(IngestError, match="no embedding"):
            load_labels(p, ("a",))

    def test_bad_label_cell(self, tmp_path):
        p = _write(tmp_path / "l.csv", "id,animal,mythology,tree\na,2,0,0\n")
        with pytest.raises(IngestError, match="must be 0 or 1"):
            load_labels(p, ("a",))

    def test_bad_split_tag(self, tmp_path):
        p = _write(tmp_path / "l.csv", "id,animal,mythology,tree,split\na,1,0,0,dev\n")
        with pytest.raises(IngestError, match="split must be"):
            load_labels(p, ("a",))

    def test_empty_split_cell_is_unassigned(self, tmp_path):
        p = _write(tmp_path / "l.csv", "id,animal,mythology,tree,split\na,1,0,0,\n")
        _, split = load_labels(p, ("a",))
        assert split[0] == "unassigned"

    def test_labels_round_trip(self, tmp_path, planted):
        lp = tmp_path / "l.csv"
        write_labels(lp, planted)
        labels, split = load_labels(lp, planted.ids)
        assert np.array_equal(labels, planted.labels)
        assert np.array_equal(split, planted.split)


class TestPanelTable:
    def test_load_joins_on_ids(self, tmp_path, rng):
        ep = tmp_path / "e.csv"
        write_embeddings(ep, ("x", "y"), rng.normal(size=(2, 3)))
        lp = _write(tmp_path / "l.csv", "id,animal,mythology,tree\ny,0,0,1\nx,1,1,0\n")
        ids, features = load_embeddings(ep)
        labels, _ = load_labels(lp, ids)
        assert ids == ("x", "y")
        assert features.shape == (2, 3)
        assert np.array_equal(labels, [[1, 1, 0], [0, 0, 1]])  # rows follow the embedding order

    def test_masks_partition(self, planted):
        assert not np.any(planted.train_mask & planted.test_mask)
        assert np.all(planted.train_mask | planted.test_mask)


PANEL_IDS = ("a", "b", "c")
BLOCK_IDS = tuple(f"x{i}" for i in range(9))  # the panels of a three-block labels file


class TestInteractions:
    def test_keep_last_duplicate(self, tmp_path):
        p = _write(
            tmp_path / "i.csv",
            "user_id,panel_id,rating\nu1,a,1.0\nu1,a,4.0\nu1,b,2.0\n",
        )
        t = load_interactions(p, PANEL_IDS)
        assert len(t.ratings) == 2
        pair_to_rating = dict(zip(zip(t.users.tolist(), t.panels.tolist()), t.ratings))
        assert pair_to_rating[(0, 0)] == 4.0

    def test_unknown_panel_dropped_and_counted(self, tmp_path, caplog):
        p = _write(
            tmp_path / "i.csv",
            "user_id,panel_id,rating\nu1,a,1.0\nu1,zz,5.0\n",
        )
        with caplog.at_level(logging.WARNING, logger="gemi.ingest"):
            t = load_interactions(p, PANEL_IDS)
        assert "dropped 1 interactions referencing unknown panels" in caplog.text
        assert len(t.ratings) == 1

    def test_rows_sorted_by_user_then_panel(self, tmp_path):
        p = _write(
            tmp_path / "i.csv",
            "user_id,panel_id,rating\nu2,c,1.0\nu1,b,2.0\nu2,a,3.0\nu1,a,4.0\n",
        )
        t = load_interactions(p, PANEL_IDS)
        order = list(zip(t.users.tolist(), t.panels.tolist()))
        assert order == sorted(order)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "i.csv"
        write_interactions(p, [("u1", "a", 3.5), ("u2", "c", 1.25)])
        t = load_interactions(p, PANEL_IDS)
        assert t.user_ids == ("u1", "u2")
        assert np.array_equal(t.ratings, [3.5, 1.25])

    def test_bad_header(self, tmp_path):
        p = _write(tmp_path / "i.csv", "user,panel,score\nu,a,1\n")
        with pytest.raises(IngestError, match="expected header"):
            load_interactions(p, PANEL_IDS)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_rating(self, tmp_path, cell):
        p = _write(tmp_path / "i.csv", f"user_id,panel_id,rating\nu1,a,1.0\nu1,b,{cell}\n")
        with pytest.raises(IngestError, match=f":3: non-finite cell '{cell}'"):
            load_interactions(p, PANEL_IDS)

    def test_header_only_is_no_rows(self, tmp_path):
        p = _write(tmp_path / "i.csv", "user_id,panel_id,rating\n\n")
        with pytest.raises(IngestError, match="no rows"):
            load_interactions(p, PANEL_IDS)


class TestGaussians:
    def test_load_and_clip(self, tmp_path):
        p = _write(
            tmp_path / "g.csv",
            "id,mu_0,mu_1,logvar_0,logvar_1\na,0.5,-1.0,0.0,-60.0\n",
        )
        t = load_gaussians(p)
        assert np.array_equal(t.mean, [[0.5, -1.0]])
        assert t.var[0, 0] == 1.0
        assert t.var[0, 1] == 1e-10  # clamped from exp(-60)

    def test_header_order_enforced(self, tmp_path):
        p = _write(tmp_path / "g.csv", "id,logvar_0,mu_0\na,0.0,0.5\n")
        with pytest.raises(IngestError, match="expected header"):
            load_gaussians(p)

    @pytest.mark.parametrize("row", ["a,nan,0.0", "a,0.5,inf", "a,0.5,-inf"])
    def test_non_finite_mu_or_logvar(self, tmp_path, row):
        p = _write(tmp_path / "g.csv", f"id,mu_0,logvar_0\nz,0.0,0.0\n{row}\n")
        with pytest.raises(IngestError, match=":3: non-finite cell"):
            load_gaussians(p)

    def test_duplicate_id(self, tmp_path):
        p = _write(tmp_path / "g.csv", "id,mu_0,logvar_0\na,0.0,0.0\na,1.0,0.0\n")
        with pytest.raises(IngestError, match=":3: duplicate id 'a'"):
            load_gaussians(p)


def _benchmark_inputs():
    """perfbench/inputs.py, the generator of the benchmark's input files."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_tables_equal(got, expect):
    for field in expect.__dataclass_fields__:
        a, b = getattr(got, field), getattr(expect, field)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), field
        else:
            assert a == b, field


class TestAgainstOracle:
    """The block-wise loaders return what the per-cell loops in ingest_oracle return."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_inputs(self, tmp_path, seed):
        inputs = _benchmark_inputs()
        # the gcn-transductive workload: 2000 panels, 2000 raters x 20 ratings
        rng = np.random.default_rng(seed)
        features, labels = inputs.planted_panels(rng, 2000)
        emb, lab, ratings = (str(tmp_path / f) for f in ("e.csv", "l.csv", "r.csv"))
        inputs.write_panels(emb, lab, features, labels)
        inputs.write_ratings(ratings, inputs.ratings(rng, labels, 2000, 20))

        ids, x = load_embeddings(emb)
        oids, ox = oracle.load_embeddings(emb)
        assert ids == oids and x.dtype == ox.dtype and np.array_equal(x, ox)
        for got, expect in zip(load_labels(lab, ids), oracle.load_labels(lab, ids)):
            assert got.dtype == expect.dtype and np.array_equal(got, expect)
        assert_tables_equal(load_interactions(ratings, ids), oracle.load_interactions(ratings, ids))

    def test_edge_cases(self, tmp_path, caplog):
        emb = _write(
            tmp_path / "e.csv",
            'id,f0,f1\n\n"x,1", 1.5 ,-2e-3\n  \n , \n y ,+.5,1_0\n"z ",3,4\n',
        )
        lab = _write(
            tmp_path / "l.csv",
            'id,animal,mythology,tree,split\n y ,1,0, 1 ,\n\n"x,1",0,1,0, test \nz,0,0,0,train\n',
        )
        ratings = _write(
            tmp_path / "r.csv",
            "user_id,panel_id,rating\n"
            'u2, z ,1.0\n\n"u,1","x,1",2.5\nu2,y,4\nu2,z,3.0\nu3,nope,5\n'
            '"u,1","x,1",0.5\n u3 ,y, 1e1 \nu4,gone,1\n',
        )
        gauss = _write(
            tmp_path / "g.csv",
            'id,mu_0,mu_1,logvar_0,logvar_1\n\n"x,1", 0.5,-1,0,-60\n y ,2, 3 ,700,1.5\n',
        )
        ids, x = load_embeddings(emb)
        oids, ox = oracle.load_embeddings(emb)
        assert ids == oids == ("x,1", "y", "z")
        assert np.array_equal(x, ox)
        for a, b in zip(load_labels(lab, ids), oracle.load_labels(lab, ids)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        with caplog.at_level(logging.WARNING, logger="gemi.ingest"):
            table = load_interactions(ratings, ids)
        assert "dropped 2 interactions" in caplog.text
        assert_tables_equal(table, oracle.load_interactions(ratings, ids))
        assert table.user_ids == ("u2", "u,1", "u3")
        assert table.ratings.tolist() == [4.0, 3.0, 0.5, 10.0]  # u2 z: the last of 1.0, 3.0
        assert_tables_equal(load_gaussians(gauss), oracle.load_gaussians(gauss))


def _panel_rows(i):
    return f"x{i},{i}.5,-1.0"


# (loader, header, good data line i, bad line i, the error's message)
BLOCK_ERRORS = {
    "non-numeric": (load_embeddings, "id,f0,f1", _panel_rows, lambda i: f"x{i},oops,1.0", "non-numeric cell 'oops'"),
    "non-finite": (load_embeddings, "id,f0,f1", _panel_rows, lambda i: f"x{i},1.0,inf", "non-finite cell 'inf'"),
    "ragged": (load_embeddings, "id,f0,f1", _panel_rows, lambda i: f"x{i},1.0", "expected 3 cells, got 2"),
    "duplicate": (load_embeddings, "id,f0,f1", _panel_rows, lambda i: "x1,1.0,1.0", "duplicate id 'x1'"),
    "bad-label": (
        lambda p: load_labels(p, BLOCK_IDS),
        "id,animal,mythology,tree,split",
        lambda i: f"x{i},1,0,1,train",
        lambda i: f"x{i},1,2,1,train",
        "label cell must be 0 or 1, got '2'",
    ),
    "bad-split": (
        lambda p: load_labels(p, BLOCK_IDS),
        "id,animal,mythology,tree,split",
        lambda i: f"x{i},1,0,1,",
        lambda i: f"x{i},1,0,1,dev",
        "split must be train, test or empty, got 'dev'",
    ),
    "rating": (
        lambda p: load_interactions(p, PANEL_IDS),
        "user_id,panel_id,rating",
        lambda i: f"u{i},a,1.0",
        lambda i: f"u{i},b,nan",
        "non-finite cell 'nan'",
    ),
    "gaussian-duplicate": (
        load_gaussians,
        "id,mu_0,logvar_0",
        lambda i: f"x{i},0.5,0.0",
        lambda i: "x1,0.5,0.0",
        "duplicate id 'x1'",
    ),
}


class TestBlocks:
    """With INGEST_CELLS small, every file spans several blocks and loads as in one."""

    LINES = 3  # data lines per block

    def _blocks_of(self, monkeypatch, header: str, lines: int = LINES):
        monkeypatch.setattr(ingest, "INGEST_CELLS", lines * len(header.split(",")))

    @pytest.mark.parametrize("cells", [1, 200])
    def test_oracle_cases(self, tmp_path, caplog, monkeypatch, cells):
        # 1: one line per block; 200: 3 embedding lines, 40 label lines
        monkeypatch.setattr(ingest, "INGEST_CELLS", cells)
        cases = TestAgainstOracle()
        cases.test_edge_cases(tmp_path, caplog)
        cases.test_benchmark_inputs(tmp_path, 1)

    @pytest.mark.parametrize("index", [3, 5], ids=["first-of-block-2", "last-of-block-2"])
    @pytest.mark.parametrize("case", sorted(BLOCK_ERRORS))
    def test_error_keeps_message_and_line(self, tmp_path, monkeypatch, case, index):
        loader, header, good, bad, message = BLOCK_ERRORS[case]
        self._blocks_of(monkeypatch, header)
        body = [bad(i) if i == index else good(i) for i in range(3 * self.LINES)]
        p = _write(tmp_path / "f.csv", "\n".join([header, *body]) + "\n")
        with pytest.raises(IngestError, match=rf"f\.csv:{index + 2}: {message}$"):
            loader(p)

    @pytest.mark.parametrize("trailing", [True, False], ids=["trailing-break", "no-trailing-break"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_every_line_break_kind_bounds_the_rows(self, tmp_path, monkeypatch, eol, trailing):
        # the output is allotted one row per line break the reader splits on
        self._blocks_of(monkeypatch, "id,f0,f1")
        p = tmp_path / "e.csv"
        p.write_bytes((eol.join(["id,f0,f1", *map(_panel_rows, range(10))]) + eol * trailing).encode())
        ids, x = load_embeddings(p)
        assert ids == tuple(f"x{i}" for i in range(10))
        assert x.tolist() == [[i + 0.5, -1.0] for i in range(10)]

    def test_blank_lines_on_a_block_boundary(self, tmp_path, monkeypatch):
        self._blocks_of(monkeypatch, "id,f0,f1")
        body = [_panel_rows(i) for i in range(7)]
        text = "\n".join(["id,f0,f1", "", *body[:3], "", "  ", *body[3:6], "", *body[6:], ""]) + "\n"
        p = _write(tmp_path / "e.csv", text)
        ids, x = load_embeddings(p)
        oids, ox = oracle.load_embeddings(p)
        assert ids == oids and len(ids) == 7
        assert np.array_equal(x, ox)
        bad = _write(tmp_path / "bad.csv", text.replace(body[3], "x3,zzz,1.0"))
        with pytest.raises(IngestError, match=r"bad\.csv:8: non-numeric cell 'zzz'"):
            load_embeddings(bad)

    def test_one_full_block_and_header_only(self, tmp_path, monkeypatch):
        self._blocks_of(monkeypatch, "id,f0,f1")
        p = _write(tmp_path / "e.csv", "\n".join(["id,f0,f1", *map(_panel_rows, range(self.LINES))]) + "\n")
        ids, x = load_embeddings(p)
        oids, ox = oracle.load_embeddings(p)
        assert ids == oids and np.array_equal(x, ox) and x.shape == (self.LINES, 2)
        with pytest.raises(IngestError, match="no rows"):
            load_embeddings(_write(tmp_path / "h.csv", "id,f0,f1\n\n"))

    def test_unknown_panels_warned_once_with_the_total(self, tmp_path, monkeypatch, caplog):
        self._blocks_of(monkeypatch, "user_id,panel_id,rating", lines=1)
        p = _write(tmp_path / "i.csv", "user_id,panel_id,rating\nu1,zz,1.0\nu1,a,2.0\nu2,yy,3.0\nu2,xx,4.0\n")
        with caplog.at_level(logging.WARNING, logger="gemi.ingest"):
            t = load_interactions(p, PANEL_IDS)
        assert [r.getMessage() for r in caplog.records] == [f"{p}: dropped 3 interactions referencing unknown panels"]
        assert_tables_equal(t, oracle.load_interactions(p, PANEL_IDS))

    def test_peak_memory_is_one_block_not_the_file(self, tmp_path, monkeypatch):
        # 4000 lines of 33 cells in blocks of 124 lines.  Read whole, this
        # file peaked at 11.9 MB traced, 11.6 times the output
        monkeypatch.setattr(ingest, "INGEST_CELLS", 4096)
        p = tmp_path / "e.csv"
        write_embeddings(p, [f"p{i:05d}" for i in range(4000)], np.random.default_rng(0).normal(size=(4000, 32)))
        (_, x), peak = traced_peak(load_embeddings, p)
        # the output, filled in place (plus the rows a trailing line break
        # allots), and one block of cells at well under 256 bytes a cell
        assert peak < 1.1 * x.nbytes + 256 * ingest.INGEST_CELLS, (peak, x.nbytes)


class TestAssignSplit:
    def _table(self, n, labels, rng):
        return PanelTable(
            ids=tuple(f"p{i}" for i in range(n)),
            features=rng.normal(size=(n, 4)),
            labels=labels,
            split=np.array(["unassigned"] * n, dtype=object),
        )

    def test_partitions_everything(self, rng):
        labels = (rng.random((60, 3)) < 0.4).astype(np.int64)
        labels[labels.sum(axis=1) == 0, 0] = 1
        t = assign_split(self._table(60, labels, rng), 0.2, rng.substream("split"))
        assert set(t.split) <= {"train", "test"}
        assert all(type(tag) is str for tag in t.split)
        assert abs(t.test_mask.sum() - 12) <= 2

    def test_stratifies_each_label(self, rng):
        labels = (rng.random((100, 3)) < 0.3).astype(np.int64)
        labels[labels.sum(axis=1) == 0, 1] = 1
        t = assign_split(self._table(100, labels, rng), 0.2, rng.substream("split"))
        for k in range(3):
            pos = labels[:, k] == 1
            frac = (t.test_mask & pos).sum() / pos.sum()
            assert 0.1 <= frac <= 0.3, f"label {k} test fraction {frac}"

    def test_preserves_preassigned_tags(self, rng):
        labels = (rng.random((30, 3)) < 0.5).astype(np.int64)
        labels[:, 0] = 1
        table = self._table(30, labels, rng)
        split = table.split.copy()
        split[:5] = "train"
        split[5] = "test"
        table = PanelTable(table.ids, table.features, table.labels, split)
        out = assign_split(table, 0.3, rng.substream("s"))
        assert list(out.split[:5]) == ["train"] * 5
        assert out.split[5] == "test"

    def test_rare_label_falls_back_to_random(self, rng, caplog):
        labels = np.zeros((20, 3), dtype=np.int64)
        labels[:, 0] = 1
        labels[3, 2] = 1  # a single tree positive
        with caplog.at_level(logging.WARNING, logger="gemi.ingest"):
            t = assign_split(self._table(20, labels, rng), 0.25, rng.substream("s"))
        assert "random split" in caplog.text
        # the first 5 of one permutation of the pool go to test
        first = set(rng.substream("s").permutation(20)[:5].tolist())
        assert list(t.split) == ["test" if i in first else "train" for i in range(20)]
        assert all(type(tag) is str for tag in t.split)

    def test_deterministic_under_seed(self, rng):
        labels = (rng.random((40, 3)) < 0.4).astype(np.int64)
        labels[labels.sum(axis=1) == 0, 0] = 1
        t1 = assign_split(self._table(40, labels, rng), 0.2, SeededRng(77))
        t2 = assign_split(self._table(40, labels, rng), 0.2, SeededRng(77))
        assert np.array_equal(t1.split, t2.split)

    def test_bad_fraction(self, rng):
        labels = np.ones((4, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            assign_split(self._table(4, labels, rng), 1.5, rng)

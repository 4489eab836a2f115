"""CSV ingestion and the panel/interaction/posterior table types.

File formats (all comma-separated, one header row):

* embeddings: ``id,f0,...,f{d-1}`` with float cells.
* labels: ``id,animal,mythology,tree[,split]``; label cells are 0/1,
  split cells are ``train``/``test`` or empty for unassigned.
* interactions: ``user_id,panel_id,rating`` with float ratings.
* gaussian posteriors: ``id,mu_0,...,mu_{d-1},logvar_0,...,logvar_{d-1}``.
* user datasets (written by ``gemi users`` under an output prefix):
  ``<prefix>.preferences.csv`` with ``user_id,animal,mythology,tree``
  preferences in [0, 1], and ``<prefix>.interactions.csv`` with
  ``user_id,panel_id,rating``, one ``1.0`` row per (user, panel).

Every file goes through one reader, which hands its data lines out in
blocks of at most :data:`INGEST_CELLS` cells: blank lines are skipped,
cells are stripped, the header is checked, each data line must have as
many cells as the header, and a file without data lines is rejected.
Each loader converts a block to arrays before it reads the next, so
the cell strings of one block, not of the file, are alive at once.  The
embeddings and gaussians loaders copy each block's floats into one
array allocated for the file's line count (one binary pass counts the
line breaks), so they hold their output once plus one block, with no
per-block arrays to concatenate.
Numeric cells must be finite floats.  Ids are nonempty and unique
within an embeddings, labels or gaussians file.  In an interactions
file the last rating of a (user, panel) pair wins, and rows naming an
unknown panel are dropped with a warning.  Failures raise
:class:`IngestError` naming the file and, where there is one, the file
line (a quoted cell may span lines); a file that is not UTF-8 names its
first undecodable line.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import SeededRng

logger = logging.getLogger(__name__)

LABEL_NAMES = ("animal", "mythology", "tree")

# loaded log-variances are exponentiated into this range
VAR_MIN = 1e-10
VAR_MAX = 1e10

# Cells per ingest block.  A block's cells are str objects, about 4 MB at
# this size; counting cells, not lines, keeps a block that small at
# CLIP-size widths (768 columns) too.
INGEST_CELLS = 1 << 16


class IngestError(ValueError):
    """Raised for malformed input files; message names file and line."""


@dataclass(frozen=True)
class PanelTable:
    """Aligned panel ids, embedding matrix, labels, and split tags."""

    ids: tuple[str, ...]
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n, 3) int, columns follow LABEL_NAMES
    split: np.ndarray  # (n,) of {"train", "test", "unassigned"}

    @property
    def train_mask(self) -> np.ndarray:
        return self.split == "train"

    @property
    def test_mask(self) -> np.ndarray:
        return self.split == "test"


@dataclass(frozen=True)
class GaussianTable:
    """Per-panel diagonal Gaussian posteriors from one modality."""

    ids: tuple[str, ...]
    mean: np.ndarray  # (n, d)
    var: np.ndarray  # (n, d), in [VAR_MIN, VAR_MAX]


@dataclass(frozen=True)
class InteractionTable:
    """Deduplicated user/panel ratings resolved to panel indices."""

    user_ids: tuple[str, ...]  # distinct users, first-seen order
    users: np.ndarray  # (m,) index into user_ids
    panels: np.ndarray  # (m,) index into the panel table
    ratings: np.ndarray  # (m,) float64


def _not_utf8(path) -> IngestError:
    """The error for a file that does not decode as UTF-8.

    The decoder's byte position counts within its buffer, not the file,
    so the file is rescanned in binary for its first undecodable line.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return IngestError(f"{path}:{lineno}: not UTF-8 text")
    return IngestError(f"{path}: not UTF-8 text")


def _records(path):
    """Yield (first file line, stripped cells) for each non-blank CSV record.

    A quoted cell may span lines, so a record starts on the line after
    the previous record's last line (``reader.line_num``).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            last = 0
            for row in reader:
                first, last = last + 1, reader.line_num
                cells = [cell.strip() for cell in row]
                if any(cells):
                    yield first, cells
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _read_blocks(path, header_ok, expected: str):
    """Yield a CSV file's data as (header, line numbers, cells) blocks.

    Blank lines are skipped and every cell is stripped.  The first line
    must satisfy ``header_ok`` (the error quotes ``expected``), every
    data line must have as many cells as the header, and at least one
    data line must exist.  ``cells`` is an object array with one row per
    data line, at most ``INGEST_CELLS // len(header)`` rows (at least
    one); a caller converts each block before it asks for the next, so
    only one block of cell strings is alive at a time.
    """
    records = _records(path)
    first = next(records, None)
    if first is None:
        raise IngestError(f"{path}: no rows")
    header_line, header = first
    if not header_ok(header):
        raise IngestError(f"{path}:{header_line}: expected header {expected}")
    size = max(1, INGEST_CELLS // len(header))
    lines, rows, yielded = [], [], False
    for lineno, cells in records:
        if len(cells) != len(header):
            raise IngestError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        lines.append(lineno)
        rows.append(cells)
        if len(rows) == size:
            yield header, lines, np.array(rows, dtype=object)
            lines, rows, yielded = [], [], True
    if rows:
        yield header, lines, np.array(rows, dtype=object)
    elif not yielded:
        raise IngestError(f"{path}: no rows")


def _floats(cells: np.ndarray, path, lines) -> np.ndarray:
    """A block of cells as finite float64; a failure names the first bad line."""
    try:
        values = cells.astype(np.float64)  # float() on each cell
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    for lineno, row in zip(lines, cells):
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                raise IngestError(f"{path}:{lineno}: non-numeric cell {cell!r}") from None
            if not math.isfinite(value):
                raise IngestError(f"{path}:{lineno}: non-finite cell {cell!r}")
    raise AssertionError("unreachable: the block failed but no cell did")


def _unique_ids(cells: np.ndarray, path, lines, seen: set[str]) -> list[str]:
    """A block's first column as ids; an empty id, or one already in
    ``seen`` (the file's earlier ids), names its line."""
    ids = cells[:, 0].tolist()
    for lineno, pid in zip(lines, ids):
        if not pid:
            raise IngestError(f"{path}:{lineno}: empty id")
        if pid in seen:
            raise IngestError(f"{path}:{lineno}: duplicate id {pid!r}")
        seen.add(pid)
    return ids


def _line_bound(path) -> int:
    """An upper bound on a file's data lines: its line breaks.

    One binary pass counts the breaks the CSV reader splits on: ``\n``,
    ``\r\n`` and a lone ``\r``.  A file has at most one line more than
    breaks, and the header takes one of them.
    """
    bound, cr_end = 0, False
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            crlf = chunk.count(b"\r\n") + (cr_end and chunk.startswith(b"\n"))
            bound += chunk.count(b"\n") + chunk.count(b"\r") - crlf
            cr_end = chunk.endswith(b"\r")
    return bound


def _id_float_rows(path, header_ok, expected: str):
    """(header, unique ids, finite float64 rows) of an id-keyed numeric file.

    The floats of each block are copied into one array sized by
    :func:`_line_bound` before the next block is read; the filled rows
    are returned.
    """
    ids, seen, values, filled = [], set(), None, 0
    for header, lines, cells in _read_blocks(path, header_ok, expected):
        if values is None:
            values = np.empty((_line_bound(path), len(header) - 1))
        ids += _unique_ids(cells, path, lines, seen)
        values[filled : filled + len(lines)] = _floats(cells[:, 1:], path, lines)
        filled += len(lines)
        del cells  # before the next block is read
    return header, tuple(ids), values[:filled]


def load_embeddings(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Load an embeddings CSV; the dimension is inferred from the header."""
    _, ids, values = _id_float_rows(path, lambda h: len(h) >= 2 and h[0] == "id", "id,f0,...")
    return ids, values


def load_labels(path, ids: tuple[str, ...]):
    """(labels, split) of the panels ``ids``, in that order.

    The file's ids must match ``ids`` one to one; split cells left empty
    come back as ``"unassigned"``.
    """
    expected = ["id", *LABEL_NAMES]
    file_ids, labels, splits, seen = [], [], [], set()
    for header, lines, cells in _read_blocks(
        path, lambda h: h in (expected, expected + ["split"]), f"{','.join(expected)}[,split]"
    ):
        file_ids += _unique_ids(cells, path, lines, seen)
        label_cells = cells[:, 1 : 1 + len(LABEL_NAMES)]
        bad = (label_cells != "0") & (label_cells != "1")
        if bad.any():
            r, j = np.argwhere(bad)[0]
            raise IngestError(f"{path}:{lines[r]}: label cell must be 0 or 1, got {label_cells[r, j]!r}")
        labels.append((label_cells == "1").astype(np.int64))
        split = cells[:, -1].copy() if len(header) > len(expected) else np.full(len(lines), "", dtype=object)
        bad = (split != "train") & (split != "test") & (split != "")
        if bad.any():
            r = np.flatnonzero(bad)[0]
            raise IngestError(f"{path}:{lines[r]}: split must be train, test or empty, got {split[r]!r}")
        split[split == ""] = "unassigned"
        splits.append(split)
        del cells  # before the next block is read
    labels, split = np.concatenate(labels), np.concatenate(splits)
    index = {pid: r for r, pid in enumerate(file_ids)}
    missing = [pid for pid in ids if pid not in index]
    if missing:
        raise IngestError(f"{path}: missing labels for id {missing[0]!r}")
    extra = index.keys() - set(ids)
    if extra:
        raise IngestError(f"{path}: label id {sorted(extra)[0]!r} has no embedding")
    rows = [index[pid] for pid in ids]
    return labels[rows], split[rows]


def load_interactions(path, panel_ids) -> InteractionTable:
    """Load ratings against ``panel_ids``; duplicate (user, panel) pairs keep the last rating."""
    index = {pid: i for i, pid in enumerate(panel_ids)}
    user_idx: dict[str, int] = {}  # first-seen order
    users, panels, ratings, dropped = [], [], [], 0
    for _, lines, cells in _read_blocks(
        path, lambda h: h == ["user_id", "panel_id", "rating"], "user_id,panel_id,rating"
    ):
        rating = _floats(cells[:, 2:], path, lines)[:, 0]
        panel = np.array([index.get(pid, -1) for pid in cells[:, 1].tolist()], dtype=np.int64)
        known = panel >= 0
        dropped += int(np.count_nonzero(~known))
        users.append(
            np.array([user_idx.setdefault(uid, len(user_idx)) for uid in cells[known, 0].tolist()], dtype=np.int64)
        )
        panels.append(panel[known])
        ratings.append(rating[known])
        del cells  # before the next block is read
    if dropped:
        logger.warning("%s: dropped %d interactions referencing unknown panels", path, dropped)
    # the first occurrence of a key in the reversed rows is its last rating;
    # keys come out sorted, i.e. by user, then panel
    n = len(panel_ids)
    keys, first = np.unique((np.concatenate(users) * n + np.concatenate(panels))[::-1], return_index=True)
    return InteractionTable(
        user_ids=tuple(user_idx),
        users=keys // n,
        panels=keys % n,
        ratings=np.concatenate(ratings)[::-1][first],
    )


def _gaussian_header(d: int) -> list[str]:
    return ["id", *[f"mu_{j}" for j in range(d)], *[f"logvar_{j}" for j in range(d)]]


def load_gaussians(path) -> GaussianTable:
    """Load diagonal Gaussian posteriors; variances are exp(logvar) clamped."""
    header, ids, values = _id_float_rows(
        path,
        lambda h: len(h) >= 3 and h == _gaussian_header((len(h) - 1) // 2),
        "id,mu_0,...,logvar_0,...",
    )
    d = (len(header) - 1) // 2
    return GaussianTable(ids=ids, mean=values[:, :d], var=np.clip(np.exp(values[:, d:]), VAR_MIN, VAR_MAX))


def assign_split(table: PanelTable, test_fraction: float, rng: SeededRng) -> PanelTable:
    """Split unassigned panels into train/test, stratified per label.

    Uses greedy iterative stratification: labels are balanced rarest
    first, so each label's positives land in the test split at close to
    the requested fraction.  If any label has fewer than two positives
    among the unassigned panels, stratification is impossible and the
    split falls back to a global random draw (with a warning).
    Pre-assigned split tags are never changed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    pool = np.flatnonzero(table.split == "unassigned")
    if pool.size == 0:
        return table
    split = table.split.copy()
    y = table.labels[pool]
    positives = y.sum(axis=0)
    n_test_target = test_fraction * pool.size
    if np.any(positives < 2):
        lbl = LABEL_NAMES[int(np.argmin(positives))]
        logger.warning(
            "label %r has %d positives among unassigned panels; using a global random split",
            lbl,
            int(positives.min()),
        )
        order = rng.permutation(pool.size)
        split[pool] = "train"
        split[pool[order[: int(round(n_test_target))]]] = "test"
        return replace(table, split=split)

    # desired remaining test counts, overall and per label
    desire_test = np.append(test_fraction * positives, n_test_target)
    desire_train = np.append((1.0 - test_fraction) * positives, pool.size - n_test_target)
    assigned = np.zeros(pool.size, dtype=bool)
    choice = np.zeros(pool.size, dtype=bool)  # True -> test
    remaining_pos = positives.astype(np.float64).copy()
    while not assigned.all():
        open_labels = [k for k in range(y.shape[1]) if remaining_pos[k] > 0]
        if open_labels:
            k = min(open_labels, key=lambda k: remaining_pos[k])
            cand = np.flatnonzero(~assigned & (y[:, k] == 1))
            slot = k
        else:
            cand = np.flatnonzero(~assigned)
            slot = y.shape[1]  # only the overall counter remains
        cand = cand[rng.permutation(cand.size)]
        for local in cand:
            to_test = desire_test[slot] > desire_train[slot] or (
                desire_test[slot] == desire_train[slot] and rng.random() < 0.5
            )
            choice[local] = to_test
            assigned[local] = True
            lane = desire_test if to_test else desire_train
            lane[-1] -= 1.0
            for kk in np.flatnonzero(y[local]):
                lane[kk] -= 1.0
                remaining_pos[kk] -= 1.0
    split[pool] = np.where(choice, "test", "train")
    return replace(table, split=split)

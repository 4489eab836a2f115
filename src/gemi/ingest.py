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

Parse failures raise :class:`IngestError` naming the offending line.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace

import numpy as np

from .numerics import SeededRng

logger = logging.getLogger(__name__)

LABEL_NAMES = ("animal", "mythology", "tree")

# loaded log-variances are exponentiated into this range
VAR_MIN = 1e-10
VAR_MAX = 1e10


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
    def n(self) -> int:
        return len(self.ids)

    @property
    def train_mask(self) -> np.ndarray:
        return self.split == "train"

    @property
    def test_mask(self) -> np.ndarray:
        return self.split == "test"

    def index_of(self) -> dict[str, int]:
        return {pid: i for i, pid in enumerate(self.ids)}


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
    dropped: int  # rows referencing unknown panels


def _read_rows(path) -> list[tuple[int, list[str]]]:
    """Read CSV rows as (line_number, cells), skipping blank lines."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            out.append((lineno, [cell.strip() for cell in row]))
    if not out:
        raise IngestError(f"{path}: no rows")
    return out


def _parse_float(cell: str, path, lineno: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise IngestError(f"{path}:{lineno}: non-numeric cell {cell!r}") from None


def load_embeddings(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Load an embeddings CSV; the dimension is inferred from the header."""
    rows = _read_rows(path)
    header_line, header = rows[0]
    if len(header) < 2 or header[0] != "id":
        raise IngestError(f"{path}:{header_line}: expected header id,f0,...")
    d = len(header) - 1
    if rows[1:] == []:
        raise IngestError(f"{path}: no rows")
    ids: list[str] = []
    seen: set[str] = set()
    data = np.empty((len(rows) - 1, d), dtype=np.float64)
    for r, (lineno, cells) in enumerate(rows[1:]):
        if len(cells) != d + 1:
            raise IngestError(f"{path}:{lineno}: expected {d + 1} cells, got {len(cells)}")
        pid = cells[0]
        if pid in seen:
            raise IngestError(f"{path}:{lineno}: duplicate id {pid!r}")
        seen.add(pid)
        ids.append(pid)
        for j, cell in enumerate(cells[1:]):
            data[r, j] = _parse_float(cell, path, lineno)
    if not np.all(np.isfinite(data)):
        raise IngestError(f"{path}: non-finite embedding values")
    return tuple(ids), data


def load_labels(path, ids: tuple[str, ...] | None = None):
    """Load labels (and optional split tags).

    With ``ids`` the rows are checked for a bijection with that id set
    and returned aligned to its order as (labels, split).  Without it,
    file order is kept and (ids, labels, split) is returned.
    """
    rows = _read_rows(path)
    header_line, header = rows[0]
    expected = ["id", *LABEL_NAMES]
    has_split = header == expected + ["split"]
    if not has_split and header != expected:
        raise IngestError(
            f"{path}:{header_line}: expected header {','.join(expected)}[,split]"
        )
    labels_by_id: dict[str, np.ndarray] = {}
    split_by_id: dict[str, str] = {}
    file_order: list[str] = []
    for lineno, cells in rows[1:]:
        if len(cells) != len(header):
            raise IngestError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
        pid = cells[0]
        if pid in labels_by_id:
            raise IngestError(f"{path}:{lineno}: duplicate id {pid!r}")
        row = np.empty(len(LABEL_NAMES), dtype=np.int64)
        for j, cell in enumerate(cells[1 : 1 + len(LABEL_NAMES)]):
            if cell not in ("0", "1"):
                raise IngestError(f"{path}:{lineno}: label cell must be 0 or 1, got {cell!r}")
            row[j] = int(cell)
        labels_by_id[pid] = row
        file_order.append(pid)
        if has_split:
            tag = cells[-1]
            if tag not in ("train", "test", ""):
                raise IngestError(f"{path}:{lineno}: split must be train, test or empty, got {tag!r}")
            split_by_id[pid] = tag or "unassigned"
    if ids is None:
        labels = np.stack([labels_by_id[pid] for pid in file_order])
        split = np.array(
            [split_by_id.get(pid, "unassigned") for pid in file_order], dtype=object
        )
        return tuple(file_order), labels, split
    missing = [pid for pid in ids if pid not in labels_by_id]
    if missing:
        raise IngestError(f"{path}: missing labels for id {missing[0]!r}")
    extra = set(labels_by_id) - set(ids)
    if extra:
        raise IngestError(f"{path}: label id {sorted(extra)[0]!r} has no embedding")
    labels = np.stack([labels_by_id[pid] for pid in ids])
    split = np.array([split_by_id.get(pid, "unassigned") for pid in ids], dtype=object)
    return labels, split


def load_interactions(path, table: PanelTable) -> InteractionTable:
    """Load ratings; duplicate (user, panel) pairs keep the last rating."""
    rows = _read_rows(path)
    header_line, header = rows[0]
    if header != ["user_id", "panel_id", "rating"]:
        raise IngestError(f"{path}:{header_line}: expected header user_id,panel_id,rating")
    index = table.index_of()
    user_order: list[str] = []
    user_idx: dict[str, int] = {}
    last: dict[tuple[int, int], float] = {}
    dropped = 0
    for lineno, cells in rows[1:]:
        if len(cells) != 3:
            raise IngestError(f"{path}:{lineno}: expected 3 cells, got {len(cells)}")
        uid, pid, rating_cell = cells
        rating = _parse_float(rating_cell, path, lineno)
        if pid not in index:
            dropped += 1
            continue
        if uid not in user_idx:
            user_idx[uid] = len(user_order)
            user_order.append(uid)
        last[(user_idx[uid], index[pid])] = rating
    if dropped:
        logger.warning("%s: dropped %d interactions referencing unknown panels", path, dropped)
    if not last:
        logger.warning("%s: no usable interactions", path)
        return InteractionTable(
            user_ids=tuple(user_order),
            users=np.empty(0, dtype=np.int64),
            panels=np.empty(0, dtype=np.int64),
            ratings=np.empty(0, dtype=np.float64),
            dropped=dropped,
        )
    pairs = sorted(last)
    users = np.array([u for u, _ in pairs], dtype=np.int64)
    panels = np.array([p for _, p in pairs], dtype=np.int64)
    ratings = np.array([last[pair] for pair in pairs], dtype=np.float64)
    return InteractionTable(
        user_ids=tuple(user_order), users=users, panels=panels, ratings=ratings, dropped=dropped
    )


def load_gaussians(path) -> GaussianTable:
    """Load diagonal Gaussian posteriors; variances are exp(logvar) clamped."""
    rows = _read_rows(path)
    header_line, header = rows[0]
    if len(header) < 3 or header[0] != "id" or (len(header) - 1) % 2 != 0:
        raise IngestError(f"{path}:{header_line}: expected header id,mu_0,...,logvar_0,...")
    d = (len(header) - 1) // 2
    mu_cols = [f"mu_{j}" for j in range(d)]
    lv_cols = [f"logvar_{j}" for j in range(d)]
    if header != ["id", *mu_cols, *lv_cols]:
        raise IngestError(f"{path}:{header_line}: expected header id,mu_0,...,logvar_0,...")
    ids: list[str] = []
    seen: set[str] = set()
    mean = np.empty((len(rows) - 1, d), dtype=np.float64)
    logvar = np.empty((len(rows) - 1, d), dtype=np.float64)
    for r, (lineno, cells) in enumerate(rows[1:]):
        if len(cells) != 2 * d + 1:
            raise IngestError(f"{path}:{lineno}: expected {2 * d + 1} cells, got {len(cells)}")
        pid = cells[0]
        if pid in seen:
            raise IngestError(f"{path}:{lineno}: duplicate id {pid!r}")
        seen.add(pid)
        ids.append(pid)
        for j in range(d):
            mean[r, j] = _parse_float(cells[1 + j], path, lineno)
            logvar[r, j] = _parse_float(cells[1 + d + j], path, lineno)
    var = np.clip(np.exp(logvar), VAR_MIN, VAR_MAX)
    return GaussianTable(ids=tuple(ids), mean=mean, var=var)


def write_embeddings(path, ids, features) -> None:
    features = np.asarray(features, dtype=np.float64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *[f"f{j}" for j in range(features.shape[1])]])
        for pid, row in zip(ids, features):
            writer.writerow([pid, *[repr(float(v)) for v in row]])


def write_labels(path, table: PanelTable, include_split: bool = True) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["id", *LABEL_NAMES]
        if include_split:
            header.append("split")
        writer.writerow(header)
        for i, pid in enumerate(table.ids):
            row = [pid, *[str(int(v)) for v in table.labels[i]]]
            if include_split:
                tag = table.split[i]
                row.append("" if tag == "unassigned" else tag)
            writer.writerow(row)


def write_interactions(path, rows) -> None:
    """Write (user_id, panel_id, rating) triples."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "panel_id", "rating"])
        for user_id, panel_id, rating in rows:
            writer.writerow([user_id, panel_id, repr(float(rating))])


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
        n_test = int(round(n_test_target))
        test_local = set(order[:n_test].tolist())
        for local, idx in enumerate(pool):
            split[idx] = "test" if local in test_local else "train"
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
    for local, idx in enumerate(pool):
        split[idx] = "test" if choice[local] else "train"
    return replace(table, split=split)

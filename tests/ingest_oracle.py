"""Per-cell reference implementations of the CSV loaders.

The loop forms of ``load_embeddings``, ``load_labels``,
``load_interactions`` and ``load_gaussians``: every line is parsed on
its own, every numeric cell goes through ``float()``, and duplicate
ratings are kept in a dict keyed by (user, panel).  On well-formed
files the block-wise loaders in ``gemi.ingest`` must return the same
ids, arrays and counts bit for bit; the ingest tests compare the two.
"""

from __future__ import annotations

import csv

import numpy as np

from gemi.ingest import LABEL_NAMES, VAR_MAX, VAR_MIN, GaussianTable, InteractionTable


def _read_rows(path) -> list[tuple[int, list[str]]]:
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            out.append((lineno, [cell.strip() for cell in row]))
    return out


def load_embeddings(path):
    rows = _read_rows(path)
    d = len(rows[0][1]) - 1
    ids = []
    data = np.empty((len(rows) - 1, d), dtype=np.float64)
    for r, (_, cells) in enumerate(rows[1:]):
        ids.append(cells[0])
        for j, cell in enumerate(cells[1:]):
            data[r, j] = float(cell)
    return tuple(ids), data


def load_labels(path, ids):
    rows = _read_rows(path)
    has_split = rows[0][1][-1] == "split"
    labels_by_id, split_by_id = {}, {}
    for _, cells in rows[1:]:
        pid = cells[0]
        labels_by_id[pid] = np.array([int(c) for c in cells[1 : 1 + len(LABEL_NAMES)]], dtype=np.int64)
        if has_split:
            split_by_id[pid] = cells[-1] or "unassigned"
    labels = np.stack([labels_by_id[pid] for pid in ids])
    split = np.array([split_by_id.get(pid, "unassigned") for pid in ids], dtype=object)
    return labels, split


def load_interactions(path, panel_ids) -> InteractionTable:
    rows = _read_rows(path)
    index = {pid: i for i, pid in enumerate(panel_ids)}
    user_order, user_idx, last = [], {}, {}
    for _, (uid, pid, rating_cell) in rows[1:]:
        rating = float(rating_cell)
        if pid not in index:
            continue
        if uid not in user_idx:
            user_idx[uid] = len(user_order)
            user_order.append(uid)
        last[(user_idx[uid], index[pid])] = rating
    pairs = sorted(last)
    return InteractionTable(
        user_ids=tuple(user_order),
        users=np.array([u for u, _ in pairs], dtype=np.int64),
        panels=np.array([p for _, p in pairs], dtype=np.int64),
        ratings=np.array([last[pair] for pair in pairs], dtype=np.float64),
    )


def load_gaussians(path) -> GaussianTable:
    rows = _read_rows(path)
    d = (len(rows[0][1]) - 1) // 2
    ids = []
    mean = np.empty((len(rows) - 1, d), dtype=np.float64)
    logvar = np.empty((len(rows) - 1, d), dtype=np.float64)
    for r, (_, cells) in enumerate(rows[1:]):
        ids.append(cells[0])
        for j in range(d):
            mean[r, j] = float(cells[1 + j])
            logvar[r, j] = float(cells[1 + d + j])
    return GaussianTable(ids=tuple(ids), mean=mean, var=np.clip(np.exp(logvar), VAR_MIN, VAR_MAX))

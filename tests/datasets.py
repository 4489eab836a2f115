"""Synthetic panel datasets with planted label structure.

Labels are nested by rarity: each item draws one uniform richness value
and a label is positive when the value falls under that label's
prevalence, so rarer tags only appear on items that already carry the
commoner ones.  An item's embedding is the sum of its labels' direction
vectors plus unit Gaussian noise; items with no tags are pure noise.
The test suites build their panel tables here, and write them (and
ratings and Gaussian posteriors) as the CSV files ``gemi`` reads.
"""

from __future__ import annotations

import csv

import numpy as np

from gemi.ingest import LABEL_NAMES, PanelTable
from gemi.numerics import SeededRng


def make_planted_panels(
    n: int = 150,
    d: int = 32,
    prevalences=(0.44, 0.33, 0.27),
    separation: float = 4.0,
    test_fraction: float = 0.2,
    rng: SeededRng | None = None,
    seed: int = 0,
) -> PanelTable:
    """Gaussian-blob panels with one planted direction per label.

    Label directions are orthogonal axes scaled to ``separation`` (the
    between-blob distance in units of the noise std, which is 1), so
    each richness level forms its own blob and adjacent levels sit
    exactly ``separation`` apart.  The split is stratified over
    richness levels to keep every blob represented in the test rows.
    """
    if rng is None:
        rng = SeededRng(seed)
    c = len(prevalences)
    if d < c:
        raise ValueError("embedding dimension must be at least the label count")
    p = np.asarray(prevalences, dtype=float)
    if np.any(p <= 0.0) or np.any(p > 1.0):
        raise ValueError("prevalences must lie in (0, 1]")
    u = rng.substream("labels").random(n)
    labels = (u[:, None] < p[None, :]).astype(np.int64)
    directions = np.zeros((c, d))
    for ell in range(c):
        directions[ell, ell] = separation
    noise = rng.substream("noise").normal(size=(n, d))
    features = labels @ directions + noise

    # Stratified 80/20-style split: per-richness quotas by largest
    # remainder, so the exact test count is hit and no blob vanishes.
    split_rng = rng.substream("split")
    n_test = int(round(test_fraction * n))
    richness = labels.sum(axis=1)
    split = np.array(["train"] * n, dtype=object)
    groups = [np.flatnonzero(richness == r) for r in range(c + 1)]
    groups = [g for g in groups if len(g)]
    quota = [test_fraction * len(g) for g in groups]
    base = [int(np.floor(q)) for q in quota]
    rem = n_test - sum(base)
    order = np.argsort([-(q - b) for q, b in zip(quota, base)], kind="stable")
    for j in order[:rem]:
        base[j] += 1
    for g, b in zip(groups, base):
        pick = split_rng.permutation(len(g))[:b]
        split[g[pick]] = "test"
    return PanelTable(
        ids=tuple(f"panel-{i:04d}" for i in range(n)),
        features=features,
        labels=labels,
        split=split,
    )


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


def write_gaussians(path, ids, mean, logvar) -> None:
    """Write per-panel diagonal Gaussians as id, means, then log-variances."""
    d = np.shape(mean)[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *[f"mu_{j}" for j in range(d)], *[f"logvar_{j}" for j in range(d)]])
        for pid, mu, lv in zip(ids, np.asarray(mean).tolist(), np.asarray(logvar).tolist()):
            writer.writerow([pid, *map(repr, mu), *map(repr, lv)])

"""Seeded input files for the benchmark workloads.

The generator lives here, not in ``gemi``, so a change under ``src/``
cannot silently change what the benchmark feeds the program.  Every
file is a pure function of (workload sizes, seed).

Panels are planted-label blobs: each of the three labels sits on an
exact share of the panels, drawn independently per label (the last one
rare, as the imbalance machinery expects), and an item's embedding is
the sum of its labels' direction vectors plus unit Gaussian noise.
Exact shares keep Precision@K from drifting with the seed's label
counts.  The labels file has no split column, so ``gemi`` assigns the
split itself.
"""

from __future__ import annotations

import numpy as np

LABELS = ("animal", "mythology", "tree")
PREVALENCES = (0.40, 0.30, 0.12)
DIM = 64
SEPARATION = 3.5  # blob distance in noise std units


def panel_ids(n: int) -> list[str]:
    return [f"p{i:05d}" for i in range(n)]


def planted_panels(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(features n×DIM, labels n×3) with one random orthogonal direction per label."""
    labels = np.zeros((n, len(LABELS)), dtype=np.int64)
    for j, share in enumerate(PREVALENCES):
        labels[rng.permutation(n)[: round(share * n)], j] = 1
    basis, _ = np.linalg.qr(rng.normal(size=(DIM, len(LABELS))))
    features = labels @ (SEPARATION * basis.T) + rng.normal(size=(n, DIM))
    return features, labels


def ratings(rng: np.random.Generator, labels: np.ndarray, raters: int, per_rater: int) -> list[tuple[str, str, int]]:
    """1-5 star ratings: raters like a random label subset and rate items carrying it higher."""
    n = labels.shape[0]
    ids = panel_ids(n)
    rows = []
    for r in range(raters):
        likes = rng.random(len(LABELS)) < 0.5
        items = np.sort(rng.choice(n, size=per_rater, replace=False))
        affinity = labels[items] @ np.where(likes, 1.0, -0.5)
        stars = np.clip(np.rint(3.0 + affinity + rng.normal(0.0, 0.7, size=per_rater)), 1, 5)
        rows.extend((f"u{r:05d}", ids[i], int(s)) for i, s in zip(items, stars))
    return rows


def write_panels(emb_path: str, labels_path: str, features: np.ndarray, labels: np.ndarray) -> None:
    ids = panel_ids(features.shape[0])
    with open(emb_path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(f"f{j}" for j in range(features.shape[1])) + "\n")
        for pid, row in zip(ids, features):
            fh.write(pid + "," + ",".join(f"{v:.6f}" for v in row) + "\n")
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(LABELS) + "\n")
        for pid, row in zip(ids, labels):
            fh.write(pid + "," + ",".join(str(int(v)) for v in row) + "\n")


def write_ratings(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id,panel_id,rating\n")
        for uid, pid, stars in rows:
            fh.write(f"{uid},{pid},{stars}\n")

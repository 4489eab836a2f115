"""Synthetic panel datasets with planted label structure.

Labels are nested by rarity: each item draws one uniform richness value
and a label is positive when the value falls under that label's
prevalence, so rarer tags only appear on items that already carry the
commoner ones.  An item's embedding is the sum of its labels' direction
vectors plus unit Gaussian noise; items with no tags are pure noise.
The test suites build their panel tables here.
"""

from __future__ import annotations

import numpy as np

from gemi.ingest import PanelTable
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

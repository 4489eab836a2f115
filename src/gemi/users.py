"""User preference modeling: synthetic profiles and the ratings pipeline.

Synthetic users draw K-subsets of the training panels uniformly and
threshold the empirical label frequency.  Real users come from ratings:
global min-max normalization, per-user label lift over a personal
baseline, pseudo-count smoothing toward a support-weighted population
prior, and a sigmoid gain mapping lifts into [0, 1] preferences.
Bootstrap augmentation resamples real users into an arbitrarily large
synthetic population.

A population is one :class:`Users` record of flat arrays.  Only the
random draws run once per user, in a fixed order; everything else is
array work over the whole population.

Profiles only ever reference training panels: a real user's rated test
panels are excluded so evaluation candidates stay unseen.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .ingest import LABEL_NAMES, InteractionTable
from .numerics import SeededRng

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Users:
    """A user population as flat arrays.

    User u is ``ids[u]``; their distinct panels, ascending, are
    ``items[indptr[u]:indptr[u + 1]]``, and ``preferences[u]`` is their
    per-label preference vector in [0, 1] (binary for synthetic users).
    """

    ids: tuple[str, ...]
    indptr: np.ndarray  # int64 (U + 1,)
    items: np.ndarray  # int64 (indptr[-1],)
    preferences: np.ndarray  # float64 (U, c)

    def __post_init__(self):
        ids = tuple(self.ids)
        indptr = np.asarray(self.indptr, dtype=np.int64)
        items = np.asarray(self.items, dtype=np.int64)
        prefs = np.asarray(self.preferences, dtype=np.float64)
        if indptr.shape != (len(ids) + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError(f"indptr must be {len(ids) + 1} nondecreasing offsets from 0")
        if items.shape != (indptr[-1],):
            raise ValueError(f"items must hold indptr[-1] = {indptr[-1]} panels, got shape {items.shape}")
        if items.size and items.min() < 0:
            raise ValueError("items must be panel indices")
        if prefs.ndim != 2 or prefs.shape[0] != len(ids):
            raise ValueError(f"preferences must have one row per user ({len(ids)}), got shape {prefs.shape}")
        if not np.all((prefs >= 0.0) & (prefs <= 1.0)):
            raise ValueError("preferences must lie in [0, 1]")
        # each item must exceed its left neighbour unless it starts a user
        rising = items[1:] > items[:-1]
        starts = indptr[1:-1]
        rising[starts[(starts > 0) & (starts < items.size)] - 1] = True
        if not rising.all():
            raise ValueError("each user's items must be distinct and ascending")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "preferences", prefs)

    def __len__(self) -> int:
        return len(self.ids)


def threshold_preferences(freq, tau: float) -> np.ndarray:
    """Binary preference: 1 wherever the frequency reaches tau."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    return (np.asarray(freq, dtype=np.float64) >= tau).astype(np.float64)


def sample_synthetic_users(train_indices, Y, num_users: int, k: int, tau: float, rng: SeededRng) -> Users:
    """Uniform K-subset profiles over the training panels.

    K is capped at the training count; items within a profile are
    distinct.  Preferences threshold the empirical label frequency.
    """
    train_indices = np.asarray(train_indices, dtype=np.int64)
    if train_indices.size == 0:
        raise ValueError("no training panels to sample from")
    if k < 1 or num_users < 1:
        raise ValueError("k and num_users must be at least 1")
    k_eff = min(k, train_indices.size)
    picks = np.stack([rng.choice(train_indices, size=k_eff, replace=False) for _ in range(num_users)])
    freq = np.asarray(Y, dtype=np.float64)[picks].mean(axis=1)
    return Users(
        ids=tuple(f"synth-{u}" for u in range(num_users)),
        indptr=np.arange(num_users + 1, dtype=np.int64) * k_eff,
        items=np.sort(picks, axis=1).ravel(),
        preferences=threshold_preferences(freq, tau),
    )


def minmax_normalize_ratings(ratings) -> np.ndarray:
    """Scale ratings into [0, 1] over their global range; constant → 0."""
    ratings = np.asarray(ratings, dtype=np.float64)
    if ratings.size == 0:
        raise ValueError("no interactions to normalize")
    lo = ratings.min()
    hi = ratings.max()
    if hi == lo:
        return np.zeros_like(ratings)
    return (ratings - lo) / (hi - lo)


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each run of ``counts[s]`` consecutive ``values``.

    Runs of one length are summed as the rows of one matrix, which numpy
    reduces in the same pairwise order as a run summed on its own, so
    each sum equals ``values[a:b].sum()`` bit for bit.  Distinct lengths
    add up to at most ``values.size``, so there are at most
    sqrt(2 · values.size) of them.
    """
    starts = np.cumsum(counts) - counts
    sums = np.zeros(counts.size)
    for length in np.unique(counts[counts > 0]):
        runs = np.flatnonzero(counts == length)
        sums[runs] = values[starts[runs, None] + np.arange(length)].sum(axis=1)
    return sums


def compute_lift(counts, panels, ratings, Y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-user, per-label mean-rating lift over each user's baseline.

    Rows are grouped by user: user u owns the ``counts[u]`` rows after
    those of users 0..u-1.  Returns (lift U×c, support counts U×c,
    baseline U).  A label the user never rated gets lift 0 with
    support 0.
    """
    counts = np.asarray(counts, dtype=np.int64)
    panels = np.asarray(panels, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.float64)
    if counts.size == 0 or counts.min() < 1:
        raise ValueError("every user needs at least one interaction")
    if counts.sum() != panels.size:
        raise ValueError(f"counts cover {counts.sum()} rows, panels has {panels.size}")
    owner = np.repeat(np.arange(counts.size), counts)
    baseline = _segment_sums(ratings, counts) / counts
    has = np.asarray(Y)[panels] == 1
    lift = np.zeros((counts.size, has.shape[1]))
    support = np.zeros(lift.shape, dtype=np.int64)
    for ell in range(has.shape[1]):
        support[:, ell] = np.bincount(owner[has[:, ell]], minlength=counts.size)
        sums = _segment_sums(ratings[has[:, ell]], support[:, ell])
        rated = support[:, ell] > 0
        lift[rated, ell] = sums[rated] / support[rated, ell] - baseline[rated]
    return lift, support, baseline


def smooth_lift(lift, support, prior_lift, pseudo_count: float) -> np.ndarray:
    """Pseudo-count shrinkage toward the population prior."""
    lift = np.asarray(lift, dtype=np.float64)
    support = np.asarray(support, dtype=np.float64)
    prior = np.asarray(prior_lift, dtype=np.float64)
    if pseudo_count < 0:
        raise ValueError("pseudo_count must be nonnegative")
    denom = support + pseudo_count
    if np.any(denom == 0):
        raise ValueError("support + pseudo_count must be positive")
    return (support * lift + pseudo_count * prior) / denom


def sigmoid_preference(lift, gain: float) -> np.ndarray:
    """Map lift to a preference in (0, 1) with adjustable sharpness."""
    if gain <= 0:
        raise ValueError("gain must be positive")
    return 1.0 / (1.0 + np.exp(-gain * np.asarray(lift, dtype=np.float64)))


def top_k_panels(counts, panels, ratings, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each user's k highest-rated panels, ties by ascending panel index.

    Rows are grouped by user as in :func:`compute_lift`.  Returns
    (indptr, items) with each user's picks in ascending panel order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    counts = np.asarray(counts, dtype=np.int64)
    panels = np.asarray(panels, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.float64)
    owner = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((panels, -ratings, owner))
    rank = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
    best = order[rank < k]
    items = panels[best][np.lexsort((panels[best], owner[best]))]
    return np.concatenate([[0], np.cumsum(np.minimum(counts, k))]), items


def build_real_profiles(
    table: InteractionTable,
    Y,
    train_mask,
    pseudo_count: float,
    gain: float,
    top_k: int,
) -> Users:
    """The full ratings pipeline producing continuous-preference profiles.

    Interactions on non-training panels are dropped before anything else
    (evaluation candidates must stay unseen); users left without any
    training interaction are skipped.  Users come out in ascending index
    of ``table.user_ids``; each user's rows keep their table order.
    """
    keep = np.flatnonzero(np.asarray(train_mask, dtype=bool)[table.panels])
    if keep.size < table.panels.size:
        logger.warning(
            "dropped %d interactions on non-training panels", table.panels.size - keep.size
        )
    if keep.size == 0:
        raise ValueError("no interactions on training panels")
    # one stable sort groups each user's rows without reordering them
    rows = keep[np.argsort(table.users[keep], kind="stable")]
    panels = table.panels[rows]
    ratings = minmax_normalize_ratings(table.ratings[rows])
    present, counts = np.unique(table.users[rows], return_counts=True)
    lift, support, _ = compute_lift(counts, panels, ratings, Y)
    den = support.sum(axis=0)
    prior = np.divide((support * lift).sum(axis=0), den, out=np.zeros(den.size), where=den > 0)
    indptr, items = top_k_panels(counts, panels, ratings, top_k)
    return Users(
        ids=tuple(np.asarray(table.user_ids, dtype=object)[present]),
        indptr=indptr,
        items=items,
        preferences=sigmoid_preference(smooth_lift(lift, support, prior, pseudo_count), gain),
    )


def bootstrap_augment(
    bases: Users,
    observed_panels,
    target: int,
    k: int,
    p_replace: float,
    gain_low: float,
    gain_high: float,
    bias_sigma: float,
    noise_sigma: float,
    rng: SeededRng,
) -> Users:
    """Resample real users into a large synthetic population.

    Each synthetic user copies a uniformly drawn base: k interaction
    slots sampled with replacement from the base's stored panels, each
    slot replaced by a random observed panel with probability p_replace;
    stored as the distinct set.  Preferences are the base's, rescaled by
    a per-user gain, shifted by a per-user bias, perturbed per label,
    and clipped into [0, 1].

    The draws of user i (base, k slots, replace mask, substitutes if
    any, gain, bias, per-label noise) all come before those of user
    i + 1; ``a[integers(0, len(a), k)]`` draws what ``choice(a, k)``
    with replacement draws.
    """
    if not bases:
        raise ValueError("bootstrap needs at least one base profile")
    if target < 1:
        raise ValueError("target must be at least 1")
    observed = np.asarray(observed_panels, dtype=np.int64)
    sizes = np.diff(bases.indptr).tolist()  # a Python int high draws faster
    c = bases.preferences.shape[1]
    picked = np.empty(target, dtype=np.int64)
    slot_draws = np.empty((target, k), dtype=np.int64)
    replaced = np.empty((target, k), dtype=bool)
    sub_draws = []
    gains = np.empty(target)
    biases = np.empty(target)
    noise = np.empty((target, c))
    for i in range(target):
        base = rng.integers(0, len(bases))
        picked[i] = base
        slot_draws[i] = rng.integers(0, sizes[base], size=k)
        mask = rng.random(k) < p_replace
        replaced[i] = mask
        swaps = np.count_nonzero(mask)
        if swaps:
            sub_draws.append(rng.integers(0, observed.size, size=swaps))
        gains[i] = rng.uniform(gain_low, gain_high)
        biases[i] = rng.normal(0.0, bias_sigma)
        noise[i] = rng.normal(0.0, noise_sigma, size=c)

    slots = bases.items[bases.indptr[picked, None] + slot_draws]
    if sub_draws:
        slots[replaced] = observed[np.concatenate(sub_draws)]
    slots.sort(axis=1)
    distinct = np.ones(slots.shape, dtype=bool)
    distinct[:, 1:] = slots[:, 1:] != slots[:, :-1]
    prefs = gains[:, None] * bases.preferences[picked] + biases[:, None] + noise
    return Users(
        ids=tuple(f"boot-{i}" for i in range(target)),
        indptr=np.concatenate([[0], np.cumsum(distinct.sum(axis=1))]),
        items=slots[distinct],
        preferences=np.clip(prefs, 0.0, 1.0),
    )


def write_user_dataset(prefix: str, users: Users, panel_ids) -> tuple[str, str]:
    """Serialize users as preferences CSV + interactions CSV.

    ``panel_ids`` maps item indices back to panel id strings.
    """
    pref_path = f"{prefix}.preferences.csv"
    inter_path = f"{prefix}.interactions.csv"
    with open(pref_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", *LABEL_NAMES])
        writer.writerows(
            [uid, *map(repr, row)] for uid, row in zip(users.ids, users.preferences.tolist())
        )
    owners = np.asarray(users.ids, dtype=object)[np.repeat(np.arange(len(users)), np.diff(users.indptr))]
    pids = np.asarray(panel_ids, dtype=object)[users.items]
    with open(inter_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "panel_id", "rating"])
        writer.writerows((uid, pid, "1.0") for uid, pid in zip(owners, pids))
    return pref_path, inter_path

"""Per-user reference implementations of the user-population builders.

The loop forms of ``sample_synthetic_users``, ``build_real_profiles``
and ``bootstrap_augment``: one object per user, a boolean scan of the
interaction table per user, and ``Generator.choice`` for every
with-replacement draw.  The array versions in ``gemi.users`` must match
them bit for bit (ids, item offsets, items and preferences); the user
tests compare the two.
"""

from dataclasses import dataclass

import numpy as np

from gemi.ingest import InteractionTable
from gemi.users import (
    Users,
    minmax_normalize_ratings,
    sigmoid_preference,
    smooth_lift,
    threshold_preferences,
)


@dataclass(frozen=True)
class Profile:
    user_id: str
    items: tuple[int, ...]  # distinct, ascending
    preferences: np.ndarray  # (c,)


def rows_of(users: Users) -> list[tuple[int, ...]]:
    """Each user's items as a tuple."""
    return [tuple(users.items[a:b].tolist()) for a, b in zip(users.indptr[:-1], users.indptr[1:])]


def make_users(rows, prefs, ids=None) -> Users:
    """A Users record from per-user item rows; ids default to u0, u1, ..."""
    return Users(
        ids=tuple(f"u{i}" for i in range(len(rows))) if ids is None else tuple(ids),
        indptr=np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64),
        items=np.array([i for r in rows for i in r], dtype=np.int64),
        preferences=np.asarray(prefs, dtype=np.float64),
    )


def to_users(profiles) -> Users:
    return make_users(
        [p.items for p in profiles],
        np.stack([p.preferences for p in profiles]),
        ids=[p.user_id for p in profiles],
    )


def to_profiles(users: Users) -> list[Profile]:
    return [
        Profile(user_id=uid, items=items, preferences=users.preferences[u])
        for u, (uid, items) in enumerate(zip(users.ids, rows_of(users)))
    ]


def _profile(user_id, items, preferences) -> Profile:
    distinct = tuple(sorted(set(int(i) for i in items)))
    if len(distinct) != len(items):
        raise ValueError("profile items must be distinct")
    return Profile(user_id=user_id, items=distinct, preferences=np.asarray(preferences, dtype=np.float64))


def empirical_label_frequency(items, Y) -> np.ndarray:
    """Mean label vector over the profile's panels."""
    return np.asarray(Y, dtype=np.float64)[np.asarray(list(items), dtype=np.int64)].mean(axis=0)


def sample_synthetic_users(train_indices, Y, num_users, k, tau, rng) -> Users:
    train_indices = np.asarray(train_indices, dtype=np.int64)
    k_eff = min(k, train_indices.size)
    profiles = []
    for u in range(num_users):
        items = rng.choice(train_indices, size=k_eff, replace=False)
        freq = empirical_label_frequency(items, Y)
        profiles.append(_profile(f"synth-{u}", items, threshold_preferences(freq, tau)))
    return to_users(profiles)


def compute_lift_one(panels, ratings, Y):
    """One user's (lift, support, baseline) from their rows."""
    panels = np.asarray(panels, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=np.float64)
    Y = np.asarray(Y)
    baseline = float(ratings.mean())
    c = Y.shape[1]
    lift = np.zeros(c)
    support = np.zeros(c, dtype=np.int64)
    for ell in range(c):
        has = Y[panels, ell] == 1
        support[ell] = int(has.sum())
        if support[ell]:
            lift[ell] = ratings[has].mean() - baseline
    return lift, support, baseline


def top_k_one(panels, ratings, k) -> list[int]:
    """One user's k highest-rated panels, ties by ascending panel index."""
    panels = np.asarray(panels, dtype=np.int64)
    order = np.lexsort((panels, -np.asarray(ratings, dtype=np.float64)))
    return [int(p) for p in panels[order[:k]]]


def build_real_profiles(table, Y, train_mask, pseudo_count, gain, top_k) -> Users:
    keep = np.asarray(train_mask, dtype=bool)[table.panels]
    table = InteractionTable(
        user_ids=table.user_ids,
        users=table.users[keep],
        panels=table.panels[keep],
        ratings=minmax_normalize_ratings(table.ratings[keep]),
    )
    per_user = {}
    for u in np.unique(table.users):
        sel = table.users == u
        per_user[int(u)] = (table.panels[sel], table.ratings[sel])
    lifts, supports = {}, {}
    for u, (panels, ratings) in per_user.items():
        lifts[u], supports[u], _ = compute_lift_one(panels, ratings, Y)
    c = np.asarray(Y).shape[1]
    num = np.zeros(c)
    den = np.zeros(c)
    for u in per_user:
        num += supports[u] * lifts[u]
        den += supports[u]
    prior = np.divide(num, den, out=np.zeros(c), where=den > 0)
    profiles = []
    for u in sorted(per_user):
        panels, ratings = per_user[u]
        prefs = sigmoid_preference(smooth_lift(lifts[u], supports[u], prior, pseudo_count), gain)
        profiles.append(_profile(table.user_ids[u], top_k_one(panels, ratings, top_k), prefs))
    return to_users(profiles)


def bootstrap_augment(
    bases: Users, observed_panels, target, k, p_replace, gain_low, gain_high, bias_sigma, noise_sigma, rng
) -> Users:
    profiles = to_profiles(bases)
    observed = np.asarray(list(observed_panels), dtype=np.int64)
    out = []
    for i in range(target):
        base = profiles[int(rng.integers(0, len(profiles)))]
        slots = rng.choice(np.asarray(base.items, dtype=np.int64), size=k, replace=True)
        replace_mask = rng.random(k) < p_replace
        if replace_mask.any():
            slots = slots.copy()
            slots[replace_mask] = rng.choice(observed, size=int(replace_mask.sum()), replace=True)
        gain_scale = rng.uniform(gain_low, gain_high)
        bias = rng.normal(0.0, bias_sigma)
        noise = rng.normal(0.0, noise_sigma, size=base.preferences.shape)
        prefs = np.clip(gain_scale * base.preferences + bias + noise, 0.0, 1.0)
        out.append(Profile(user_id=f"boot-{i}", items=tuple(sorted(set(int(s) for s in slots))), preferences=prefs))
    return to_users(out)

"""Relevance scoring and label-conditioned Precision@K evaluation.

A user is represented by the mean of their interacted items' rows in
the chosen representation space; candidates are the test items ranked
by cosine similarity.  A recommended item counts for label ℓ only when
the user prefers ℓ (continuous preferences threshold at 0.5) and the
item carries ℓ; Precision@K divides by K_rec even when fewer candidates
exist.  Aggregation reports population (1/U) mean and std per label.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .ingest import LABEL_NAMES
from .numerics import EPS_NORM, as_matrix

PREFERENCE_THRESHOLD = 0.5


@dataclass(frozen=True)
class Recommendation:
    """Ranked test-item indices (global) with their scores."""

    user_id: str
    items: tuple[int, ...]
    scores: tuple[float, ...]


@dataclass(frozen=True)
class MetricsReport:
    """Per-label population statistics plus the per-user matrix."""

    model: str
    representation: str
    num_users: int
    k_rec: int
    seed: int
    label_names: tuple[str, ...]
    mean: np.ndarray  # (c,)
    std: np.ndarray  # (c,)
    per_user: np.ndarray  # (U, c)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "representation": self.representation,
            "U": self.num_users,
            "K_rec": self.k_rec,
            "seed": self.seed,
            "labels": {
                name: {"mean": float(self.mean[i]), "std": float(self.std[i])}
                for i, name in enumerate(self.label_names)
            },
            "per_user": [[float(v) for v in row] for row in self.per_user],
        }


def user_embedding(items, reps) -> np.ndarray:
    """Mean of the representation rows the user interacted with."""
    idx = np.asarray(list(items), dtype=np.int64)
    if idx.size == 0:
        raise ValueError("profile has no interactions")
    return as_matrix(reps)[idx].mean(axis=0)


def _row_norms(test_reps: np.ndarray) -> np.ndarray:
    return np.sqrt((test_reps**2).sum(axis=1)) + EPS_NORM


def _cosine(user_vec: np.ndarray, test_reps: np.ndarray, t_norm: np.ndarray) -> np.ndarray:
    u_norm = np.sqrt((user_vec**2).sum()) + EPS_NORM
    return (test_reps @ user_vec) / (u_norm * t_norm)


def score(user_vec, test_reps) -> np.ndarray:
    """Cosine similarity between the user vector and each candidate row."""
    test_reps = as_matrix(test_reps)
    return _cosine(np.asarray(user_vec, dtype=np.float64), test_reps, _row_norms(test_reps))


def top_k(scores, k_rec: int) -> np.ndarray:
    """Positions of the K_rec largest scores, ties by ascending position."""
    if k_rec < 1:
        raise ValueError("k_rec must be at least 1")
    scores = np.asarray(scores, dtype=np.float64)
    return np.argsort(-scores, kind="stable")[:k_rec]


def label_relevance(rec_items, preferences, Y) -> list[set[int]]:
    """Per-label set of recommended items that count as relevant."""
    prefs = np.asarray(preferences, dtype=np.float64) >= PREFERENCE_THRESHOLD
    Y = np.asarray(Y)
    out = []
    for ell in range(Y.shape[1]):
        if not prefs[ell]:
            out.append(set())
        else:
            out.append({int(t) for t in rec_items if Y[t, ell] == 1})
    return out


def precision_at_k(rec_items, relevant: set, k_rec: int) -> float:
    """|relevant ∩ recommendations| / K_rec with a fixed denominator."""
    if k_rec < 1:
        raise ValueError("k_rec must be at least 1")
    if len(rec_items) > k_rec:
        raise ValueError("more recommendations than K_rec")
    hits = sum(1 for t in rec_items if t in relevant)
    return hits / k_rec


def aggregate(per_user: np.ndarray, *, model: str, representation: str, k_rec: int, seed: int) -> MetricsReport:
    """Population mean/std per label over the per-user precision matrix."""
    per_user = np.asarray(per_user, dtype=np.float64)
    if per_user.ndim != 2 or per_user.shape[0] < 1:
        raise ValueError("per_user must be a nonempty U×c matrix")
    return MetricsReport(
        model=model,
        representation=representation,
        num_users=per_user.shape[0],
        k_rec=k_rec,
        seed=seed,
        label_names=LABEL_NAMES[: per_user.shape[1]],
        mean=per_user.mean(axis=0),
        std=per_user.std(axis=0),  # population (1/U) normalization
        per_user=per_user,
    )


def recommend_for_profile(profile, reps, test_indices, k_rec: int) -> Recommendation:
    test_reps = as_matrix(reps)[test_indices]
    return _recommend(profile, reps, test_indices, test_reps, _row_norms(test_reps), k_rec)


def _recommend(profile, reps, test_indices, test_reps, t_norm, k_rec: int) -> Recommendation:
    """recommend_for_profile with the candidate rows and norms computed by the caller."""
    s = _cosine(user_embedding(profile.items, reps), test_reps, t_norm)
    picks = top_k(s, k_rec)
    return Recommendation(
        user_id=profile.user_id,
        items=tuple(int(test_indices[p]) for p in picks),
        scores=tuple(float(s[p]) for p in picks),
    )


def evaluate(
    reps,
    Y,
    test_mask,
    profiles,
    k_rec: int,
    *,
    model: str,
    representation: str,
    seed: int,
) -> MetricsReport:
    """Full pipeline: embed users, rank test items, count label hits.

    ``reps`` is aligned to the global panel order; candidates are the
    test rows in ascending index order.
    """
    test_indices = np.flatnonzero(np.asarray(test_mask, dtype=bool))
    if test_indices.size == 0:
        raise ValueError("evaluation requires a nonempty test split")
    if not profiles:
        raise ValueError("evaluation requires at least one user profile")
    Y = np.asarray(Y)
    test_reps = as_matrix(reps)[test_indices]  # shared by every user
    t_norm = _row_norms(test_reps)
    per_user = np.zeros((len(profiles), Y.shape[1]))
    for u, profile in enumerate(profiles):
        rec = _recommend(profile, reps, test_indices, test_reps, t_norm, k_rec)
        relevant = label_relevance(rec.items, profile.preferences, Y)
        for ell in range(Y.shape[1]):
            per_user[u, ell] = precision_at_k(rec.items, relevant[ell], k_rec)
    return aggregate(
        per_user, model=model, representation=representation, k_rec=k_rec, seed=seed
    )


def write_metrics_json(path, report: MetricsReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_metrics_csv(path, report: MetricsReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "label", "mean", "std", "U", "K_rec", "seed"])
        for i, name in enumerate(report.label_names):
            writer.writerow(
                [
                    report.model,
                    name,
                    repr(float(report.mean[i])),
                    repr(float(report.std[i])),
                    report.num_users,
                    report.k_rec,
                    report.seed,
                ]
            )

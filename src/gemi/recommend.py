"""Label-conditioned Precision@K evaluation.

A user is represented by the mean of their interacted items' rows in
the chosen representation space; candidates are the test items ranked
by cosine similarity.  A recommended item counts for label ℓ only when
the user prefers ℓ (continuous preferences threshold at 0.5) and the
item carries ℓ; Precision@K divides by K_rec even when fewer candidates
exist.  Aggregation reports population (1/U) mean and std per label.

:func:`evaluate` is one array program: a user's row is one
:func:`numerics.spmm` of the user × item membership matrix with the
representations, divided by the user's item count, and the candidates
are ranked by :func:`graph.top_k_cosine`, the graph builders' scorer and
tie rule (similarity descending, candidate position ascending).  The
scorer asks for the user rows one BLOCK_ROWS block at a time, and each
block is formed only then, from that block's membership rows, so work
space is one block of user rows plus O(BLOCK_ROWS · candidates), not
the U × d user rows.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import graph
from .ingest import LABEL_NAMES
from .numerics import as_matrix, spmm
from .users import Users

PREFERENCE_THRESHOLD = 0.5


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


class _UserRows:
    """The users' mean item rows as a row source for :func:`graph.top_k_cosine`.

    Slicing ``[a:b]`` forms rows a..b-1 only then: the spmm of those
    users' membership rows (``indptr`` slices of the profiles) with the
    representations, divided by their item counts.  Each row sums its
    items in profile order, so a slice holds the bits of the same rows
    of one whole-population product.
    """

    def __init__(self, profiles: Users, reps: np.ndarray):
        self.indptr, self.items, self.reps = profiles.indptr, profiles.items, reps
        self.counts = np.diff(self.indptr)

    def __len__(self) -> int:
        return self.counts.size

    def __getitem__(self, rows: slice) -> np.ndarray:
        # imported here, not at module top: scipy.sparse adds ~0.2 s to CLI startup
        from scipy.sparse import csr_array

        a, b, _ = rows.indices(len(self))
        lo, hi = self.indptr[a], self.indptr[b]
        members = csr_array(
            (np.ones(hi - lo), self.items[lo:hi], self.indptr[a : b + 1] - lo), shape=(b - a, self.reps.shape[0])
        )
        block = spmm(members, self.reps)
        block /= self.counts[a:b, None]
        return block


def evaluate(
    reps,
    Y,
    test_mask,
    profiles: Users,
    k_rec: int,
    *,
    model: str,
    representation: str,
    seed: int,
) -> MetricsReport:
    """Embed users, rank test items, count label hits.

    ``reps`` is aligned to the global panel order; candidates are the
    test rows in ascending index order, normalized once.  ``profiles`` is
    the population as one :class:`users.Users` record; its user rows are
    formed one scorer block at a time (:class:`_UserRows`).
    """
    test_indices = np.flatnonzero(np.asarray(test_mask, dtype=bool))
    if test_indices.size == 0:
        raise ValueError("evaluation requires a nonempty test split")
    if not profiles:
        raise ValueError("evaluation requires at least one user profile")
    if k_rec < 1:
        raise ValueError("k_rec must be at least 1")
    counts = np.diff(profiles.indptr)
    if not counts.all():
        empty = profiles.ids[int(np.argmin(counts))]
        raise ValueError(f"profile {empty!r} has no interactions")
    reps = as_matrix(reps)
    k = min(k_rec, test_indices.size)
    _, picks = graph.top_k_cosine(_UserRows(profiles, reps), reps[test_indices], k)
    Y_test = np.asarray(Y)[test_indices] == 1
    hits = Y_test[picks.reshape(len(profiles), k)].sum(axis=1)
    prefers = profiles.preferences >= PREFERENCE_THRESHOLD
    per_user = np.where(prefers, hits, 0) / k_rec
    return aggregate(
        per_user, model=model, representation=representation, k_rec=k_rec, seed=seed
    )


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_metrics_json(path, report: MetricsReport) -> None:
    write_json(path, report.to_dict())


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

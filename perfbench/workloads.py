"""The three benchmark workloads and the configs they hand to `gemi run`.

Each workload loads a different layer so that a change to one layer
shows on the workload that exercises it and not on the others.  Sizes
and epoch counts are fixed here; only the seed varies between runs.
perfbench/README.md records, per workload, the layer shares its traced
run measured.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line, copied into BENCHMARK.json
    kind: str  # gcn | gae
    protocol: str  # transductive | inductive
    n: int  # panels
    epochs: int
    num_users: int = 0  # > 0: this many synthetic users
    raters: int = 0  # > 0: users come from a ratings CSV, bootstrapped
    ratings_per_rater: int = 20
    widths: dict | None = None  # model hidden/latent overrides

    def config(self, seed: int, emb: str, labels: str, ratings: str | None) -> dict:
        cfg = {
            "seed": seed,
            "protocol": self.protocol,
            "dataset": {"embeddings": emb, "labels": labels},
            "model": {"kind": self.kind, "epochs": self.epochs, **(self.widths or {})},
        }
        if self.raters:
            # augment_target stays at the config default (10 000 users)
            cfg["users"] = {"source": "augmented", "interactions": ratings}
        else:
            cfg["eval"] = {"num_users": self.num_users}
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        # Per-epoch GCN training loop.  spmm densifies the adjacency to
        # n×n on every call, so it dominates; this is where a CSR spmm
        # must show.  Users come from a ratings CSV (2000 raters x 20),
        # bootstrapped to 10 000 users: this also loads
        # ingest.load_interactions, users.build_real_profiles and
        # bootstrap_augment and the per-user loop in recommend.evaluate,
        # which do little of the work in the other workloads.
        Workload(
            name="gcn-transductive",
            why="GCN at n=2000, 30 epochs, ratings bootstrapped to 10000 users: per-epoch spmm (densified n x n) leads, then the users and eval layers",
            kind="gcn",
            protocol="transductive",
            n=2000,
            epochs=30,
            raters=2000,
        ),
        # GAE's dense n×n reconstruction objective (Z·Zᵀ, softplus and
        # sigmoid over every pair).  This is where a row-blocked objective
        # must show, in time and peak RSS.  GCN workloads never call it.
        Workload(
            name="gae-transductive",
            why="GAE at n=1500, 12 epochs: the dense n x n reconstruction loss and gradient dominate time and RSS",
            kind="gae",
            protocol="transductive",
            n=1500,
            epochs=12,
            num_users=2000,
            # At the default 128/64 widths, 12 epochs leave Z close to a
            # random projection and P@K swung by 17-20% (IQR over median)
            # across seeds; at 256/128 the spread fell to 7%.
            widths={"hidden": 256, "latent": 128},
        ),
        # Graph construction at scale, inductive: full cosine matrix plus a
        # per-row lexsort over the train-only graph, then directed test
        # attachment.  Few epochs, so graph build leads.  A change that
        # speeds knn build but slows attach shows here.
        Workload(
            name="gcn-inductive-large",
            why="GCN inductive at n=6000, 3 epochs: knn graph build, label augment and test attachment dominate",
            kind="gcn",
            protocol="inductive",
            n=6000,
            epochs=3,
            num_users=1000,
        ),
    )
}

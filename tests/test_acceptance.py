"""End-to-end acceptance gates.

Ten numbered checks, one per requirement the package must hold to.
Each runs as its own test so ``pytest -v`` emits exactly one PASSED or
FAILED line per gate; details print alongside under ``-s``.  The
reproduction gate (08) needs externally supplied embeddings and skips,
with the reason, when they are absent.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from gemi import models
from gemi.cli import main
from gemi.config import default_config
from gemi.fusion import product_of_experts
from gemi.graph import (
    AdjacencyPattern,
    attach_test_items,
    epsilon_graph,
    knn_graph_symmetric,
    row_top_k,
)
from gemi.losses import LossConfig, ReconTargets, kl_and_grads, positive_weights, supervised_loss_and_grad
from gemi.numerics import EPS_NORM, SeededRng, l2_normalize_rows
from gemi.recommend import aggregate, evaluate
from gemi.train import gradient_check_suite, objective_and_grads, train_model
from gemi.users import sample_synthetic_users
from datasets import make_planted_panels, write_embeddings, write_labels
from graph_oracles import (
    attach_edges,
    brute_force_attach_edges,
    coo_normalized_adjacency,
    cosine_similarity_matrix,
    dense_attachment_operator,
    edge_set,
)

GRID_POINTS = 2001
GRID_SPAN = 8.0


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# 01 gradient correctness


def test_01_gradients_match_finite_differences():
    start = time.perf_counter()
    results = gradient_check_suite(range(20))
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 30.0
    _verdict(
        "01 gradient checks",
        ok,
        f"{len(results)} checks, max rel err {worst:.2e}, {elapsed:.1f}s",
    )
    assert all(r.passed for r in results), f"max rel err {worst:.2e} exceeds 1e-4"
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 02 loss identities


def test_02_loss_identities():
    rng = SeededRng(202)
    z = rng.normal(size=(12, 3)) * 3.0
    y = (rng.random((12, 3)) < 0.4).astype(np.float64)
    w = rng.random(3) * 4.0 + 0.5
    mask = np.ones(12, dtype=bool)

    focal, _ = supervised_loss_and_grad(LossConfig(kind="focal", alpha=0.5, gamma=0.0), z, y, w, mask)
    wbce, _ = supervised_loss_and_grad(LossConfig(kind="wbce"), z, y, w, mask)
    gap_focal = abs(focal - 0.5 * wbce)
    kl_zero, _, _ = kl_and_grads(np.zeros((5, 4)), np.zeros((5, 4)))

    # same encoder weights, zero noise: the variational forward collapses
    # onto the plain autoencoder, so the objectives must agree at beta=0
    vg = models.init_params("vgae", 6, 5, 4, 3, SeededRng(7).substream("init"))
    ga = models.init_params("gae", 6, 5, 4, 3, SeededRng(8).substream("init"))
    ga["w0"][...] = vg["w0"]
    ga["w1"][...] = vg["w_mu"]
    ga["head"][...] = vg["head"]
    clamp = default_config("vgae")["model"]["logsig_clamp"]
    X = SeededRng(9).normal(size=(10, 6))
    g = knn_graph_symmetric(X, 2)
    adj = AdjacencyPattern(g).operator()
    out_v, _ = models.forward("vgae", vg, adj, X, eps=np.zeros((10, 4)), clamp=clamp)
    out_g, _ = models.forward("gae", ga, adj, X)
    assert np.array_equal(out_v["mu"], out_g["Z"])
    Y = (SeededRng(10).random((10, 3)) < 0.4).astype(np.int64)
    train = np.arange(10) < 7
    loss_cfg = LossConfig(lambda_sup=0.6, lambda_ssl=0.6)
    common = (adj, X, Y, train, positive_weights(Y[train]), loss_cfg, None)
    recon = ReconTargets(adj)
    total_v, _, _ = objective_and_grads("vgae", vg, *common, np.zeros((10, 4)), recon, 0.0, clamp)
    total_g, _, _ = objective_and_grads("gae", ga, *common, None, recon, 0.0, clamp)
    gap_joint = abs(total_v - total_g)

    ok = gap_focal <= 1e-12 and kl_zero == 0.0 and gap_joint <= 1e-12
    _verdict(
        "02 loss identities",
        ok,
        f"focal gap {gap_focal:.1e}, KL(0,1) {kl_zero}, beta=0 gap {gap_joint:.1e}",
    )
    assert gap_focal <= 1e-12
    assert kl_zero == 0.0
    assert gap_joint <= 1e-12


# ---------------------------------------------------------------------------
# 03 product-of-experts against grid integration


def _grid_moments(means, variances) -> tuple[float, float]:
    sds = [float(np.sqrt(v[0])) for v in variances]
    lo = min(float(mu[0]) - GRID_SPAN * sd for mu, sd in zip(means, sds))
    hi = max(float(mu[0]) + GRID_SPAN * sd for mu, sd in zip(means, sds))
    x = np.linspace(lo, hi, GRID_POINTS)
    log_density = np.zeros_like(x)
    for mu, var in zip(means, variances):
        log_density += -0.5 * (x - mu[0]) ** 2 / var[0]
    density = np.exp(log_density - log_density.max())
    density /= np.trapezoid(density, x)
    mean = float(np.trapezoid(x * density, x))
    var = float(np.trapezoid((x - mean) ** 2 * density, x))
    return mean, var


def test_03_poe_matches_grid_integration():
    rng = SeededRng(303)
    worst = 0.0
    for _ in range(50):
        means, variances = [], []
        for _ in range(2):  # mean, then variance, per expert
            means.append(rng.normal(size=1) * 2.0)
            variances.append(rng.random(1) * 1.9 + 0.1)
        fused_mean, fused_var = product_of_experts(means, variances)
        g_mean, g_var = _grid_moments(means, variances)
        worst = max(worst, abs(float(fused_mean[0]) - g_mean), abs(float(fused_var[0]) - g_var))
    ok = worst <= 1e-3
    _verdict("03 product-of-experts vs grid", ok, f"50 pairs, worst moment gap {worst:.2e}")
    assert worst <= 1e-3


# ---------------------------------------------------------------------------
# 04 graph construction and ranking against brute force


def _brute_knn_edges(X, k, floor=0.0):
    sims = np.maximum(cosine_similarity_matrix(X), floor)
    n = X.shape[0]
    edges = set()
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (-sims[i, j], j))
        for j in order[:k]:
            edges.add((min(i, j), max(i, j)))
    return edges


def test_04_graph_oracles_brute_force():
    rng = SeededRng(404)
    for trial in range(100):
        n = int(rng.integers(6, 31))
        d = int(rng.integers(3, 8))
        X = rng.normal(size=(n, d))
        k = int(rng.integers(1, min(6, n)))

        g = knn_graph_symmetric(X, k)
        assert edge_set(g) == _brute_knn_edges(X, k)
        assert g.degrees().min() >= k

        eps = float(rng.random() * 0.6)
        ge = epsilon_graph(X, eps)
        sims = np.maximum(cosine_similarity_matrix(X), 0.0)
        expect = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if sims[i, j] >= eps and sims[i, j] > 0.0
        }
        assert edge_set(ge) == expect

        n_tr = max(2, n - int(rng.integers(1, max(2, n // 3))))
        X_tr, X_te = X[:n_tr], X[n_tr:]
        if len(X_te) and 1 <= k <= n_tr and k < n_tr:
            tg = knn_graph_symmetric(X_tr, min(k, n_tr - 1))
            op = attach_test_items(AdjacencyPattern(tg).operator(), X_tr, X_te, k)
            dense = op.toarray()
            assert np.array_equal(dense[:n_tr, :n_tr], coo_normalized_adjacency(tg).toarray())
            assert not dense[:n_tr, n_tr:].any()
            assert np.array_equal(dense[n_tr:], dense_attachment_operator(tg, X_tr, X_te, k)[n_tr:])
            assert attach_edges(op, n_tr) == brute_force_attach_edges(X_tr, X_te, k)
            cross = l2_normalize_rows(X_te) @ l2_normalize_rows(X_tr).T
            for t in range(len(X_te)):
                v = n_tr + t
                cols = op.indices[op.indptr[v] : op.indptr[v + 1]]
                assert cols.size == k + 1 and cols[-1] == v  # k train columns, then its own diagonal
                order = sorted(range(n_tr), key=lambda j: (-cross[t, j], j))
                assert set(cols[:-1].tolist()) == set(order[:k])  # never test-test

        scores = rng.normal(size=n)
        kk = int(rng.integers(1, n + 1))
        rows, got = row_top_k(scores[None, :], kk)
        expect_rank = sorted(range(n), key=lambda j: (-scores[j], j))[:kk]
        assert rows.tolist() == [0] * kk
        assert got.tolist() == sorted(expect_rank)  # row-major: columns ascend
    _verdict("04 graph + ranking oracles", True, "100 random instances, all exact")


# ---------------------------------------------------------------------------
# 05 leakage invariants


def test_05_leakage_invariants():
    table = make_planted_panels(n=60, d=8, seed=55)
    cfg = default_config("gcn")
    cfg["model"]["epochs"] = 40
    cfg["model"]["hidden"] = 16
    cfg["graph"]["k"] = 6
    cfg["graph"]["augment"] = []

    def run(protocol, features, labels):
        c = json.loads(json.dumps(cfg))
        c["protocol"] = protocol
        model = train_model(features, labels, table.train_mask, table.test_mask, c, SeededRng(3))
        return model

    flipped = table.labels.copy()
    flipped[table.test_mask] = 1 - flipped[table.test_mask]
    a = run("transductive", table.features, table.labels)
    b = run("transductive", table.features, flipped)
    losses_match = all(
        ea["total"] == eb["total"] for ea, eb in zip(a.epochs, b.epochs)
    )
    reps_match = np.array_equal(a.representations, b.representations)

    test_rows = np.flatnonzero(table.test_mask)
    perturbed = table.features.copy()
    perturbed[test_rows[0]] += 17.0
    ia = run("inductive", table.features, table.labels)
    ib = run("inductive", perturbed, table.labels)
    weights_match = all(
        np.array_equal(ia.params[k], ib.params[k])
        for k in ia.params
    )
    others = test_rows[1:]
    others_match = np.array_equal(ia.representations[others], ib.representations[others])

    ok = losses_match and reps_match and weights_match and others_match
    _verdict(
        "05 leakage invariants",
        ok,
        f"transductive losses identical: {losses_match}, weights identical: {weights_match}",
    )
    assert losses_match, "flipping test labels changed a training loss"
    assert reps_match
    assert weights_match, "a test item's features reached training"
    assert others_match, "one test item influenced another's prediction"


# ---------------------------------------------------------------------------
# 06 evaluation pipeline against brute-force enumeration


def _brute_force_evaluate(reps, Y, test_mask, profiles, k_rec):
    test_idx = np.flatnonzero(test_mask)
    per_user = np.zeros((len(profiles), Y.shape[1]))
    for u in range(len(profiles)):
        items = profiles.items[profiles.indptr[u] : profiles.indptr[u + 1]]
        emb = np.zeros(reps.shape[1])
        for item in items:
            emb = emb + reps[item]
        emb = emb / len(items)
        scores = np.empty(len(test_idx))
        for pos, item in enumerate(test_idx):
            v = reps[item]
            denom = (np.sqrt(np.dot(emb, emb)) + EPS_NORM) * (np.sqrt(np.dot(v, v)) + EPS_NORM)
            scores[pos] = np.dot(emb, v) / denom
        order = sorted(range(len(test_idx)), key=lambda p: (-scores[p], p))[:k_rec]
        recs = [int(test_idx[p]) for p in order]
        for ell in range(Y.shape[1]):
            if profiles.preferences[u, ell] >= 0.5:
                hits = sum(1 for r in recs if Y[r, ell] == 1)
                per_user[u, ell] = hits / k_rec
    return per_user


def test_06_evaluation_matches_enumeration():
    rng = SeededRng(606)
    table = make_planted_panels(n=80, d=10, seed=66)
    train_idx = np.flatnonzero(table.train_mask)
    profiles = sample_synthetic_users(train_idx, table.labels, 50, 5, 0.2, rng)
    reps = rng.normal(size=table.features.shape)
    report = evaluate(
        reps, table.labels, table.test_mask, profiles, 5,
        model="gcn", representation="raw", seed=0,
    )
    oracle = _brute_force_evaluate(reps, table.labels, table.test_mask, profiles, 5)
    exact = np.array_equal(report.per_user, oracle)

    two = aggregate(
        np.array([[0.4], [0.6]]), model="gcn", representation="raw", k_rec=5, seed=0
    )
    std_ok = abs(float(two.std[0]) - 0.1) <= 1e-12

    ok = exact and std_ok
    _verdict("06 evaluation oracle", ok, f"per-user matrix exact: {exact}, std hand value: {std_ok}")
    assert exact, "evaluate deviates from the enumeration oracle"
    assert std_ok


# ---------------------------------------------------------------------------
# 07 planted-signal end-to-end margin


def _random_baseline(labels, test_idx, profiles, rng, draws=10_000, k_rec=5):
    Yt = labels[test_idx]
    picks = np.argsort(rng.random((draws, len(test_idx))), axis=1)[:, :k_rec]
    hit = Yt[picks].sum(axis=1) / k_rec
    preferring = (profiles.preferences >= 0.5).mean(axis=0)
    return hit.mean(axis=0) * preferring


def test_07_planted_signal_beats_random():
    start = time.perf_counter()
    margins = []
    for seed in range(5):
        table = make_planted_panels(n=150, d=32, separation=4.0, test_fraction=0.2, seed=seed)
        cfg = default_config("gcn")
        cfg["seed"] = seed
        rng = SeededRng(seed)
        model = train_model(
            table.features, table.labels, table.train_mask, table.test_mask, cfg,
            rng.substream("train"),
        )
        train_idx = np.flatnonzero(table.train_mask)
        test_idx = np.flatnonzero(table.test_mask)
        profiles = sample_synthetic_users(train_idx, table.labels, 50, 5, 0.2, rng.substream("users"))
        report = evaluate(
            model.representations, table.labels, table.test_mask, profiles, 5,
            model="gcn", representation="model", seed=seed,
        )
        baseline = _random_baseline(table.labels, test_idx, profiles, rng.substream("baseline"))
        margins.append(report.mean - baseline)
    avg = np.stack(margins).mean(axis=0)
    elapsed = time.perf_counter() - start
    ok = bool(avg.min() >= 0.20) and elapsed < 120.0
    _verdict(
        "07 planted-signal margin",
        ok,
        f"avg margins {np.round(avg, 3).tolist()} over 5 seeds, {elapsed:.1f}s",
    )
    assert avg.min() >= 0.20, f"margins {avg} fall under +0.20"
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 08 reported-numbers reproduction (informational)


def test_08_reported_reproduction_with_released_embeddings(tmp_path):
    root = os.environ.get("GEMI_RELEASED_DATA")
    if not root:
        _verdict(
            "08 reported reproduction",
            True,
            "SKIP: released embeddings not present; informational gate needs "
            "GEMI_RELEASED_DATA pointing at embeddings.csv + labels.csv",
        )
        pytest.skip("released dataset embeddings not available in this environment")
    cfg = default_config("gcn")
    cfg["dataset"]["embeddings"] = os.path.join(root, "embeddings.csv")
    cfg["dataset"]["labels"] = os.path.join(root, "labels.csv")
    cfg["output_dir"] = str(tmp_path / "repro")
    cfg_path = tmp_path / "repro.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
    metrics = json.loads((tmp_path / "repro" / "metrics.json").read_text())
    myth = metrics["labels"]["mythology"]["mean"]
    tree = metrics["labels"]["tree"]["mean"]
    within = abs(myth - 0.61) <= 0.15 and abs(tree - 0.62) <= 0.15
    # informational: report the distance, do not gate on it
    _verdict(
        "08 reported reproduction",
        True,
        f"mythology {myth:.3f} vs 0.61, tree {tree:.3f} vs 0.62, within band: {within}",
    )


# ---------------------------------------------------------------------------
# 09 determinism of the full pipeline


def test_09_run_twice_byte_identical(tmp_path):
    table = make_planted_panels(n=80, d=12, seed=99)
    emb = tmp_path / "emb.csv"
    lab = tmp_path / "labels.csv"
    write_embeddings(str(emb), table.ids, table.features)
    write_labels(str(lab), table)
    cfg = default_config("gcn")
    cfg["dataset"]["embeddings"] = str(emb)
    cfg["dataset"]["labels"] = str(lab)
    cfg["model"]["epochs"] = 25
    cfg["model"]["hidden"] = 16
    cfg["graph"]["k"] = 8
    cfg["eval"]["num_users"] = 20
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(b)]) == 0
    identical = (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
    _verdict("09 determinism", identical, "two runs, metrics.json byte-identical")
    assert identical


# ---------------------------------------------------------------------------
# 10 imbalance machinery direction


def test_10_imbalance_machinery_helps_rare_label():
    deltas = []
    for seed in range(5):
        table = make_planted_panels(
            n=150, d=32, prevalences=(0.44, 0.33, 0.10),
            separation=4.0, test_fraction=0.2, seed=seed,
        )
        means = {}
        for name in ("plain", "imbalance"):
            cfg = default_config("gcn")
            cfg["seed"] = seed
            if name == "plain":
                cfg["loss"]["kind"] = "bce"
                cfg["graph"]["augment"] = []
            else:
                cfg["loss"]["kind"] = "focal"
                cfg["graph"]["augment"] = [{"label": "tree", "k": 25, "max_nodes": 2500}]
            rng = SeededRng(seed)
            model = train_model(
                table.features, table.labels, table.train_mask, table.test_mask, cfg,
                rng.substream("train"),
            )
            train_idx = np.flatnonzero(table.train_mask)
            profiles = sample_synthetic_users(
                train_idx, table.labels, 50, 5, 0.2, rng.substream("users")
            )
            report = evaluate(
                model.representations, table.labels, table.test_mask, profiles, 5,
                model="gcn", representation="model", seed=seed,
            )
            means[name] = float(report.mean[2])
        deltas.append(means["imbalance"] - means["plain"])
    avg = float(np.mean(deltas))
    ok = avg > 0.0
    _verdict(
        "10 imbalance machinery",
        ok,
        f"rare-label gain {avg:+.4f} averaged over 5 seeds (direction only)",
    )
    assert avg > 0.0, f"focal + augmentation did not help the rare label ({avg:+.4f})"

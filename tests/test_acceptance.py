"""Acceptance suite: one test per shipped guarantee, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they complete. Criterion 6 needs a converted citation dataset on disk and is
skipped when none is available (see FLEXIDROP_CORA_DIR below); everything else
is self-contained and finishes in a few minutes on a laptop.
"""
import itertools
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

import mpmath as mp

from flexidrop.autodiff import Tape, sigmoid
from flexidrop.bounds import (BoundContext, complexity_prefactor, empirical_rademacher_exact,
                              empirical_rademacher_mc, generalization_bound, multilayer_bound,
                              single_layer_bound)
from flexidrop.cli import _gradcheck_instance, run as cli_run
from flexidrop.graphs import SplitSpec, build_propagation, generate_sbm, load_graph
from flexidrop.model import LayerParams, ModelConfig, forward, init_params
from flexidrop.training import (TrainConfig, depth_dims, oversmoothing_profile, robustness_sweep,
                                train)

mp.mp.dps = 50

RETENTION_INIT_P = 0.8807970779778823   # logistic(2)


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---- 1. gradient fidelity ----------------------------------------------------------


def test_acceptance_1_gradient_fidelity():
    start = time.perf_counter()
    # each instance checks a composite of every tape op, then the model and regularizer
    reports = [r for i in range(10) for r in _gradcheck_instance(100 + i)]
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_error for r in reports)
    ok = len(reports) == 20 and all(r.passed for r in reports) and worst < 1e-4 and elapsed < 60.0
    verdict(1, ok, f"{len(reports)} grad checks over 10 seeded instances (op composite + full "
                   f"model+regularizer each), max rel err {worst:.2e}, {elapsed:.1f}s")


# ---- 2. bound formulas vs arbitrary-precision oracles -------------------------------


def test_acceptance_2_bound_formula_oracles():
    rng = np.random.default_rng(2024)
    worst = 0.0

    def track(got, want):
        nonlocal worst
        worst = max(worst, abs(got - float(want)) / max(1.0, abs(float(want))))

    for _ in range(100):
        L = int(rng.integers(1, 9))
        C = int(rng.integers(2, 40))
        d = int(rng.integers(1, 5000))
        N = int(rng.integers(2, 100000))
        xinf = float(rng.uniform(0.01, 50.0))
        ctx = BoundContext(num_layers=L, num_classes=C, feature_dim=d, num_nodes=N,
                           feature_inf_max=xinf)
        track(complexity_prefactor(ctx),
              mp.mpf(2) ** L * C * mp.sqrt(2 * mp.log(2 * d) / N) * xinf)

        p = float(rng.uniform(0, 1))
        b1, b2, b3 = (float(x) for x in rng.uniform(0.01, 20.0, 3))
        n = int(rng.integers(1, 10000))
        track(single_layer_bound(p, b1, b2, b3, n),
              mp.mpf(p) * b1 * b2 * b3 / mp.sqrt(n))

        emp = float(rng.uniform(0, 5))
        rad = float(rng.uniform(0, 2))
        cap = float(rng.uniform(0.1, 20))
        delta = float(rng.uniform(1e-6, 0.5))
        m = int(rng.integers(1, 100000))
        track(generalization_bound(emp, rad, cap, delta, m),
              mp.mpf(emp) + 2 * mp.mpf(rad) + 3 * cap * mp.sqrt(mp.log(2 / mp.mpf(delta)) / m))

        dims = tuple(int(x) for x in rng.integers(1, 6, size=int(rng.integers(2, 5))))
        params = [LayerParams(weight=rng.normal(size=(a, b)),
                              retention_logits=rng.normal(size=a))
                  for a, b in zip(dims, dims[1:])]
        mctx = BoundContext(num_layers=len(params), num_classes=C, feature_dim=dims[0],
                            num_nodes=N, feature_inf_max=1.0)
        acc = mp.mpf(2) ** mctx.num_layers * C * mp.sqrt(2 * mp.log(2 * dims[0]) / N)
        for layer in params:
            cols = [mp.sqrt(mp.fsum(mp.mpf(x) ** 2 for x in layer.weight[:, j]))
                    for j in range(layer.weight.shape[1])]
            ps = [1 / (1 + mp.e ** (-mp.mpf(z))) for z in layer.retention_logits]
            acc *= max(cols) * mp.sqrt(mp.fsum(q ** 2 for q in ps))
        track(multilayer_bound(mctx, params), acc)

    # the citation-scale prefactor constant, derived with the oracle
    cora = BoundContext(num_layers=2, num_classes=7, feature_dim=1433, num_nodes=2708,
                        feature_inf_max=1.0)
    got = complexity_prefactor(cora)
    const_ok = abs(got - 2.1469581595778835) < 1e-10 and abs(got - 2.1468) < 2e-3
    ok = worst < 1e-10 and const_ok
    verdict(2, ok, f"4 formulas x 100 random inputs vs 50-digit oracles, "
                   f"max rel err {worst:.2e}; citation constant {got:.10f}")


# ---- 3. bound dominance ------------------------------------------------------------


def _exact_rademacher_ball_single_layer(graph, prop, p, b1):
    """Exact E_eps sup over the whole ||w||<=B1 ball for the one-layer class."""
    px = prop.matrix @ graph.features
    n = graph.num_nodes
    total = 0.0
    for bits in range(2 ** n):
        eps = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(n)])
        total += b1 * np.linalg.norm(px.T @ eps) / n
    return p * total / 2 ** n


def _two_layer_expected_outputs(graph, prop, weights, probs):
    """E_r of every class output for every node, exhaustively over both masks."""
    w1, w2 = weights
    p1, p2 = probs
    pmat = prop.matrix.toarray()
    x = graph.features
    acc = np.zeros((graph.num_nodes, w2.shape[1]))
    for bits1 in itertools.product((0.0, 1.0), repeat=len(p1)):
        r1 = np.array(bits1)
        q1 = np.prod(np.where(r1 > 0, p1, 1.0 - p1))
        if q1 == 0.0:
            continue
        h1 = np.maximum(pmat @ (x * r1) @ w1, 0.0)
        for bits2 in itertools.product((0.0, 1.0), repeat=len(p2)):
            r2 = np.array(bits2)
            q2 = np.prod(np.where(r2 > 0, p2, 1.0 - p2))
            if q2 == 0.0:
                continue
            acc += q1 * q2 * (pmat @ (h1 * r2) @ w2)
    return acc


def test_acceptance_3_bound_dominance():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    single_margin = np.inf
    multi_margin = np.inf
    for seed, n in zip(range(5), (8, 10, 12, 8, 12)):
        graph = generate_sbm(n, 2, 0.9, 0.4, 4, 0.3, seed=seed)
        prop = build_propagation(graph, "row_stochastic")

        # single layer: exact sup over the norm ball, exhaustive epsilon
        p = float(rng.uniform(0.2, 1.0))
        b1 = float(rng.uniform(0.5, 3.0))
        est = _exact_rademacher_ball_single_layer(graph, prop, p, b1)
        b2 = float(np.linalg.norm(graph.features, axis=1).max())
        b3 = prop.max_row_norm()
        bound = single_layer_bound(p, b1, b2, b3, n)
        single_margin = min(single_margin, bound - est)
        assert est <= bound + 1e-12

        # two layers: norm-capped weight grid, exhaustive retention masks,
        # exhaustive epsilon over every (hypothesis, class) output row
        caps = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        zs = [rng.uniform(-1.0, 2.5, 4), rng.uniform(-1.0, 2.5, 3)]
        probs = [sigmoid(z) for z in zs]
        rows = []
        hyp_params = None
        for _ in range(8):
            ws = [rng.normal(size=(4, 3)), rng.normal(size=(3, 2))]
            ws = [w * (cap / np.linalg.norm(w, axis=0).max()) for w, cap in zip(ws, caps)]
            outs = _two_layer_expected_outputs(graph, prop, ws, probs)
            rows.extend(outs.T)          # one hypothesis row per class output
            hyp_params = [LayerParams(w, z) for w, z in zip(ws, zs)]
        outputs = np.asarray(rows)
        est_multi = empirical_rademacher_exact(outputs)
        ctx = BoundContext.from_graph(graph, num_layers=2)
        bound_multi = multilayer_bound(ctx, hyp_params)
        multi_margin = min(multi_margin, bound_multi - est_multi)
        assert est_multi <= bound_multi + 1e-12

        # Monte-Carlo mode must agree within its own error bars
        mc, stderr = empirical_rademacher_mc(outputs, num_draws=2000, seed=seed)
        assert mc - 3.0 * stderr <= bound_multi

    elapsed = time.perf_counter() - start
    ok = single_margin >= -1e-12 and multi_margin >= -1e-12 and elapsed < 300.0
    verdict(3, ok, f"5 graphs (N<=12), exhaustive-eps estimates below both bounds "
                   f"(min margins {single_margin:.3f} / {multi_margin:.3f}), {elapsed:.1f}s")


# ---- 4. mean-field exactness -------------------------------------------------------


def test_acceptance_4_mean_field_exactness():
    worst = 0.0
    for seed in range(3):
        graph = generate_sbm(10, 2, 0.6, 0.2, 8, 0.4, seed=seed)
        prop = build_propagation(graph, "row_stochastic")
        cfg = ModelConfig(layer_dims=(8, 3), strategy="flexidrop")
        params = init_params(cfg.layer_dims, seed=seed)
        params[0].retention_logits[:] = np.random.default_rng(seed).uniform(-2, 2, 8)
        probs = sigmoid(params[0].retention_logits)

        pmat = prop.matrix.toarray()
        expected = np.zeros((10, 3))
        for bits in itertools.product((0.0, 1.0), repeat=8):
            r = np.array(bits)
            q = np.prod(np.where(r > 0, probs, 1.0 - probs))
            expected += q * (pmat @ (graph.features * r) @ params[0].weight)

        tape = Tape()
        got = forward(tape, graph, prop, params, cfg, mode="train").logits.data
        worst = max(worst, np.abs(got - expected).max())
    ok = worst <= 1e-12
    verdict(4, ok, f"single linear layer d=8, 2^8 exhaustive masks x 3 graphs, "
                   f"max abs gap {worst:.2e}")


# ---- 5. training sanity ------------------------------------------------------------


def test_acceptance_5_training_sanity():
    graph = generate_sbm(200, 2, 0.1, 0.01, 16, 0.1, seed=42)
    cfg = ModelConfig(layer_dims=(16, 256, 2), strategy="flexidrop")
    reached = []
    accuracies = []   # (final, best) test accuracy per seed
    deviations = []
    slowest = 0.0
    for seed in range(5):
        tc = TrainConfig(epochs=256, learning_rate=0.01, reg_lambda=0.5, seed=seed,
                         eval_every=8)
        t0 = time.perf_counter()
        res = train(graph, cfg, tc)
        slowest = max(slowest, time.perf_counter() - t0)
        best = max(r["test_accuracy"] for r in res.record.rows)
        reached.append(best >= 0.90)
        accuracies.append(f"{res.record.summary['final_test_accuracy']:.3f}/{best:.3f}")
        probs = np.concatenate([sigmoid(p.retention_logits) for p in res.params])
        deviations.append(np.abs(probs - RETENTION_INIT_P).mean())
    ok = all(reached) and min(deviations) >= 0.01 and slowest < 120.0
    verdict(5, ok, f"block-model sanity run: {sum(reached)}/5 seeds reach 0.90 within "
                   f"256 epochs (final/best test accuracy on seeds 0-4: "
                   f"{', '.join(accuracies)}), retention moved by >= {min(deviations):.3f} "
                   f"in mean, slowest run {slowest:.1f}s")


# ---- 6. directional citation-graph comparison ---------------------------------------


CORA_ENV = "FLEXIDROP_CORA_DIR"


def test_acceptance_6_citation_graph_direction():
    """Needs a converted citation dataset (edges.txt / features.csv / labels.csv).

    Point FLEXIDROP_CORA_DIR at the directory (optional {train,val,test}_idx.txt
    for a fixed split). The sweep trains 55 models, so expect a long run.
    """
    root = Path(os.environ.get(CORA_ENV, "tests/data/cora"))
    needed = [root / "edges.txt", root / "features.csv", root / "labels.csv"]
    if not all(p.exists() for p in needed):
        print("ACCEPTANCE 6: SKIP - converted citation dataset not found "
              f"(set ${CORA_ENV} to a directory with edges.txt/features.csv/labels.csv)")
        pytest.skip(f"citation dataset not available under {root}")

    idx = [root / f"{name}_idx.txt" for name in ("train", "val", "test")]
    if all(p.exists() for p in idx):
        split = SplitSpec.from_index_files(*(str(p) for p in idx))
    else:
        split = SplitSpec.from_fractions(0.6, 0.2, 0.2, seed=0)
    graph = load_graph(str(needed[0]), str(needed[1]), str(needed[2]), split)

    dims = (graph.feature_dim, 64, graph.num_classes)
    seeds = range(5)

    def mean_acc(strategy, rate=0.0, lam=0.0):
        accs = []
        for seed in seeds:
            cfg = ModelConfig(layer_dims=dims, strategy=strategy, rate=rate)
            tc = TrainConfig(epochs=256, learning_rate=0.01, reg_lambda=lam, seed=seed,
                             eval_every=8)
            res = train(graph, cfg, tc)
            accs.append(res.record.summary["test_accuracy_at_best_val"])
        return float(np.mean(accs))

    flexi = mean_acc("flexidrop", lam=0.5)
    plain = mean_acc("none")
    best_fixed = max(mean_acc("fixed_dropout", rate=r) for r in np.arange(0.1, 0.95, 0.1))
    ok = flexi >= plain and flexi >= best_fixed - 0.005
    verdict(6, ok, f"trainable retention {flexi:.4f} vs no-dropout {plain:.4f} vs "
                   f"best fixed {best_fixed:.4f} (reference targets 0.8797/0.8730/0.8752)")


# ---- 7. over-smoothing direction ----------------------------------------------------


def test_acceptance_7_oversmoothing_direction():
    graph = generate_sbm(200, 2, 0.1, 0.01, 16, 0.1, seed=42)
    wins = 0
    details = []
    for seed in range(5):
        tc = TrainConfig(epochs=256, learning_rate=0.01, reg_lambda=0.0, seed=seed,
                         eval_every=32)
        base = ModelConfig(layer_dims=(16, 2))
        rows = oversmoothing_profile(graph, base, [depth_dims(graph, base, 8, 32)],
                                     strategies=("none", "flexidrop"), train_config=tc)
        by = {r["strategy"]: r for r in rows}
        win = (by["flexidrop"]["final_energy"] > by["none"]["final_energy"]
               and by["flexidrop"]["test_accuracy"] >= by["none"]["test_accuracy"])
        wins += win
        details.append(f"seed {seed}: {'+' if win else '-'}")
    ok = wins >= 4
    verdict(7, ok, f"depth-8: retention keeps higher final-layer energy at matched "
                   f"accuracy on {wins}/5 seeds ({', '.join(details)})")


# ---- 8. robustness direction ---------------------------------------------------------


def test_acceptance_8_robustness_direction():
    graph = generate_sbm(200, 2, 0.06, 0.02, 8, 1.2, seed=42)
    tc = TrainConfig(epochs=256, learning_rate=0.01, reg_lambda=0.0, eval_every=64)
    rows = robustness_sweep(graph, ModelConfig(layer_dims=(8, 64, 2)), fractions=(0.0, 0.5),
                            strategies=("none", "flexidrop"), seeds=(0, 1, 2, 3, 4),
                            train_config=tc)

    def mean_acc(strategy, fraction):
        return float(np.mean([r["test_accuracy"] for r in rows
                              if r["strategy"] == strategy and r["fraction"] == fraction]))

    drop_plain = mean_acc("none", 0.0) - mean_acc("none", 0.5)
    drop_flexi = mean_acc("flexidrop", 0.0) - mean_acc("flexidrop", 0.5)
    ok = drop_flexi <= drop_plain
    verdict(8, ok, f"+50% injected edges, mean over 5 seeds: accuracy drop "
                   f"{drop_flexi:.4f} (trainable retention) vs {drop_plain:.4f} "
                   f"(no dropout); reference direction 72.86 vs 71.05")


# ---- 9. determinism -----------------------------------------------------------------


def _strip_wall_clock(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    drop = lines[0].split(",").index("wall_clock_s")
    return ["\x1f".join(c for i, c in enumerate(line.split(",")) if i != drop)
            for line in lines]


def test_acceptance_9_cli_determinism(tmp_path):
    config = {"dataset": {"kind": "sbm", "num_nodes": 60, "num_blocks": 2, "p_in": 0.3,
                          "p_out": 0.05, "feature_dim": 4, "noise_scale": 0.3, "seed": 5},
              "model": {"hidden_dims": [8], "strategy": "flexidrop"},
              "train": {"epochs": 6, "learning_rate": 0.05, "reg_lambda": 0.1,
                        "eval_every": 2}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli_run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    same_csv = _strip_wall_clock(outs[0] / "run.csv") == _strip_wall_clock(outs[1] / "run.csv")
    same_summary = (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()
    same_bound = (outs[0] / "bound_report.json").read_bytes() == \
        (outs[1] / "bound_report.json").read_bytes()

    # grid sets the strategy and λ of each cell itself and refuses them in a config
    grid_cfg = tmp_path / "grid_config.json"
    grid_cfg.write_text(json.dumps({**config, "model": {"hidden_dims": [8]},
                                    "train": {"epochs": 6, "learning_rate": 0.05,
                                              "eval_every": 2}}))
    gouts = [tmp_path / "ga", tmp_path / "gb"]
    for out in gouts:
        assert cli_run(["grid", "--config", str(grid_cfg), "--out", str(out),
                        "--strategies", "none,flexidrop", "--rates", "0.1",
                        "--seeds", "0,1", "--epochs", "3"]) == 0
    same_grid = (gouts[0] / "grid.csv").read_bytes() == (gouts[1] / "grid.csv").read_bytes()

    ok = same_csv and same_summary and same_bound and same_grid
    verdict(9, ok, "repeated CLI train and grid runs reproduce byte-identical "
                   "records (wall-clock column excluded)")

"""Acceptance gate: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line with the measured numbers
(visible even under output capture) and then asserts, so the pytest
output doubles as the acceptance report.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    fd_grad_Q,
    fd_grad_W_column,
    grad_W_r,
    oracle_prox_l21_row,
    oracle_soft_threshold,
    oracle_soft_threshold_nonneg,
    random_instance,
)
from titan.baselines import BASELINES, fit_baseline, fit_nmtl
from titan.cli import main
from titan.evaluation import evaluate, mae, mape, recovery_jaccard, rmse
from titan.prox import prox_l21, soft_threshold, soft_threshold_nonneg
from titan.solver import Hyperparams, TrainedModel, fit, grad_Q, predict
from titan.synth import SynthConfig, generate

SEEDS = (0, 1, 2)


def report(capsys, ok, name, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def best_of_grid(kind, train, test):
    best_score, best_model = None, None
    for lam in BASELINES[kind]:
        model = fit_baseline(kind, train, lam)
        score = evaluate(model, test).overall.rmse
        if best_score is None or score < best_score:
            best_score, best_model = score, model
    return best_score, best_model


@pytest.fixture(scope="module")
def seed_benchmarks():
    """Default-config benchmark runs on three seeds: grouped model plus
    each baseline at its best grid penalty (chosen by pooled test RMSE)."""
    runs = {}
    for seed in SEEDS:
        train, test, _ = generate(SynthConfig(seed=seed))
        titan_model = fit(train, Hyperparams())
        entry = {
            "test": test,
            "titan": titan_model,
            "pooled": {"titan": evaluate(titan_model, test).overall.rmse},
            "models": {},
        }
        for kind in ("nmtl", "lasso", "ridge"):
            score, model = best_of_grid(kind, train, test)
            entry["pooled"][kind] = score
            entry["models"][kind] = model
        runs[seed] = entry
    return runs


def test_01_synthetic_benchmark_substitutes_for_private_data(capsys):
    # The incident corpora the model family was developed against are not
    # redistributable, so acceptance rests on the planted-truth synthetic
    # benchmark exercised by the remaining criteria. This check pins the
    # substitution: no bundled real data, and the default benchmark config
    # generates a full train/test/truth triple.
    pkg_root = Path(__file__).resolve().parents[1] / "src"
    bundled = list(pkg_root.rglob("*.csv")) + list(pkg_root.rglob("*.parquet"))
    train, test, truth = generate(SynthConfig())
    ok = (
        not bundled
        and train.n_tasks == 6
        and train.p == 60
        and truth.Q.shape == (60, 5)
        and all(td.n > 0 for td in test.tasks)
    )
    report(capsys, ok, "criterion 1 (synthetic substitute)",
           f"no bundled datasets={not bundled}, default benchmark generates "
           f"T={train.n_tasks}, p={train.p}, planted Q {truth.Q.shape}")


def test_02_prox_operators_match_numeric_minimization(capsys):
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        v = float(rng.uniform(-5, 5) * 10.0 ** rng.uniform(-2, 1))
        kappa = float(rng.uniform(0, 3))
        worst = max(worst, abs(soft_threshold(v, kappa) - oracle_soft_threshold(v, kappa)))
        worst = max(worst, abs(soft_threshold_nonneg(v, kappa) - oracle_soft_threshold_nonneg(v, kappa)))
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        row = rng.standard_normal(dim) * 10.0 ** rng.uniform(-1, 1)
        kappa = float(rng.uniform(0, 2))
        got = prox_l21(row[None, :], kappa)[0]
        worst = max(worst, float(np.max(np.abs(got - oracle_prox_l21_row(row, kappa)))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 10.0
    report(capsys, ok, "criterion 2 (prox oracles)",
           f"max abs error {worst:.3e} over 1000 scalar pairs + 1000 rows "
           f"(tolerance 1e-6), runtime {elapsed:.1f}s (< 10s)")


def test_03_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(31)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        data, state, hp = random_instance(rng)
        r = int(rng.integers(data.n_tasks))
        g_w = grad_W_r(r, data, state, hp)
        fd_w = fd_grad_W_column(data, state, hp, r)
        worst = max(worst, np.linalg.norm(g_w - fd_w) / max(np.linalg.norm(fd_w), 1e-12))
        g_q = grad_Q(data, state, hp)
        fd_q = fd_grad_Q(data, state, hp)
        worst = max(worst, np.linalg.norm(g_q - fd_q) / max(np.linalg.norm(fd_q), 1e-12))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 30.0
    report(capsys, ok, "criterion 3 (gradient checks)",
           f"max relative error {worst:.3e} on 50 random instances "
           f"(tolerance 1e-4), runtime {elapsed:.1f}s (< 30s)")


def test_04_solver_converges_on_default_benchmark(capsys, default_run, default_fit_seconds):
    train, _, _, model = default_run
    p_res, d_res = model.final_residuals
    p_first = fit(train, Hyperparams(max_iter=1)).final_residuals[0]  # the same first iterate
    shrink = p_first / p_res
    ok = (
        model.converged
        and model.iterations <= 2000
        and p_res < 1e-3
        and d_res < 1e-3
        and shrink >= 100.0
        and model.orth_gap < 0.1
        and default_fit_seconds < 120.0
    )
    report(capsys, ok, "criterion 4 (solver convergence)",
           f"converged={model.converged} in {model.iterations} iters, "
           f"primal {p_res:.2e} / dual {d_res:.2e} (< 1e-3), primal shrink "
           f"{shrink:.0f}x (>= 100x), orth gap {model.orth_gap:.3f} (< 0.1), "
           f"fit time {default_fit_seconds:.1f}s (< 120s)")


def test_05_group_structure_recovery(capsys, default_run):
    _, _, truth, model = default_run
    score = recovery_jaccard(model.Q, truth.block_supports)
    ok = score >= 0.8
    report(capsys, ok, "criterion 5 (structure recovery)",
           f"mean planted-block Jaccard {score:.3f} (>= 0.8)")


def test_06_comparative_ordering_majority(capsys, seed_benchmarks):
    pairs = (("titan", "nmtl"), ("nmtl", "lasso"), ("lasso", "ridge"))
    wins = {pair: 0 for pair in pairs}
    for seed in SEEDS:
        pooled = seed_benchmarks[seed]["pooled"]
        for low, high in pairs:
            if pooled[low] < pooled[high]:
                wins[(low, high)] += 1
    ok = all(w >= 2 for w in wins.values())
    detail = ", ".join(f"{a}<{b} on {w}/3 seeds" for (a, b), w in wins.items())
    sample = seed_benchmarks[SEEDS[0]]["pooled"]
    report(capsys, ok, "criterion 6 (comparative ordering)",
           detail + " (majority needed); seed 0 pooled RMSE " +
           " ".join(f"{m}={sample[m]:.3f}" for m in ("titan", "nmtl", "lasso", "ridge")))


def test_07_connectivity_helps_hub_most(capsys, seed_benchmarks):
    hub, spoke = "r00", "r01"
    wins = 0
    details = []
    for seed in SEEDS:
        entry = seed_benchmarks[seed]
        test, titan_model = entry["test"], entry["titan"]
        lasso_model = entry["models"]["lasso"]
        imp = {}
        for road in (hub, spoke):
            td = test.tasks[test.graph.tasks.index(road)]
            t_rmse = rmse(td.Y, predict(titan_model, td.X, road))
            l_rmse = rmse(td.Y, td.X @ lasso_model.weights[:, lasso_model.tasks.index(road)])
            imp[road] = l_rmse - t_rmse
        if imp[hub] > imp[spoke]:
            wins += 1
        details.append(f"seed {seed}: hub +{imp[hub]:.3f} vs spoke +{imp[spoke]:.3f}")
    ok = wins >= 2
    report(capsys, ok, "criterion 7 (connectivity effect)",
           f"hub improvement over lasso exceeds degree-1 spoke's on {wins}/3 seeds "
           f"(need >= 2); " + "; ".join(details))


def test_08_decoupled_limit_matches_naive_multitask(capsys):
    train, test, _ = generate(SynthConfig(T=4, p=12, k=3, n_per_task=200,
                                          noise_sigma=0.0, graph_kind="path", seed=11))
    lam = 1e-4
    hp = Hyperparams(lambda_w=lam, lambda_q=0.0, lambda_conn=0.0, k=train.p,
                     eps_primal=1e-5, eps_dual=1e-5)
    model = fit(train, hp, q0=np.eye(train.p))
    B = fit_nmtl(train, lam)
    worst = 0.0
    for r, td in enumerate(test.tasks):
        pred_grouped = predict(model, td.X, td.road_id)
        pred_nmtl = td.X @ B[:, r]
        worst = max(worst, rmse(pred_grouped, pred_nmtl))
    ok = worst < 1e-3
    report(capsys, ok, "criterion 8 (decoupled limit)",
           f"max per-task prediction RMSE gap vs nmtl {worst:.2e} (< 1e-3) "
           f"with lambda_conn=0, lambda_q=0, k=p, identity start; the retracted Q step "
           f"{'kept Q = I' if np.array_equal(model.Q, np.eye(train.p)) else 'moved Q off I'}")


def test_09_metrics_reproduce_hand_values(capsys):
    checks = (
        abs(rmse([1.0, 2.0], [3.0, 4.0]) - 2.0),
        abs(mae([1.0, 2.0], [3.0, 4.0]) - 2.0),
        abs(mape([1.0, 2.0], [3.0, 4.0]) - 150.0),
        abs(mape([100.0], [90.0]) - 10.0),
        abs(mae([1.0, 1.0], [2.0, -2.0]) - 2.0),
        abs(rmse([3.0], [3.0]) - 0.0),
    )
    worst = max(checks)
    ok = worst <= 1e-12
    report(capsys, ok, "criterion 9 (metric exactness)",
           f"max deviation {worst:.1e} on hand-worked values (<= 1e-12); "
           f"mape([100],[90]) = {mape([100.0], [90.0])} (percent scale)")


def test_10_prediction_latency(capsys):
    rng = np.random.default_rng(10)
    p, k, n = 120, 50, 2000
    Q = np.abs(rng.standard_normal((p, k)))
    Q /= np.linalg.norm(Q, axis=0)
    model = TrainedModel(Q=Q, W=rng.standard_normal((k, 1)), tasks=("road",))
    X = rng.standard_normal((n, p))
    predict(model, X, "road")  # warm-up
    best = np.inf
    for _ in range(5):
        started = time.perf_counter()
        predict(model, X, "road")
        best = min(best, time.perf_counter() - started)
    ms_per_row = 1000.0 * best / n
    ok = ms_per_row < 3.0
    report(capsys, ok, "criterion 10 (prediction latency)",
           f"{ms_per_row:.2e} ms/row at p={p}, k={k}, {n} rows (< 3 ms/row)")


def test_11_cli_determinism(capsys, tmp_path):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({"T": 3, "p": 12, "k": 3, "n_per_task": 60,
                               "noise_sigma": 1.0, "graph_kind": "path", "seed": 3}) + "\n",
                   encoding="utf-8")
    hp = tmp_path / "hp.json"
    hp.write_text(json.dumps({"k": 3, "max_iter": 250}) + "\n", encoding="utf-8")

    def run(tag):
        ds = tmp_path / f"ds_{tag}"
        model = tmp_path / f"model_{tag}.json"
        assert main(["synth", "--config", str(cfg), "--out", str(ds)]) == 0
        assert main(["train", "--dataset", str(ds), "--config", str(hp),
                     "--out", str(model)]) == 0
        digests = {}
        for path in sorted(ds.rglob("*")):
            if path.is_file():
                digests[str(path.relative_to(ds))] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests, hashlib.sha256(model.read_bytes()).hexdigest()

    ds_a, model_a = run("a")
    ds_b, model_b = run("b")
    ok = ds_a == ds_b and model_a == model_b and len(ds_a) == 17  # 12 split CSVs, 2 values.npy, 3 more
    report(capsys, ok, "criterion 11 (determinism)",
           f"two synth+train runs byte-identical: dataset files "
           f"{'match' if ds_a == ds_b else 'differ'} ({len(ds_a)} files), "
           f"model {'matches' if model_a == model_b else 'differs'}")

"""Reference models: ridge, lasso, and the naive multi-task learner."""

import numpy as np
import pytest

from helpers import lasso_objective, nmtl_objective, random_dataset, row_form_ridge
from titan import baselines
from titan.baselines import (
    BASELINE_KINDS,
    BASELINES,
    BaselineModel,
    _fista,
    fit_baseline,
    fit_lasso,
    fit_nmtl,
    fit_ridge,
)
from titan.errors import InputError
from titan.features import MultiTaskDataset, TaskDataset
from titan.prox import norm_l1, norm_l21, prox_l21, soft_threshold
from titan.roadnet import TaskGraph
from titan.solver import predict


def single_task(rng, n=50, p=6, sparse=False):
    X = rng.standard_normal((n, p))
    w = rng.standard_normal(p)
    if sparse:
        w[p // 2:] = 0.0
    return TaskDataset("a", X, X @ w + 0.3 * rng.standard_normal(n)), w


def one_task_dataset(task):
    """A MultiTaskDataset holding the single TaskDataset `task`."""
    h = task.p // 2
    return MultiTaskDataset((task,), TaskGraph((task.road_id,), []), h, task.p - h)


def ridge_one(task, lam):
    """fit_ridge on a one-task dataset holding `task`, as a length-p vector."""
    return fit_ridge(one_task_dataset(task), lam)[:, 0]


def lasso_one(task, lam):
    """fit_lasso on a one-task dataset holding `task`, as a length-p vector."""
    return fit_lasso(one_task_dataset(task), lam)[:, 0]


def lasso_grid_oracle(task, lam):
    """Two-feature lasso by brute-force grid: coarse pass over
    [-5, 5]^2 at step 0.01, then a fine pass at step 1e-4 around the
    coarse minimizer."""

    def best_on(w1s, w2s):
        W1, W2 = np.meshgrid(w1s, w2s, indexing="ij")
        pred = task.X[:, 0][:, None, None] * W1 + task.X[:, 1][:, None, None] * W2
        loss = np.sum((pred - task.Y[:, None, None]) ** 2, axis=0) / task.n
        vals = loss + lam * (np.abs(W1) + np.abs(W2))
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        return np.array([w1s[i], w2s[j]]), float(vals[i, j])

    coarse, _ = best_on(np.arange(-5.0, 5.0 + 1e-9, 0.01), np.arange(-5.0, 5.0 + 1e-9, 0.01))
    fine, value = best_on(
        np.arange(coarse[0] - 0.02, coarse[0] + 0.02 + 1e-9, 1e-4),
        np.arange(coarse[1] - 0.02, coarse[1] + 0.02 + 1e-9, 1e-4),
    )
    return fine, value


# --------------------------------------------------------------------- ridge


def test_ridge_identity_design_interpolates_as_lambda_vanishes():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal(5)
    task = TaskDataset("a", np.eye(5), Y)
    np.testing.assert_allclose(ridge_one(task, 1e-12), Y, atol=1e-9)


def test_ridge_huge_lambda_shrinks_to_zero():
    rng = np.random.default_rng(1)
    task, _ = single_task(rng)
    w = ridge_one(task, 1e9)
    assert np.max(np.abs(w)) < 1e-6


def test_ridge_solution_is_stationary():
    rng = np.random.default_rng(2)
    for lam in (0.01, 1.0, 50.0):
        task, _ = single_task(rng)
        w = ridge_one(task, lam)
        grad = (2.0 / task.n) * (task.X.T @ (task.X @ w - task.Y)) + 2.0 * lam * w
        assert np.max(np.abs(grad)) < 1e-8


def test_ridge_matches_independent_solve():
    rng = np.random.default_rng(3)
    task, _ = single_task(rng)
    data = one_task_dataset(task)
    np.testing.assert_allclose(fit_ridge(data, 0.7), row_form_ridge(data, 0.7), atol=1e-12)


def test_ridge_rejects_nonpositive_lambda():
    rng = np.random.default_rng(4)
    task, _ = single_task(rng)
    with pytest.raises(InputError, match="positive"):
        fit_ridge(one_task_dataset(task), 0.0)


@pytest.mark.parametrize("p, n_range", [(120, (150, 200)), (8, (3, 7))], ids=["p120", "fewer-rows-than-p"])
def test_ridge_matches_row_form_oracle(p, n_range):
    rng = np.random.default_rng(19)
    data = random_dataset(rng, 4, p, n_range=n_range)
    if n_range[1] <= p:  # every S_r is singular: only lam I makes the system definite
        assert all(np.linalg.matrix_rank(S) < p for S in data.gram.S)
    for lam in (0.01, 1.0, 100.0):
        np.testing.assert_allclose(fit_ridge(data, lam), row_form_ridge(data, lam), rtol=0, atol=1e-12)


# --------------------------------------------------------------------- lasso


def test_lasso_zero_penalty_matches_least_squares():
    rng = np.random.default_rng(5)
    task, _ = single_task(rng)
    w_ols = np.linalg.lstsq(task.X, task.Y, rcond=None)[0]
    np.testing.assert_allclose(lasso_one(task, 0.0), w_ols, atol=1e-6)


def test_lasso_huge_penalty_returns_zero():
    rng = np.random.default_rng(6)
    task, _ = single_task(rng)
    w = lasso_one(task, 1e6)
    assert np.all(w == 0.0)


def test_lasso_matches_grid_oracle():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((20, 2))
    w_true = np.array([1.5, -2.0])
    task = TaskDataset("a", X, X @ w_true + 0.2 * rng.standard_normal(20))
    for lam in (0.1, 1.0):
        w_grid, value_grid = lasso_grid_oracle(task, lam)
        w = lasso_one(task, lam)
        assert np.max(np.abs(w - w_grid)) < 1e-3
        assert lasso_objective(task, w, lam) <= value_grid + 1e-3


def test_lasso_history_non_increasing():
    rng = np.random.default_rng(8)
    task, _ = single_task(rng, n=40, p=8)
    w, history = _fista(one_task_dataset(task).gram, 0.5, soft_threshold, norm_l1)
    np.testing.assert_array_equal(w[:, 0], lasso_one(task, 0.5))
    diffs = np.diff(np.asarray(history))
    assert np.all(diffs <= 1e-12)


def test_lasso_sparsity_monotone_in_lambda():
    rng = np.random.default_rng(9)
    task, _ = single_task(rng, n=40, p=10, sparse=True)
    nnz = [int(np.sum(np.abs(lasso_one(task, lam)) > 1e-10)) for lam in (0.01, 0.5, 5.0)]
    assert nnz[0] >= nnz[1] >= nnz[2]
    assert nnz[2] < task.p


def test_lasso_rejects_negative_lambda():
    rng = np.random.default_rng(10)
    task, _ = single_task(rng)
    with pytest.raises(InputError, match=">= 0"):
        lasso_one(task, -0.5)


# ---------------------------------------------------------------------- nmtl


def test_nmtl_zero_penalty_decouples_to_least_squares():
    rng = np.random.default_rng(11)
    data = random_dataset(rng, 3, 8, n_range=(30, 40))
    B = fit_nmtl(data, 0.0)
    for r, td in enumerate(data.tasks):
        w_ols = np.linalg.lstsq(td.X, td.Y, rcond=None)[0]
        np.testing.assert_allclose(B[:, r], w_ols, atol=1e-6)


def test_nmtl_huge_penalty_returns_zero():
    rng = np.random.default_rng(12)
    data = random_dataset(rng, 3, 8, n_range=(30, 40))
    B = fit_nmtl(data, 1e6)
    assert np.all(B == 0.0)


def test_nmtl_optimal_against_random_probes():
    rng = np.random.default_rng(13)
    data = random_dataset(rng, 3, 8, n_range=(30, 40))
    lam = 2.0
    B = fit_nmtl(data, lam)
    best = nmtl_objective(data, B, lam)
    for _ in range(10_000):
        scale = 10.0 ** rng.uniform(-4, 0)
        probe = B + scale * rng.standard_normal(B.shape)
        assert nmtl_objective(data, probe, lam) >= best - 1e-9


def test_nmtl_rows_share_support_across_tasks():
    rng = np.random.default_rng(14)
    names = ("a", "b", "c")
    graph = TaskGraph(names, [("a", "b")])
    tasks = []
    for nm in names:
        X = rng.standard_normal((40, 10))
        w = np.zeros(10)
        w[:4] = 3.0 * rng.standard_normal(4)  # signal confined to shared rows
        tasks.append(TaskDataset(nm, X, X @ w + 0.5 * rng.standard_normal(40)))
    data = MultiTaskDataset(tuple(tasks), graph, 5, 5)
    B = fit_nmtl(data, 1.0)
    zero_rows = 0
    for row in B:
        if np.max(np.abs(row)) == 0.0:
            zero_rows += 1
        else:
            assert np.min(np.abs(row)) > 0.0  # active rows are active everywhere
    assert 0 < zero_rows < B.shape[0]


def test_nmtl_history_non_increasing():
    rng = np.random.default_rng(15)
    data = random_dataset(rng, 3, 8, n_range=(30, 40))
    B, history = _fista(data.gram, 1.0, prox_l21, norm_l21)
    np.testing.assert_array_equal(B, fit_nmtl(data, 1.0))
    assert np.all(np.diff(np.asarray(history)) <= 1e-12)


def test_nmtl_rejects_negative_lambda():
    rng = np.random.default_rng(16)
    data = random_dataset(rng, 2, 6)
    with pytest.raises(InputError, match=">= 0"):
        fit_nmtl(data, -1.0)


def test_gram_objective_and_joint_lasso_match_row_form_oracles():
    rng = np.random.default_rng(19)
    data = random_dataset(rng, 3, 8, n_range=(30, 40))
    lam = 0.7
    for _ in range(5):
        B = rng.standard_normal((data.p, data.n_tasks))
        lasso_rows = sum(lasso_objective(td, B[:, r], lam) for r, td in enumerate(data.tasks))
        np.testing.assert_allclose(data.gram.loss(B.T) + lam * norm_l1(B), lasso_rows, rtol=1e-12)
        np.testing.assert_allclose(
            data.gram.loss(B.T) + lam * norm_l21(B), nmtl_objective(data, B, lam), rtol=1e-12
        )
    # the loop's own objective, read back at its solution
    B, history = _fista(data.gram, lam, prox_l21, norm_l21)
    np.testing.assert_allclose(history[-1], nmtl_objective(data, B, lam), rtol=1e-12)
    B, history = _fista(data.gram, lam, soft_threshold, norm_l1)
    lasso_rows = sum(lasso_objective(td, B[:, r], lam) for r, td in enumerate(data.tasks))
    np.testing.assert_allclose(history[-1], lasso_rows, rtol=1e-12)
    # one joint loop (one step size, one stopping test) against T single-task loops
    joint = fit_lasso(data, lam)
    for r, td in enumerate(data.tasks):
        assert np.max(np.abs(joint[:, r] - lasso_one(td, lam))) < 1e-6


# ------------------------------------------------------------------ plumbing


def test_fit_baseline_dispatch_matches_direct_calls():
    rng = np.random.default_rng(17)
    data = random_dataset(rng, 3, 8, n_range=(30, 40))
    m = fit_baseline("ridge", data, 1.0)
    np.testing.assert_array_equal(m.weights, fit_ridge(data, 1.0))
    assert m.kind == "ridge" and m.lam == 1.0 and m.tasks == tuple(data.graph.tasks)
    m = fit_baseline("lasso", data, 0.5)
    np.testing.assert_array_equal(m.weights, fit_lasso(data, 0.5))
    m = fit_baseline("nmtl", data, 0.5)
    np.testing.assert_array_equal(m.weights, fit_nmtl(data, 0.5))
    with pytest.raises(InputError, match="unknown baseline kind"):
        fit_baseline("forest", data, 1.0)


def test_default_grids():
    assert BASELINE_KINDS == tuple(BASELINES) == ("ridge", "lasso", "nmtl")
    assert BASELINES == {
        "ridge": (10.0, 100.0), "lasso": (1.0, 10.0, 100.0), "nmtl": (1.0, 10.0, 100.0)}


def test_fit_baseline_calls_the_fit_bound_in_the_module_at_call_time(monkeypatch):
    # a wrapper set on the module (a tracer, a profiler) must see every grid fit
    rng = np.random.default_rng(17)
    data = random_dataset(rng, 2, 4, n_range=(20, 30))
    calls = []
    for kind in BASELINE_KINDS:
        def patched(d, lam, kind=kind):
            calls.append((kind, lam))
            return np.zeros((d.p, len(d.tasks)))
        monkeypatch.setattr(baselines, f"fit_{kind}", patched)
    for kind in BASELINE_KINDS:
        fit_baseline(kind, data, 2.0)
    assert calls == [(kind, 2.0) for kind in BASELINE_KINDS]


def test_baseline_model_validation():
    with pytest.raises(InputError, match="kind"):
        BaselineModel(kind="tree", weights=np.zeros((2, 1)), tasks=("a",))
    with pytest.raises(InputError, match=">= 0"):
        BaselineModel(kind="ridge", weights=np.zeros((2, 1)), tasks=("a",), lam=-1.0)
    with pytest.raises(InputError, match="one column per task"):
        BaselineModel(kind="ridge", weights=np.zeros((2, 3)), tasks=("a",))
    with pytest.raises(InputError, match="finite"):
        BaselineModel(kind="ridge", weights=np.full((2, 1), np.nan), tasks=("a",))


def test_baseline_predict_hand_value_and_errors():
    model = BaselineModel(kind="ridge", weights=np.array([[1.0, 0.0], [2.0, 1.0]]),
                          tasks=("a", "b"), lam=1.0)
    got = predict(model, np.array([[3.0, 4.0]]), "a")
    assert abs(got[0] - (3.0 * 1.0 + 4.0 * 2.0)) < 1e-12
    with pytest.raises(InputError, match="unknown task"):
        predict(model, np.zeros((1, 2)), "zzz")
    with pytest.raises(InputError, match="columns"):
        predict(model, np.zeros((1, 3)), "a")


def test_baseline_predict_matches_loop_oracle():
    rng = np.random.default_rng(18)
    W = rng.standard_normal((5, 2))
    model = BaselineModel(kind="lasso", weights=W, tasks=("a", "b"), lam=0.1)
    X = rng.standard_normal((4, 5))
    got = predict(model, X, "b")
    for i in range(4):
        want = sum(X[i, j] * W[j, 1] for j in range(5))
        assert abs(got[i] - want) < 1e-12

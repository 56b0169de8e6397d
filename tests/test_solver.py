"""Solver internals: objective, gradients, block solves, duals, and training."""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from helpers import (
    fd_grad_Q,
    fd_grad_W_column,
    loop_grad_Q,
    loop_objective,
    loop_smooth_lagrangian,
    oracle_prox_l21_row,
    oracle_soft_threshold_nonneg,
    random_dataset,
    random_instance,
    random_state,
)
from titan.errors import InputError, NumericalAbort
from titan.evaluation import recovery_jaccard, rmse
from titan.features import MultiTaskDataset, TaskDataset
from titan.roadnet import TaskGraph
from titan.solver import (
    MAX_STALLED_RUN,
    Hyperparams,
    SolverState,
    TrainedModel,
    connectivity_penalty,
    fit,
    grad_Q,
    grad_W_r,
    initial_state,
    objective,
    orthogonality_gap,
    predict,
    residuals,
    retract,
    smooth_lagrangian,
    _segment_contiguous,
    solve_W_r_exact,
    structured_q0,
    update_Q,
    update_duals,
    update_multipliers,
)
from titan.synth import SynthConfig, generate, plant_Q


def objective_oracle(data, Q, W, hp):
    """Independent term-by-term objective evaluation with explicit loops."""
    p, k = Q.shape
    T = W.shape[1]
    total = 0.0
    for r, td in enumerate(data.tasks):
        for i in range(td.n):
            pred = 0.0
            for j in range(p):
                for g in range(k):
                    pred += td.X[i, j] * Q[j, g] * W[g, r]
            total += (pred - td.Y[i]) ** 2 / td.n
    for g in range(k):
        total += hp.lambda_w * np.sqrt(sum(W[g, r] ** 2 for r in range(T)))
    for j in range(p):
        for g in range(k):
            total += hp.lambda_q * abs(Q[j, g])
    M = data.graph.adjacency
    for i in range(T):
        for j in range(T):
            if M[i, j]:
                d = W[:, i] - W[:, j]
                total += 0.5 * hp.lambda_conn * float(d @ d)
    return total


def quadratic_instance(rng, p=6, k=3, T=2):
    """Dataset with X = 0: the smooth Lagrangian is a pure quadratic in Q."""
    names = tuple(f"t{i}" for i in range(T))
    graph = TaskGraph.from_task_edges(names, [(names[0], names[1])])
    tasks = tuple(TaskDataset(nm, np.zeros((4, p)), rng.standard_normal(4)) for nm in names)
    data = MultiTaskDataset(tasks, graph, p // 2, p - p // 2)
    hp = Hyperparams(k=k, orthogonality=False)
    return data, hp


# ----------------------------------------------------------------- objective


def test_objective_all_zero():
    rng = np.random.default_rng(0)
    data = random_dataset(rng, 2, 6)
    data = MultiTaskDataset(
        tuple(TaskDataset(td.road_id, td.X, np.zeros(td.n)) for td in data.tasks),
        data.graph, data.h, data.t,
    )
    hp = Hyperparams(k=2)
    assert objective(data, np.zeros((6, 2)), np.zeros((2, 2)), hp) == 0.0


def test_objective_zero_weights_reduces_to_labels():
    rng = np.random.default_rng(1)
    data = random_dataset(rng, 3, 6)
    hp = Hyperparams(lambda_q=0.3, k=2)
    Q = np.abs(rng.standard_normal((6, 2)))
    got = objective(data, Q, np.zeros((2, 3)), hp)
    want = sum(float(td.Y @ td.Y) / td.n for td in data.tasks) + 0.3 * np.sum(np.abs(Q))
    assert abs(got - want) < 1e-12


def test_objective_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        data = random_dataset(rng, 3, 6, n_range=(4, 5))
        hp = Hyperparams(
            lambda_w=float(rng.uniform(0, 1)),
            lambda_q=float(rng.uniform(0, 1)),
            lambda_conn=float(rng.uniform(0, 2)),
            k=2,
        )
        Q = rng.standard_normal((6, 2))
        W = rng.standard_normal((2, 3))
        assert abs(objective(data, Q, W, hp) - objective_oracle(data, Q, W, hp)) < 1e-10


def noiseless_instance(rng, T=3, p=10, k=3, n=40, scale=40.0):
    """Labels reproduced by (Q*, W*) up to rounding, at raw-minute scale.

    The state sits at (Q*, W*) with random duals and multipliers, so the
    loss part is ~0: the case where c - 2 b.v + v^T S v cancels.
    """
    names = tuple(f"t{i}" for i in range(T))
    graph = TaskGraph.from_task_edges(names, list(zip(names, names[1:])))
    Q = np.abs(rng.standard_normal((p, k)))
    W = scale * rng.standard_normal((k, T)) / np.sqrt(p)
    tasks = []
    for r, name in enumerate(names):
        X = rng.standard_normal((n, p))
        tasks.append(TaskDataset(name, X, X @ (Q @ W[:, r])))
    data = MultiTaskDataset(tuple(tasks), graph, p // 2, p - p // 2)
    state = random_state(rng, p, k, T)
    state.Q, state.W = Q, W
    hp = Hyperparams(lambda_w=0.2, lambda_q=0.05, lambda_conn=0.7, rho=1.3, k=k)
    return data, state, hp


def assert_gram_forms_match_loops(data, state, hp, rtol=1e-10):
    Q, W = state.Q, state.W
    for got, want in (
        (objective(data, Q, W, hp), loop_objective(data, Q, W, hp)),
        (smooth_lagrangian(data, Q, W, state, hp), loop_smooth_lagrangian(data, Q, W, state, hp)),
    ):
        assert abs(got - want) <= rtol * abs(want)
    g, ref = grad_Q(data, state, hp), loop_grad_Q(data, state, hp)
    assert np.linalg.norm(g - ref) <= rtol * np.linalg.norm(ref)


def test_gram_forms_match_residual_loop_random():
    rng = np.random.default_rng(30)
    for _ in range(10):
        data, state, hp = random_instance(rng)
        assert_gram_forms_match_loops(data, state, hp)
        no_orth = dataclasses.replace(hp, orthogonality=False)
        assert_gram_forms_match_loops(data, state, no_orth)


def test_gram_forms_match_residual_loop_near_zero_loss():
    rng = np.random.default_rng(31)
    for _ in range(5):
        data, state, hp = noiseless_instance(rng)
        assert_gram_forms_match_loops(data, state, hp)
        # the loss alone: rounding stays far below the label energy it cancels
        energy = sum(float(td.Y @ td.Y) / td.n for td in data.tasks)
        bare = Hyperparams(lambda_w=0.0, lambda_q=0.0, lambda_conn=0.0, k=hp.k)
        assert abs(objective(data, state.Q, state.W, bare)) <= 1e-13 * energy


def test_gram_statistics_cached_and_read_only():
    rng = np.random.default_rng(32)
    data = random_dataset(rng, 3, 6)
    gs = data.gram
    assert data.gram is gs
    assert gs.S.shape == (3, 6, 6) and gs.B.shape == (3, 6) and gs.c.shape == (3,)
    for r, td in enumerate(data.tasks):
        np.testing.assert_allclose(gs.S[r], td.X.T @ td.X / td.n, rtol=1e-14)
        np.testing.assert_allclose(gs.B[r], td.X.T @ td.Y / td.n, rtol=1e-14)
        assert gs.c[r] == pytest.approx(float(td.Y @ td.Y) / td.n, rel=1e-14)
    with pytest.raises(ValueError):
        gs.S[0, 0, 0] = 1.0


def test_connectivity_penalty_uses_cached_laplacian_bit_for_bit():
    rng = np.random.default_rng(33)
    names = tuple(f"t{i}" for i in range(5))
    graph = TaskGraph.from_task_edges(names, [("t0", "t1"), ("t0", "t2"), ("t2", "t3")])
    L = graph.laplacian
    assert graph.laplacian is L
    with pytest.raises(ValueError):
        L[0, 0] = 1.0
    M = graph.adjacency
    for _ in range(5):
        W = rng.standard_normal((3, 5))
        rebuilt = np.diag(M.sum(axis=1)) - M  # the per-call construction it replaces
        assert connectivity_penalty(W, graph) == float(np.sum((W @ rebuilt) * W))


def test_objective_shape_mismatch():
    rng = np.random.default_rng(3)
    data = random_dataset(rng, 2, 6)
    with pytest.raises(InputError, match="shape"):
        objective(data, np.zeros((6, 2)), np.zeros((3, 2)), Hyperparams(k=2))


# ----------------------------------------------------------------- gradients


def test_grad_w_all_zero_state():
    rng = np.random.default_rng(4)
    data = random_dataset(rng, 2, 6)
    data = MultiTaskDataset(
        tuple(TaskDataset(td.road_id, td.X, np.zeros(td.n)) for td in data.tasks),
        data.graph, data.h, data.t,
    )
    k = 2
    state = SolverState(
        W=np.zeros((k, 2)), Q=np.zeros((6, k)), U_W=np.zeros((k, 2)),
        U_Q=np.zeros((6, k)), Lambda1=np.zeros((k, 2)), Lambda2=np.zeros((6, k)),
    )
    np.testing.assert_array_equal(grad_W_r(0, data, state, Hyperparams(k=k)), np.zeros(k))


def test_grad_w_isolated_task_has_no_connectivity_term():
    rng = np.random.default_rng(5)
    names = ("a", "b", "c")
    graph = TaskGraph.from_task_edges(names, [("a", "b")])  # c isolated
    tasks = tuple(TaskDataset(nm, rng.standard_normal((5, 6)), rng.standard_normal(5)) for nm in names)
    data = MultiTaskDataset(tasks, graph, 3, 3)
    state = random_state(rng, 6, 2, 3)
    hp = Hyperparams(lambda_conn=3.0, k=2)
    hp0 = dataclasses.replace(hp, lambda_conn=0.0)
    r = graph.index_of("c")
    np.testing.assert_allclose(grad_W_r(r, data, state, hp), grad_W_r(r, data, state, hp0))
    r_connected = graph.index_of("a")
    assert not np.allclose(grad_W_r(r_connected, data, state, hp), grad_W_r(r_connected, data, state, hp0))


def test_grad_w_matches_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(10):
        data, state, hp = random_instance(rng)
        r = int(rng.integers(data.n_tasks))
        g = grad_W_r(r, data, state, hp)
        fd = fd_grad_W_column(data, state, hp, r)
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4


def test_grad_q_zero_state_returns_lambda2():
    rng = np.random.default_rng(7)
    data = random_dataset(rng, 2, 6)
    k = 2
    Lambda2 = rng.standard_normal((6, k))
    state = SolverState(
        W=np.zeros((k, 2)), Q=np.zeros((6, k)), U_W=np.zeros((k, 2)),
        U_Q=np.zeros((6, k)), Lambda1=np.zeros((k, 2)), Lambda2=Lambda2,
    )
    np.testing.assert_allclose(grad_Q(data, state, Hyperparams(k=k)), Lambda2)


def test_grad_q_stationary_feasible_point():
    rng = np.random.default_rng(8)
    data = random_dataset(rng, 2, 6)
    data = MultiTaskDataset(
        tuple(TaskDataset(td.road_id, td.X, np.zeros(td.n)) for td in data.tasks),
        data.graph, data.h, data.t,
    )
    Q = plant_Q(6, 2, seed=0)  # exactly orthonormal
    k = 2
    state = SolverState(
        W=np.zeros((k, 2)), Q=Q, U_W=np.zeros((k, 2)), U_Q=Q.copy(),
        Lambda1=np.zeros((k, 2)), Lambda2=np.zeros((6, k)),
    )
    np.testing.assert_allclose(grad_Q(data, state, Hyperparams(k=k)), 0.0, atol=1e-12)


def test_grad_q_matches_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(10):
        data, state, hp = random_instance(rng)
        g = grad_Q(data, state, hp)
        fd = fd_grad_Q(data, state, hp)
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-4


# --------------------------------------------------------------- W subproblem


def test_solve_w_exact_scalar_case():
    rng = np.random.default_rng(10)
    names = ("a",)
    graph = TaskGraph.from_task_edges(names, [])
    X = rng.standard_normal((5, 4))
    Y = rng.standard_normal(5)
    data = MultiTaskDataset((TaskDataset("a", X, Y),), graph, 2, 2)
    state = random_state(rng, 4, 1, 1)
    hp = Hyperparams(k=1, rho=1.7, lambda_conn=0.4)
    g = X @ state.Q[:, 0]
    a = (2.0 / 5) * float(g @ g) + hp.rho  # degree 0: no connectivity diagonal
    b = (2.0 / 5) * float(g @ Y) - state.Lambda1[0, 0] + hp.rho * state.U_W[0, 0]
    got = solve_W_r_exact(0, data, state, hp)
    assert abs(got[0] - b / a) < 1e-12


def test_solve_w_exact_zeroes_gradient():
    rng = np.random.default_rng(11)
    for _ in range(10):
        data, state, hp = random_instance(rng)
        r = int(rng.integers(data.n_tasks))
        state.W[:, r] = solve_W_r_exact(r, data, state, hp)
        g = grad_W_r(r, data, state, hp)
        assert np.max(np.abs(g)) < 1e-8 * (1.0 + np.max(np.abs(state.W)))


def test_solve_w_exact_matches_gradient_descent_oracle():
    rng = np.random.default_rng(12)
    data, state, hp = random_instance(rng)
    r = 0
    td = data.tasks[r]
    G = td.X @ state.Q
    k = G.shape[1]
    A = (2.0 / td.n) * (G.T @ G) + (hp.rho + 2.0 * hp.lambda_conn * data.graph.degree[r]) * np.eye(k)
    b = (
        (2.0 / td.n) * (G.T @ td.Y)
        - state.Lambda1[:, r]
        + hp.rho * state.U_W[:, r]
        + 2.0 * hp.lambda_conn * (state.W @ data.graph.adjacency[:, r])
    )
    w = np.zeros(k)
    step = 1.0 / float(np.linalg.eigvalsh(A)[-1])
    for _ in range(500):
        w = w - step * (A @ w - b)
    got = solve_W_r_exact(r, data, state, hp)
    np.testing.assert_allclose(got, w, atol=1e-5)


# ------------------------------------------------------------------ Q update


def assert_feasible(Q):
    assert np.all(Q >= 0)
    assert orthogonality_gap(Q) < 1e-12


def test_update_q_zero_gradient_keeps_q():
    rng = np.random.default_rng(14)
    data, state, hp = random_instance(rng)
    hp = dataclasses.replace(hp, orthogonality=False)  # the clip-only step
    new_Q, stalled = update_Q(data, state, np.zeros_like(state.Q), hp)
    assert not stalled
    np.testing.assert_array_equal(new_Q, state.Q)


def test_update_q_zero_gradient_keeps_feasible_q():
    rng = np.random.default_rng(14)
    data, state, hp = random_instance(rng)
    state.Q = retract(state.Q)  # feasible: retraction leaves it in place
    new_Q, stalled = update_Q(data, state, np.zeros_like(state.Q), hp)
    assert not stalled
    np.testing.assert_allclose(new_Q, state.Q, rtol=0, atol=1e-15)


def test_update_q_clips_negative_entries():
    rng = np.random.default_rng(15)
    data, hp = quadratic_instance(rng)
    hp = dataclasses.replace(hp, rho=1.0)  # alpha * rho * 1 = 0.02 steps past 0.01
    p, k = data.p, hp.k
    state = initial_state(data, hp)
    state.Q = np.full((p, k), 0.01)
    state.U_Q = state.Q - 1.0  # quadratic minimum has negative coordinates
    g = grad_Q(data, state, hp)
    assert np.all(g > 0)
    new_Q, stalled = update_Q(data, state, g, hp)
    assert not stalled
    assert np.all(new_Q == 0.0)


def test_update_q_retraction_drops_rows_pushed_negative():
    rng = np.random.default_rng(15)
    data, hp = quadratic_instance(rng)
    hp = dataclasses.replace(hp, orthogonality=True)
    state = initial_state(data, hp, q0=plant_Q(data.p, hp.k, seed=0))
    # pull the first row of each column below zero, leave the others in place
    state.U_Q = state.Q.copy()
    state.U_Q[np.argmax(state.Q > 0, axis=0), np.arange(hp.k)] = -1000.0
    g = grad_Q(data, state, hp)
    new_Q, stalled = update_Q(data, state, g, hp)
    assert not stalled
    assert_feasible(new_Q)
    assert np.count_nonzero(new_Q) < np.count_nonzero(state.Q)
    assert smooth_lagrangian(data, new_Q, state.W, state, hp) < smooth_lagrangian(
        data, state.Q, state.W, state, hp)


def test_update_q_retracted_steps_stay_feasible_and_descend():
    rng = np.random.default_rng(13)
    for _ in range(10):
        data, state, hp = random_instance(rng)
        state.Q = retract(state.Q)
        base = smooth_lagrangian(data, state.Q, state.W, state, hp)
        new_Q, stalled = update_Q(data, state, grad_Q(data, state, hp), hp)
        assert_feasible(new_Q)
        assert smooth_lagrangian(data, new_Q, state.W, state, hp) <= base + 1e-12 * max(1.0, abs(base))


def test_retract_is_feasible_and_keeps_each_rows_largest_entry():
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = int(rng.integers(3, 12))
        k = int(rng.integers(1, p + 1))
        Q = rng.standard_normal((p, k))
        R = retract(Q)
        assert_feasible(R)
        assert np.all(np.count_nonzero(R, axis=1) <= 1)
        assert np.all(np.count_nonzero(R, axis=0) >= 1)
        best = np.argmax(Q, axis=1)
        positive = Q.max(axis=1) > 0
        empty = sorted(set(range(k)) - set(best[positive]))  # after keeping each row's best
        moved = [i for i in np.flatnonzero(R.any(axis=1)) if not (positive[i] and R[i, best[i]] > 0)]
        assert np.all(R[positive].any(axis=1))  # a positive row is kept or moved, never dropped
        assert sorted(int(np.argmax(R[i])) for i in moved) == empty  # one row per empty column
        for i in np.flatnonzero(positive & ~np.isin(np.arange(p), moved)):
            c = best[i]
            np.testing.assert_allclose(R[i, c], Q[i, c] / np.linalg.norm(Q[R[:, c] > 0, c]))


def test_retract_fills_empty_columns_and_fixes_feasible_points():
    Q = np.array([[0.9, 0.1, -1.0], [0.8, 0.2, -1.0], [0.7, -0.1, -2.0], [-1.0, -1.0, -0.5]])
    R = retract(Q)
    assert_feasible(R)
    # column 1's best row is row 1 (0.2), taken from column 0, which keeps rows 0 and 2;
    # column 2 has no positive entry and takes its best free row: row 3 (-0.5)
    np.testing.assert_array_equal(R > 0, [[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]])
    F = plant_Q(12, 3, seed=5)
    np.testing.assert_allclose(retract(F), F, rtol=0, atol=1e-15)


def test_update_q_never_increases_smooth_lagrangian():
    rng = np.random.default_rng(16)
    for _ in range(10):
        data, state, hp = random_instance(rng)
        base = smooth_lagrangian(data, state.Q, state.W, state, hp)
        g = grad_Q(data, state, hp)
        new_Q, stalled = update_Q(data, state, g, hp)
        after = smooth_lagrangian(data, new_Q, state.W, state, hp)
        assert after <= base + 1e-12
        assert np.all(new_Q >= 0)


def test_update_q_stalls_on_ascent_direction():
    rng = np.random.default_rng(17)
    data, hp = quadratic_instance(rng)
    state = initial_state(data, hp)
    state.Q = np.full((data.p, hp.k), 2.0)
    state.U_Q = np.ones((data.p, hp.k))  # gradient = rho * (Q - U_Q) = 1 everywhere
    g = grad_Q(data, state, hp)
    new_Q, stalled = update_Q(data, state, -g, hp)
    assert stalled
    np.testing.assert_array_equal(new_Q, state.Q)


# --------------------------------------------------------- duals, multipliers


def test_update_duals_identity_when_unpenalized():
    rng = np.random.default_rng(18)
    _, state, _ = random_instance(rng)
    hp = Hyperparams(lambda_w=0.0, lambda_q=0.0, k=state.W.shape[0])
    state.Lambda1 = np.zeros_like(state.Lambda1)
    state.Lambda2 = np.zeros_like(state.Lambda2)
    U_W, U_Q = update_duals(state, hp)
    np.testing.assert_allclose(U_W, state.W)
    np.testing.assert_allclose(U_Q, np.maximum(state.Q, 0.0))


def test_update_duals_huge_penalty_zeroes_u_w():
    rng = np.random.default_rng(19)
    _, state, _ = random_instance(rng)
    hp = Hyperparams(lambda_w=1e9, k=state.W.shape[0])
    U_W, _ = update_duals(state, hp)
    np.testing.assert_array_equal(U_W, np.zeros_like(U_W))


def test_update_duals_match_prox_oracles():
    rng = np.random.default_rng(20)
    _, state, hp = random_instance(rng)
    U_W, U_Q = update_duals(state, hp)
    A = state.W + state.Lambda1 / hp.rho
    for i, row in enumerate(A):
        np.testing.assert_allclose(U_W[i], oracle_prox_l21_row(row, hp.lambda_w / hp.rho), atol=1e-6)
    B = state.Q + state.Lambda2 / hp.rho
    for idx in np.ndindex(B.shape):
        want = oracle_soft_threshold_nonneg(float(B[idx]), hp.lambda_q / hp.rho)
        assert abs(U_Q[idx] - want) < 1e-6


def test_update_multipliers_fixed_point():
    rng = np.random.default_rng(21)
    data, hp = quadratic_instance(rng)
    hp = dataclasses.replace(hp, orthogonality=True)
    Q = plant_Q(data.p, hp.k, seed=1)
    W = rng.standard_normal((hp.k, data.n_tasks))
    state = SolverState(
        W=W, Q=Q, U_W=W.copy(), U_Q=Q.copy(),
        Lambda1=rng.standard_normal(W.shape), Lambda2=rng.standard_normal(Q.shape),
    )
    L1, L2 = update_multipliers(state, hp)
    np.testing.assert_allclose(L1, state.Lambda1)
    np.testing.assert_allclose(L2, state.Lambda2)


def test_update_multipliers_hand_expansion():
    rng = np.random.default_rng(22)
    _, state, hp = random_instance(rng)
    L1, L2 = update_multipliers(state, hp)
    k = state.W.shape[0]
    for i in range(k):
        for r in range(state.W.shape[1]):
            want = state.Lambda1[i, r] + hp.rho * (state.W[i, r] - state.U_W[i, r])
            assert abs(L1[i, r] - want) < 1e-12
    for idx in np.ndindex(state.Q.shape):
        want = state.Lambda2[idx] + hp.rho * (state.Q[idx] - state.U_Q[idx])
        assert abs(L2[idx] - want) < 1e-12


def test_rho_zero_rejected_by_hyperparams():
    with pytest.raises(InputError, match="rho"):
        Hyperparams(rho=0.0)


# ----------------------------------------------------------------- residuals


def test_residuals_fixed_point_is_zero():
    rng = np.random.default_rng(23)
    Q = np.eye(6)[:, :2]  # orthonormal without rounding error
    W = rng.standard_normal((2, 3))
    state = SolverState(
        W=W, Q=Q, U_W=W.copy(), U_Q=Q.copy(),
        Lambda1=np.zeros((2, 3)), Lambda2=np.zeros((6, 2)),
    )
    p_res, d_res = residuals(state, state, Hyperparams(k=2))
    assert p_res == 0.0 and d_res == 0.0


def test_residuals_single_dual_change():
    rng = np.random.default_rng(24)
    Q = plant_Q(6, 2, seed=3)
    W = rng.standard_normal((2, 3))
    delta = rng.standard_normal((2, 3))
    hp = Hyperparams(rho=1.6, k=2)
    old = SolverState(W=W, Q=Q, U_W=W.copy(), U_Q=Q.copy(),
                      Lambda1=np.zeros((2, 3)), Lambda2=np.zeros((6, 2)))
    new = SolverState(W=W, Q=Q, U_W=W + delta, U_Q=Q.copy(),
                      Lambda1=np.zeros((2, 3)), Lambda2=np.zeros((6, 2)))
    p_res, d_res = residuals(old, new, hp)
    assert abs(d_res - hp.rho * np.linalg.norm(delta)) < 1e-12
    assert abs(p_res - np.linalg.norm(delta)) < 1e-12  # W - U_W = -delta


def test_residuals_match_independent_norms():
    rng = np.random.default_rng(25)
    _, old, hp = random_instance(rng)
    new = random_state(rng, old.Q.shape[0], old.Q.shape[1], old.W.shape[1])
    p_res, d_res = residuals(old, new, hp)
    want_p = (
        np.sqrt(np.sum((new.W - new.U_W) ** 2))
        + np.sqrt(np.sum((new.Q - new.U_Q) ** 2))
        + np.sqrt(np.sum((new.Q.T @ new.Q - np.eye(new.Q.shape[1])) ** 2))
    )
    want_d = hp.rho * (
        np.sqrt(np.sum((new.U_W - old.U_W) ** 2)) + np.sqrt(np.sum((new.U_Q - old.U_Q) ** 2))
    )
    assert abs(p_res - want_p) < 1e-10
    assert abs(d_res - want_d) < 1e-10


def test_residuals_orthogonality_flag_drops_gram_term():
    rng = np.random.default_rng(26)
    _, state, hp = random_instance(rng)
    with_orth, _ = residuals(state, state, hp)
    without, _ = residuals(state, state, dataclasses.replace(hp, orthogonality=False))
    gap = orthogonality_gap(state.Q)
    assert abs(with_orth - without - gap) < 1e-10


# -------------------------------------------------------------- initializers


def test_structured_q0_feasible_and_deterministic():
    train, _, _ = generate(SynthConfig(T=3, p=12, k=3, n_per_task=60, noise_sigma=0.5,
                                       graph_kind="path", seed=4))
    Q1 = structured_q0(train, 3)
    Q2 = structured_q0(train, 3)
    np.testing.assert_array_equal(Q1, Q2)
    assert Q1.shape == (12, 3)
    assert np.all(Q1 >= 0)
    np.testing.assert_allclose(np.linalg.norm(Q1, axis=0), 1.0, atol=1e-12)
    # disjoint contiguous segments make the start exactly orthonormal
    assert orthogonality_gap(Q1) < 1e-12
    supports = [set(np.flatnonzero(Q1[:, c])) for c in range(3)]
    for a in range(3):
        for b in range(a + 1, 3):
            assert not (supports[a] & supports[b])


def test_structured_q0_single_group_covers_everything():
    train, _, _ = generate(SynthConfig(T=3, p=12, k=3, n_per_task=60, noise_sigma=0.5,
                                       graph_kind="path", seed=4))
    Q = structured_q0(train, 1)
    assert Q.shape == (12, 1)
    assert np.all(Q > 0)


def _weighted_dispersion(rows, weights, bounds):
    """Sum over segments of sum_j w_j ||r_j - weighted segment mean||^2."""
    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        r, w = rows[a:b], weights[a:b]
        mean = (w[:, None] * r).sum(axis=0) / w.sum()
        total += float((w * ((r - mean) ** 2).sum(axis=1)).sum())
    return total


def test_segment_contiguous_matches_brute_force_minimum():
    rng = np.random.default_rng(11)
    for p in range(1, 10):
        for k in range(1, min(p, 4) + 1):
            for _ in range(3):
                rows = rng.standard_normal((p, int(rng.integers(1, 4))))
                weights = rng.uniform(0.05, 3.0, p) ** 2
                bounds = _segment_contiguous(rows, weights, k)
                assert len(bounds) == k + 1 and bounds[0] == 0 and bounds[-1] == p
                assert all(a < b for a, b in zip(bounds[:-1], bounds[1:]))
                best = min(
                    _weighted_dispersion(rows, weights, [0, *cuts, p])
                    for cuts in itertools.combinations(range(1, p), k - 1)
                )
                got = _weighted_dispersion(rows, weights, bounds)
                np.testing.assert_allclose(got, best, rtol=1e-12, atol=1e-15, err_msg=f"p={p} k={k}")


def test_initial_state_shapes_and_duals():
    train, _, _ = generate(SynthConfig(T=3, p=12, k=3, n_per_task=60, noise_sigma=0.5,
                                       graph_kind="path", seed=4))
    hp = Hyperparams(k=3)
    state = initial_state(train, hp)
    assert state.W.shape == (3, 3) and np.all(state.W == 0)
    np.testing.assert_array_equal(state.U_Q, state.Q)
    np.testing.assert_array_equal(state.U_W, state.W)
    assert np.all(state.Lambda1 == 0) and np.all(state.Lambda2 == 0)
    with pytest.raises(InputError, match="q0"):
        initial_state(train, hp, q0=np.eye(5))


# ----------------------------------------------------------------------- fit


def test_fit_unpenalized_single_task_matches_least_squares():
    rng = np.random.default_rng(42)
    p, n = 8, 60
    X = rng.standard_normal((n, p))
    Y = X @ rng.standard_normal(p) + 0.1 * rng.standard_normal(n)
    graph = TaskGraph.from_task_edges(("solo",), [])
    data = MultiTaskDataset((TaskDataset("solo", X, Y),), graph, 4, 4)
    hp = Hyperparams(lambda_w=0.0, lambda_q=0.0, lambda_conn=0.0, k=p,
                     eps_primal=1e-6, eps_dual=1e-6, max_iter=5000)
    model = fit(data, hp, q0=np.eye(p))
    w_ols = np.linalg.lstsq(X, Y, rcond=None)[0]
    assert model.converged
    assert rmse(X @ w_ols, predict(model, X, "solo")) < 1e-3


def test_fit_zero_labels_drives_weights_to_zero():
    rng = np.random.default_rng(43)
    X = rng.standard_normal((30, 8))
    graph = TaskGraph.from_task_edges(("a", "b"), [("a", "b")])
    data = MultiTaskDataset(
        (TaskDataset("a", X, np.zeros(30)), TaskDataset("b", X, np.zeros(30))),
        graph, 4, 4,
    )
    hp = Hyperparams(k=3, max_iter=500)
    assert np.max(np.abs(fit(data, hp).W)) < 1e-6
    # with zero labels the Q step only pulls Q toward its soft-thresholded copy, a
    # uniform shrink of each column that the retraction undoes, so Q and the
    # objective stay at the start; the clip-only step keeps the shrink
    no_orth = dataclasses.replace(hp, orthogonality=False)
    model = fit(data, no_orth)
    initial = objective(data, initial_state(data, no_orth).Q, np.zeros((3, 2)), no_orth)
    assert np.max(np.abs(model.W)) < 1e-6
    assert model.objective_history[-1] < initial


def test_fit_synthetic_objective_trend_and_residual_shrink():
    train, _, _ = generate(SynthConfig(T=4, p=20, k=4, n_per_task=150, noise_sigma=1.0,
                                       graph_kind="star", seed=3))
    model = fit(train, Hyperparams(k=4))
    hist = np.asarray(model.objective_history)
    assert model.converged
    # the trend is downward: transient bumps stay within 10% of the best
    # value so far, and the tail ends below the iteration-5 value
    running_min = np.minimum.accumulate(hist)
    bumps = (hist[5:] - running_min[5:]) / np.abs(running_min[5:])
    assert np.max(bumps) < 0.10
    assert hist[-1] < hist[4]
    p_first = model.residual_history[0][0]
    p_final = model.final_residuals[0]
    assert p_first / p_final >= 100.0


def test_fit_feasibility_gap_shrinks_from_first_iteration():
    train, _, _ = generate(SynthConfig(T=4, p=20, k=4, n_per_task=150, noise_sigma=1.0,
                                       graph_kind="star", seed=3))
    one = fit(train, Hyperparams(k=4, max_iter=1))
    full = fit(train, Hyperparams(k=4))
    assert full.orth_gap < one.orth_gap


def test_fit_stopping_contract():
    train, _, _ = generate(SynthConfig(T=3, p=12, k=3, n_per_task=60, noise_sigma=0.5,
                                       graph_kind="path", seed=4))
    hp = Hyperparams(k=3, max_iter=40)
    model = fit(train, hp)
    assert model.iterations <= hp.max_iter
    hp_loose = Hyperparams(k=3, eps_primal=5.0, eps_dual=5.0)
    model = fit(train, hp_loose)
    assert model.converged
    p_res, d_res = model.final_residuals
    assert p_res < hp_loose.eps_primal and d_res < hp_loose.eps_dual
    assert len(model.residual_history) == model.iterations


def test_fit_decoupled_invariant_to_adjacency():
    rng = np.random.default_rng(44)
    names = ("a", "b", "c")
    tasks = tuple(TaskDataset(nm, rng.standard_normal((20, 8)), rng.standard_normal(20)) for nm in names)
    dense = TaskGraph.from_task_edges(names, [("a", "b"), ("b", "c"), ("a", "c")])
    empty = TaskGraph.from_task_edges(names, [])
    hp = Hyperparams(lambda_conn=0.0, k=3, max_iter=60)
    m_dense = fit(MultiTaskDataset(tasks, dense, 4, 4), hp)
    m_empty = fit(MultiTaskDataset(tasks, empty, 4, 4), hp)
    np.testing.assert_allclose(m_dense.W, m_empty.W, atol=1e-8)
    np.testing.assert_allclose(m_dense.Q, m_empty.Q, atol=1e-8)


def test_fit_connectivity_pulls_coupled_tasks_together():
    rng = np.random.default_rng(45)
    X = rng.standard_normal((40, 8))
    w_base = rng.standard_normal(8)
    graph = TaskGraph.from_task_edges(("a", "b"), [("a", "b")])
    tasks = tuple(
        TaskDataset(nm, X, X @ w_base + rng.standard_normal(40))
        for nm in ("a", "b")
    )
    data = MultiTaskDataset(tasks, graph, 4, 4)
    gaps = []
    for lam in (0.0, 1.0, 5.0):
        hp = Hyperparams(lambda_conn=lam, k=3, max_iter=400)
        model = fit(data, hp)
        gaps.append(np.linalg.norm(model.W[:, 0] - model.W[:, 1]))
    assert gaps[2] < gaps[1] < gaps[0]


def test_fit_aborts_on_non_finite_values():
    train, _, _ = generate(SynthConfig(T=3, p=12, k=3, n_per_task=60, noise_sigma=0.5,
                                       graph_kind="path", seed=4))
    q_bad = np.full((12, 3), np.nan)
    with pytest.raises(NumericalAbort, match="non-finite values in .* at iteration 1"):
        fit(train, Hyperparams(k=3, max_iter=5), q0=q_bad)


def test_fit_stalled_q_step_never_converges():
    train, _, _ = generate(SynthConfig())
    with np.errstate(over="ignore", invalid="ignore"):
        model = fit(train, Hyperparams(rho=1e300, max_iter=5))
        assert not model.converged
        assert model.iterations == 5
        started = time.perf_counter()
        model = fit(train, Hyperparams(rho=1e300))  # max_iter 2000
        elapsed = time.perf_counter() - started
    assert not model.converged
    assert model.iterations == MAX_STALLED_RUN  # a run of stalls ends the fit
    assert elapsed < 2.0, f"stalled fit took {elapsed:.2f} s"  # ~0.04 s; 7 s when it ran to max_iter


def test_fit_recovers_planted_groups_on_every_seed():
    """Default star benchmark on 12 seeds: every fit converges, with Q
    exactly feasible, and recovers the planted blocks (criteria 4 and 5
    rest on seed 7 alone)."""
    for seed in range(12):
        train, _, truth = generate(SynthConfig(seed=seed))
        model = fit(train, Hyperparams())
        score = recovery_jaccard(model.Q, truth.block_supports)
        assert model.converged, f"seed {seed}: {model.iterations} iterations, {model.final_residuals}"
        assert model.orth_gap < 1e-12, f"seed {seed}: orth gap {model.orth_gap:.2e}"
        assert score >= 0.8, f"seed {seed}: Jaccard {score:.3f}"


def test_fit_rejects_k_above_p():
    train, _, _ = generate(SynthConfig(T=3, p=12, k=3, n_per_task=60, noise_sigma=0.5,
                                       graph_kind="path", seed=4))
    with pytest.raises(InputError, match="k=13"):
        fit(train, Hyperparams(k=13))


def test_fit_default_benchmark_flags(default_run):
    _, _, _, model = default_run
    assert model.converged
    p_res, d_res = model.final_residuals
    assert p_res < 1e-3 and d_res < 1e-3
    assert model.iterations <= 2000


# ------------------------------------------------------------------- predict


def test_predict_zero_input():
    model = TrainedModel(Q=np.ones((4, 2)), W=np.ones((2, 1)), tasks=("a",))
    np.testing.assert_array_equal(predict(model, np.zeros((3, 4)), "a"), np.zeros(3))


def test_predict_all_ones_hand_value():
    model = TrainedModel(Q=np.ones((4, 1)), W=np.full((1, 1), 2.0), tasks=("a",))
    got = predict(model, np.ones((1, 4)), "a")
    assert got.shape == (1,)
    assert abs(got[0] - 4 * 2.0) < 1e-12


def test_predict_matches_double_loop_oracle():
    rng = np.random.default_rng(46)
    Q = rng.standard_normal((5, 3))
    W = rng.standard_normal((3, 2))
    model = TrainedModel(Q=Q, W=W, tasks=("a", "b"))
    X = rng.standard_normal((4, 5))
    got = predict(model, X, "b")
    for i in range(4):
        want = 0.0
        for j in range(5):
            for g in range(3):
                want += X[i, j] * Q[j, g] * W[g, 1]
        assert abs(got[i] - want) < 1e-10


def test_predict_errors():
    model = TrainedModel(Q=np.ones((4, 2)), W=np.ones((2, 1)), tasks=("a",))
    with pytest.raises(InputError, match="unknown task"):
        predict(model, np.zeros((3, 4)), "zzz")
    with pytest.raises(InputError, match="columns"):
        predict(model, np.zeros((3, 5)), "a")


# --------------------------------------------------------------- hyperparams


def test_hyperparams_validation():
    with pytest.raises(InputError, match="k must be"):
        Hyperparams(k=0)
    with pytest.raises(InputError, match=">= 0"):
        Hyperparams(lambda_w=-0.1)
    with pytest.raises(InputError, match="positive"):
        Hyperparams(alpha=0.0)
    with pytest.raises(InputError, match="positive"):
        Hyperparams(eps_primal=0.0)
    with pytest.raises(InputError, match="max_iter"):
        Hyperparams(max_iter=0)
    for field, bad in (("k", 2.5), ("k", True), ("max_iter", 5.0)):
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            Hyperparams(**{field: bad})
    for field, bad in (("lambda_w", float("nan")), ("rho", float("inf")), ("alpha", "0.1"),
                       ("eps_dual", None), ("lambda_conn", False), ("rho", 10**400)):
        with pytest.raises(InputError, match=f"{field} must be a finite number"):
            Hyperparams(**{field: bad})
    with pytest.raises(InputError, match="orthogonality"):
        Hyperparams(orthogonality="no")
    assert Hyperparams(k=np.int64(3), lambda_w=1, rho=np.float64(2.0)).k == 3


def test_hyperparams_dict_round_trip():
    hp = Hyperparams(lambda_w=0.3, k=4, orthogonality=False)
    assert Hyperparams.from_dict(hp.to_dict()) == hp
    assert len(hp.to_dict()) == 10
    for bad in ({"k": 3, "bogus": 1}, {"seed": 1}, {"inner_w_solve": "exact"}):
        with pytest.raises(InputError, match="bad hyperparameter"):
            Hyperparams.from_dict(bad)

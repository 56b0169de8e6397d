"""Joint group/weight solver for multi-task duration regression.

The model couples a p×k non-negative grouping matrix Q with
orthonormal columns and a k×T task-weight matrix W:

    min  sum_r ||X_r Q W_r - Y_r||^2 / n_r  + lambda_w ||W||_{2,1}
         + lambda_q ||Q||_1
         + (lambda_conn / 2) sum_ij M_ij ||W_i - W_j||^2
    s.t. Q^T Q = I,  Q >= 0,

where M is the task-graph adjacency. Training runs an ADMM scheme with
auxiliary copies U_W, U_Q carrying the non-smooth penalties, block
coordinate descent on W, and a backtracking gradient step on Q whose
every candidate is retracted onto {Q >= 0, Q^T Q = I}, so each iterate
meets both constraints exactly.

Every loss term is evaluated from the dataset's cached Gram statistics
(S_r = X_r^T X_r / n_r, b_r = X_r^T Y_r / n_r, c_r = Y_r^T Y_r / n_r):

    ||X_r v_r - Y_r||^2 / n_r = c_r - 2 b_r . v_r + v_r^T S_r v_r,
    v_r = Q W_r,

batched over tasks, so an iteration's cost does not depend on the
number of data rows.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .baselines import fit_ridge
from .errors import InputError, NumericalAbort, check_field_types, numerical
from .features import MultiTaskDataset
from .prox import norm_fro, norm_l1, norm_l21, prox_l21, soft_threshold_nonneg

MAX_BACKTRACKS = 30
# A fit whose Q step stalled this many iterations in a row stops, unconverged.
# No fit of the test suite (bar the rho = 1e300 one, whose every Q step
# stalled), the convergence table or the benchmark workloads stalled even once.
MAX_STALLED_RUN = 10
# Hyperparams fields that must be integers (not bool) and finite reals.
_INT_FIELDS = ("k", "max_iter")
_REAL_FIELDS = ("lambda_w", "lambda_q", "lambda_conn", "rho", "alpha", "eps_primal", "eps_dual")
_STATE_FIELDS = ("W", "Q", "U_W", "U_Q", "Lambda1", "Lambda2")


@dataclass(frozen=True)
class Hyperparams:
    lambda_w: float = 0.1
    lambda_q: float = 0.01
    lambda_conn: float = 1.0
    rho: float = 0.25
    k: int = 5
    alpha: float = 0.02
    max_iter: int = 2000
    eps_primal: float = 1e-3
    eps_dual: float = 1e-3

    def __post_init__(self):
        check_field_types(self, _INT_FIELDS, _REAL_FIELDS)
        if not self.rho > 0:
            raise InputError(f"rho must be positive, got {self.rho}")
        if self.k < 1:
            raise InputError(f"k must be a positive integer, got {self.k}")
        if min(self.lambda_w, self.lambda_q, self.lambda_conn) < 0:
            raise InputError("penalty weights must be >= 0")
        if not (self.alpha > 0 and self.eps_primal > 0 and self.eps_dual > 0):
            raise InputError("alpha and tolerances must be positive")
        if self.max_iter < 1:
            raise InputError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(eq=False)
class SolverState:
    """Mutable training state; shapes fixed at (p, k, T) for the run."""

    W: np.ndarray
    Q: np.ndarray
    U_W: np.ndarray
    U_Q: np.ndarray
    Lambda1: np.ndarray
    Lambda2: np.ndarray


@dataclass(frozen=True, eq=False)
class TrainedModel:
    Q: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    tasks: tuple = ()
    hyperparams: Hyperparams = Hyperparams()
    converged: bool = False
    iterations: int = 0
    final_residuals: tuple = (np.inf, np.inf)
    label = "titan"  # method name in reports (a class constant, not a field)

    @property
    def p(self):
        return self.Q.shape[0]

    @property
    def k(self):
        return self.Q.shape[1]

    @property
    def orth_gap(self):
        """Final ||Q^T Q - I||_F."""
        return orthogonality_gap(self.Q)

    def coef(self, r):
        """Effective weights Q W_r of task r, length p."""
        return self.Q @ self.W[:, r]


def orthogonality_gap(Q):
    k = Q.shape[1]
    return norm_fro(Q.T @ Q - np.eye(k))


def connectivity_penalty(W, graph):
    """(1/2) sum_ij M_ij ||W_i - W_j||^2 == tr(W L W^T) for the task
    graph's Laplacian L = D - M."""
    return float(np.sum((W @ graph.laplacian) * W))


def data_loss(data: MultiTaskDataset, Q, W):
    """sum_r ||X_r Q W_r - Y_r||^2 / n_r from the Gram statistics."""
    return data.gram.loss((Q @ W).T)


def objective(data: MultiTaskDataset, Q, W, hp: Hyperparams):
    """Model objective: per-task mean squared loss plus all penalties."""
    p, k = Q.shape
    if k != W.shape[0] or W.shape[1] != data.n_tasks or p != data.p:
        raise InputError(
            f"shape mismatch: Q {Q.shape}, W {W.shape} for p={data.p}, T={data.n_tasks}"
        )
    return (
        data_loss(data, Q, W)
        + hp.lambda_w * norm_l21(W)
        + hp.lambda_q * norm_l1(Q)
        + hp.lambda_conn * connectivity_penalty(W, data.graph)
    )


def w_terms(data: MultiTaskDataset, W, state: SolverState, hp: Hyperparams):
    """The terms of the smooth Lagrangian that depend on W alone:
    (lambda_conn tr(W L W^T), the Lambda1 and rho terms of W = U_W)."""
    dW = W - state.U_W
    return (
        hp.lambda_conn * connectivity_penalty(W, data.graph),
        float(np.sum(state.Lambda1 * dW)) + 0.5 * hp.rho * float(np.sum(dW * dW)),
    )


def smooth_lagrangian(data: MultiTaskDataset, Q, W, state: SolverState, hp: Hyperparams, w_part=None):
    """Differentiable part of the augmented Lagrangian at (Q, W).

    Leaves out the non-smooth penalties, which attach to the dual copies
    U_W, U_Q, and the constraints on Q, which the Q step enforces; used
    by gradient checks and Q backtracking. `w_part` is w_terms(data, W,
    ...) when the caller already has it (the Q step holds W fixed); the sum
    is the same either way, bit for bit.
    """
    conn, aug_w = w_terms(data, W, state, hp) if w_part is None else w_part
    value = data_loss(data, Q, W) + conn + aug_w
    dQ = Q - state.U_Q
    value += float((state.Lambda2 * dQ).sum()) + 0.5 * hp.rho * float((dQ * dQ).sum())
    return value


def w_systems(data: MultiTaskDataset, state: SolverState, hp: Hyperparams):
    """Stacked SPD systems of the W subproblems, built for all tasks at once.

    Returns A (T, k, k) and b0 (T, k): task r's subproblem is minimized
    by A[r] w = b0[r] + 2 lambda_conn sum_j M_rj W_j. Q, U_W and Lambda1
    stay fixed through a W sweep, so fit builds these once per sweep and
    only the neighbour term changes from task to task.
    """
    gs = data.gram
    Q = state.Q
    k = Q.shape[1]
    A = 2.0 * (Q.T @ gs.S @ Q)
    A[:, np.arange(k), np.arange(k)] += (hp.rho + 2.0 * hp.lambda_conn * data.graph.degree)[:, None]
    b0 = 2.0 * (gs.B @ Q) - state.Lambda1.T + hp.rho * state.U_W.T
    return A, b0


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def sweep_W(data: MultiTaskDataset, state: SolverState, hp: Hyperparams):
    """One Gauss-Seidel sweep: solve each W_r subproblem exactly, in task
    order, each against the neighbour columns as the sweep left them.

    Each k-by-k system goes to the LAPACK gufunc np.linalg.solve calls,
    in the error state np.linalg.solve sets up, entered once per sweep
    instead of once per task: the same bits at under a third of the
    per-call cost. Any invalid floating-point operation inside the sweep
    aborts the fit, naming the task.
    """
    A, b0 = w_systems(data, state, hp)
    W = state.W
    M = data.graph.adjacency
    c = 2.0 * hp.lambda_conn
    try:
        with np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore"):
            for r in range(data.n_tasks):
                W[:, r] = _umath_linalg.solve1(A[r], b0[r] + c * (W @ M[:, r]), signature="dd->d")
    except np.linalg.LinAlgError as exc:  # unreachable for rho > 0 and finite systems
        raise NumericalAbort(f"W subproblem solve failed for task {data.tasks[r].road_id!r}: {exc}") from None


def grad_Q(data: MultiTaskDataset, state: SolverState, hp: Hyperparams):
    """Gradient of the smooth Lagrangian with respect to Q."""
    Q, W = state.Q, state.W
    g = data.gram.grad((Q @ W).T).T @ W.T
    return g + state.Lambda2 + hp.rho * (Q - state.U_Q)


def retract(Q):
    """Map Q onto {Q >= 0, Q^T Q = I}.

    Each row keeps its largest positive entry and drops the rest, so the
    columns have disjoint non-negative supports; each column is then
    normalized. A column left empty takes its best row (largest entry in
    that column) among the rows whose removal empties no other column.
    A heuristic: the exact projection is a combinatorial assignment.
    """
    p, k = Q.shape
    rows = np.arange(p)
    best = Q.argmax(axis=1)
    top = Q[rows, best]
    R = np.zeros((p, k))
    R[rows, best] = np.where(top > 0, top, 0.0)
    R2 = R * R
    sq = R2.sum(axis=0)  # np.linalg.norm(R, axis=0) squared, summed the same way
    empty = ~(sq > 0)  # also a column whose rows' squares all underflow to 0
    if empty.any():  # rare: most steps leave every column a row
        owner = np.where(R2[rows, best] > 0, best, -1)
        for c in np.flatnonzero(empty):
            counts = np.bincount(owner[owner >= 0], minlength=k)
            free = np.flatnonzero((owner < 0) | (counts[owner] > 1))
            i = free[np.argmax(Q[free, c])]
            R[i] = 0.0
            R[i, c] = 1.0
            owner[i] = c
        sq = (R * R).sum(axis=0)
    return R / np.sqrt(sq)


def update_Q(data: MultiTaskDataset, state: SolverState, g, hp: Hyperparams):
    """Backtracking gradient step on Q that keeps Q feasible.

    Halves the step from hp.alpha until the smooth Lagrangian at the
    candidate retract(Q - alpha g) stops increasing; returns (new Q,
    stalled). The accept test sees the retracted candidate itself, so an
    accepted step never trades the constraint for descent.
    A stalled step leaves Q unchanged. The slack on the accept test is
    relative: the Gram-form loss rounds at a scale set by the label
    energy, not at a fixed 1e-12. Under fit's error state, a candidate
    whose step, retraction or Lagrangian overflows is rejected too.
    """
    w_part = w_terms(data, state.W, state, hp)
    base = smooth_lagrangian(data, state.Q, state.W, state, hp, w_part)
    bound = base + 1e-12 * max(1.0, abs(base))
    alpha = hp.alpha
    for _ in range(MAX_BACKTRACKS):
        try:
            candidate = retract(state.Q - alpha * g)
            if smooth_lagrangian(data, candidate, state.W, state, hp, w_part) <= bound:
                return candidate, False
        except FloatingPointError:
            pass
        alpha *= 0.5
    return state.Q.copy(), True


def update_duals(state: SolverState, hp: Hyperparams):
    """Proximal refresh of the auxiliary copies (scaled-form arguments)."""
    U_W = prox_l21(state.W + state.Lambda1 / hp.rho, hp.lambda_w / hp.rho)
    U_Q = soft_threshold_nonneg(state.Q + state.Lambda2 / hp.rho, hp.lambda_q / hp.rho)
    return U_W, U_Q


def update_multipliers(state: SolverState, hp: Hyperparams):
    """Ascent step on the multipliers of W = U_W and Q = U_Q."""
    L1 = state.Lambda1 + hp.rho * (state.W - state.U_W)
    L2 = state.Lambda2 + hp.rho * (state.Q - state.U_Q)
    return L1, L2


def residuals(state_prev: SolverState, state_new: SolverState, hp: Hyperparams):
    """(primal, dual) residual pair for the stopping rule.

    The orthogonality gap stays in the primal part: the Q step keeps it
    at rounding level, and the residual certifies that it does.
    """
    p_res = norm_fro(state_new.W - state_new.U_W) + norm_fro(state_new.Q - state_new.U_Q)
    p_res += orthogonality_gap(state_new.Q)
    d_res = hp.rho * (
        norm_fro(state_new.U_W - state_prev.U_W) + norm_fro(state_new.U_Q - state_prev.U_Q)
    )
    return p_res, d_res


def _segment_contiguous(rows, weights, ks):
    """Split row indices 0..p-1 into k contiguous segments minimizing
    weighted within-segment dispersion, by dynamic programming, for each
    k in ks.

    Column c of the table depends only on column c - 1, so one table up
    to max(ks) serves every k. Returns, per k, the k+1 segment boundaries
    (0 = first, p = last).
    """
    p = rows.shape[0]
    Sw = np.vstack([np.zeros(rows.shape[1]), np.cumsum(rows * weights[:, None], axis=0)])
    sw = np.concatenate([[0.0], np.cumsum(weights)])
    sq = np.concatenate([[0.0], np.cumsum(weights * (rows * rows).sum(axis=1))])
    # Segment m..i-1 costs dsq[m, i] - spread[m, i]. Only m < i is ever
    # read; the rest is masked so it cannot overflow. Built one column at
    # a time, so memory stays O(p^2) however many tasks there are.
    dsq = sq[None, :] - sq[:, None]
    mu2 = np.empty((p + 1, p + 1))
    for i in range(p + 1):
        mu2[:, i] = ((Sw[i] - Sw) ** 2).sum(axis=1)
    upper = np.triu(np.ones((p + 1, p + 1), dtype=bool), 1)
    spread = mu2 / np.where(upper, np.maximum(sw[None, :] - sw[:, None], 1e-300), np.inf)
    K = max(ks)
    D = np.full((p + 1, K + 1), np.inf)
    arg = np.zeros((p + 1, K + 1), dtype=int)
    D[0, 0] = 0.0
    for c in range(1, K + 1):
        for i in range(c, p + 1):
            vals = D[c - 1:i, c - 1] + dsq[c - 1:i, i] - spread[c - 1:i, i]
            j = int(np.argmin(vals))
            D[i, c], arg[i, c] = vals[j], c - 1 + j
    segmentations = []
    for k in ks:
        bounds = [p]
        i = p
        for c in range(k, 0, -1):
            i = int(arg[i, c])
            bounds.append(i)
        segmentations.append(bounds[::-1])
    return segmentations


def structured_q0(data: MultiTaskDataset, ks):
    """Data-driven feasible starts from contiguous feature segments, one
    p x k Q0 per k in ks.

    Temporal feature groups are contiguous windows, so a good starting
    grouping is a segmentation of the feature axis: estimate per-task
    reference weights by lightly regularized ridge, smooth them along
    the feature axis (3-window average), and cut the smoothed weight
    rows into k contiguous segments by dynamic programming, weighting
    rows by magnitude so noise-dominated features do not place
    boundaries. Each segment becomes one Q column carrying the ridge
    magnitudes, normalized: disjoint supports, so Q0 is exactly
    feasible. Deterministic given the data. Everything but the last
    cut is independent of k, so it is done once for all of ks, and each
    Q0 is the one a call with that k alone returns.
    """
    with numerical("in the start"):
        B = fit_ridge(data, 0.01)
        norms = np.linalg.norm(B, axis=1)
        F = (np.vstack([B[:1], B[:-1]]) + B + np.vstack([B[1:], B[-1:]])) / 3.0
        fn = np.linalg.norm(F, axis=1)
        rows = F / np.where(fn > 0, fn, 1.0)[:, None]
        starts = []
        for k, bounds in zip(ks, _segment_contiguous(rows, np.maximum(fn, 1e-12) ** 2, ks)):
            Q = np.zeros((data.p, k))
            for c in range(k):
                seg = slice(bounds[c], bounds[c + 1])
                Q[seg, c] = np.maximum(norms[seg], 1e-12)
            starts.append(Q / np.linalg.norm(Q, axis=0))
    return starts


def initial_state(data: MultiTaskDataset, hp: Hyperparams, q0=None):
    """Feasible deterministic start: Q0 from structured_q0 (or the
    explicit q0 override); W0 = 0; duals copy the primals; multipliers
    zero."""
    p, k, T = data.p, hp.k, data.n_tasks
    if q0 is not None:
        Q = np.array(q0, dtype=float)
        if Q.shape != (p, k):
            raise InputError(f"q0 must have shape {(p, k)}, got {Q.shape}")
    else:
        (Q,) = structured_q0(data, [k])
    W = np.zeros((k, T))
    return SolverState(
        W=W,
        Q=Q,
        U_W=W.copy(),
        U_Q=Q.copy(),
        Lambda1=np.zeros((k, T)),
        Lambda2=np.zeros((p, k)),
    )


def check_finite(state: SolverState, iteration):
    """Abort on the first state array holding a non-finite value. One sum
    over all six is finite whenever they are, so only a non-finite sum
    (a non-finite entry, or an overflow) scans the arrays one by one."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum([float(getattr(state, name).sum()) for name in _STATE_FIELDS])
    if math.isfinite(total):
        return
    for name in _STATE_FIELDS:
        if not np.all(np.isfinite(getattr(state, name))):
            raise NumericalAbort(f"non-finite values in {name} at iteration {iteration}")


def fit(data: MultiTaskDataset, hp: Hyperparams, q0=None) -> TrainedModel:
    """Train by ADMM.

    Per outer iteration: one Gauss-Seidel BCD sweep over task weights in
    task order (exact SPD solves, on systems built for all tasks at
    once), one feasible backtracking gradient step on Q, proximal dual
    refresh, multiplier ascent, then the residual check.
    Stops early once both residuals fall below their tolerances after a
    Q step that moved: an iteration whose Q step stalled never counts as
    converged, since its residuals only show that nothing moved, and
    MAX_STALLED_RUN stalled Q steps in a row end the fit unconverged. The
    loop runs under errors.numerical, named with its iteration.
    """
    if hp.k > data.p:
        raise InputError(f"group count k={hp.k} exceeds feature dimension p={data.p}")
    state = initial_state(data, hp, q0=q0)

    converged = False
    stalled_run = 0
    with numerical(lambda: f"at iteration {it}"):
        for it in range(1, hp.max_iter + 1):
            sweep_W(data, state, hp)
            g = grad_Q(data, state, hp)
            state.Q, stalled = update_Q(data, state, g, hp)
            stalled_run = stalled_run + 1 if stalled else 0
            prev = copy.copy(state)  # shallow: the updates below rebind, never mutate
            state.U_W, state.U_Q = update_duals(state, hp)
            state.Lambda1, state.Lambda2 = update_multipliers(state, hp)
            p_res, d_res = residuals(prev, state, hp)
            check_finite(state, it)
            if not stalled and p_res < hp.eps_primal and d_res < hp.eps_dual:
                converged = True
                break
            if stalled_run == MAX_STALLED_RUN:
                break

    return TrainedModel(
        Q=state.Q.copy(),
        W=state.W.copy(),
        tasks=tuple(data.graph.tasks),
        hyperparams=hp,
        converged=converged,
        iterations=it,
        final_residuals=(p_res, d_res),
    )


def predict(model, X, task):
    """Predicted durations X model.coef(task) for one task, for a grouped
    (TrainedModel) or a baseline (BaselineModel) model."""
    X = np.asarray(X, dtype=float)
    if task not in model.tasks:
        raise InputError(f"unknown task {task!r}; model covers {list(model.tasks)}")
    if X.ndim != 2 or X.shape[1] != model.p:
        raise InputError(f"X must have {model.p} columns, got shape {X.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        yhat = X @ model.coef(model.tasks.index(task))
    if not np.all(np.isfinite(yhat)):
        raise NumericalAbort(f"non-finite prediction for task {task!r}")
    return yhat

"""Shared brute-force oracles and instance builders for the test suite.

Oracles deliberately avoid the closed forms used by the library: prox
operators are checked against numeric minimization of their defining
objectives, gradients against central finite differences of the smooth
Lagrangian, norms/metrics against explicit Python loops, the
Gram-statistics loss forms against residuals taken row by row, and the
bulk CSV codec against a per-cell writer and a per-line reader.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from titan.errors import InputError
from titan.features import MultiTaskDataset, TaskDataset
from titan.roadnet import TaskGraph
from titan.solver import Hyperparams, SolverState, smooth_lagrangian

# ---------------------------------------------------------------- prox oracles


def oracle_soft_threshold(x, kappa):
    """argmin_u 0.5 (u - x)^2 + kappa |u|, by bounded scalar minimization."""
    lo = min(x, 0.0) - kappa - 1.0
    hi = max(x, 0.0) + kappa + 1.0
    res = minimize_scalar(
        lambda u: 0.5 * (u - x) ** 2 + kappa * abs(u),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-10},
    )
    return float(res.x)


def oracle_soft_threshold_nonneg(x, kappa):
    """argmin_{u >= 0} 0.5 (u - x)^2 + kappa u."""
    hi = max(x, 0.0) + kappa + 1.0
    res = minimize_scalar(
        lambda u: 0.5 * (u - x) ** 2 + kappa * u,
        bounds=(0.0, hi), method="bounded", options={"xatol": 1e-10},
    )
    return float(res.x)


def oracle_prox_l21_row(v, kappa):
    """argmin_u 0.5 ||u - v||^2 + kappa ||u||_2, by quasi-Newton descent.

    The descent uses the objective's gradient u - v + kappa u / ||u||,
    written from the objective, not from the closed-form prox. The
    objective is non-smooth only at u = 0, so the numeric minimizer is
    compared against the zero candidate explicitly.
    """
    v = np.asarray(v, dtype=float)

    def f(u):
        return 0.5 * float(np.sum((u - v) ** 2)) + kappa * float(np.linalg.norm(u))

    def f_and_grad(u):
        n = float(np.linalg.norm(u))
        g = u - v + (kappa * u / n if n > 0 else 0.0)
        return f(u), g

    best = minimize(f_and_grad, v, jac=True, method="L-BFGS-B",
                    options={"ftol": 1e-16, "gtol": 1e-12}).x
    return best if f(best) <= f(np.zeros_like(v)) else np.zeros_like(v)


# --------------------------------------------------------- finite differences


def fd_grad_W_column(data, state, hp, r, step=1e-5):
    """Central finite differences of the smooth Lagrangian w.r.t. W[:, r]."""
    k = state.W.shape[0]
    g = np.zeros(k)
    for i in range(k):
        Wp = state.W.copy()
        Wm = state.W.copy()
        Wp[i, r] += step
        Wm[i, r] -= step
        g[i] = (
            smooth_lagrangian(data, state.Q, Wp, state, hp)
            - smooth_lagrangian(data, state.Q, Wm, state, hp)
        ) / (2.0 * step)
    return g


def fd_grad_Q(data, state, hp, step=1e-5):
    """Central finite differences of the smooth Lagrangian w.r.t. Q."""
    p, k = state.Q.shape
    g = np.zeros((p, k))
    for i in range(p):
        for j in range(k):
            Qp = state.Q.copy()
            Qm = state.Q.copy()
            Qp[i, j] += step
            Qm[i, j] -= step
            g[i, j] = (
                smooth_lagrangian(data, Qp, state.W, state, hp)
                - smooth_lagrangian(data, Qm, state.W, state, hp)
            ) / (2.0 * step)
    return g


# ------------------------------------------------------ residual-loop forms
#
# The library evaluates every loss term from per-task Gram statistics
# (c - 2 b.v + v^T S v); these walk the data rows instead.


def loop_loss(data, Q, W):
    """sum_r ||X_r Q W_r - Y_r||^2 / n_r, one residual per row."""
    total = 0.0
    for r, td in enumerate(data.tasks):
        v = Q @ W[:, r]
        for i in range(td.n):
            e = float(td.X[i] @ v) - td.Y[i]
            total += e * e / td.n
    return total


def loop_connectivity(data, W):
    """(1/2) sum_ij M_ij ||W_i - W_j||^2 over the adjacency entries."""
    M = data.graph.adjacency
    total = 0.0
    for i in range(data.n_tasks):
        for j in range(data.n_tasks):
            if M[i, j]:
                d = W[:, i] - W[:, j]
                total += 0.5 * float(d @ d)
    return total


def loop_objective(data, Q, W, hp):
    """Loss plus the l2,1 (rows of W), l1 and connectivity penalties."""
    return (
        loop_loss(data, Q, W)
        + hp.lambda_w * sum(float(np.sqrt(row @ row)) for row in W)
        + hp.lambda_q * float(np.abs(Q).sum())
        + hp.lambda_conn * loop_connectivity(data, W)
    )


def loop_smooth_lagrangian(data, Q, W, state, hp):
    """Loss, connectivity, and the augmented terms of W = U_W and Q = U_Q."""
    value = loop_loss(data, Q, W) + hp.lambda_conn * loop_connectivity(data, W)
    for lam, d in ((state.Lambda1, W - state.U_W), (state.Lambda2, Q - state.U_Q)):
        value += float((lam * d).sum()) + 0.5 * hp.rho * float((d * d).sum())
    return value


def loop_grad_Q(data, state, hp):
    """Gradient of loop_smooth_lagrangian in Q, loss part summed over rows."""
    Q, W = state.Q, state.W
    g = np.zeros_like(Q)
    for r, td in enumerate(data.tasks):
        v = Q @ W[:, r]
        for i in range(td.n):
            e = float(td.X[i] @ v) - td.Y[i]
            g += (2.0 / td.n) * e * np.outer(td.X[i], W[:, r])
    g += state.Lambda2 + hp.rho * (Q - state.U_Q)
    return g


# ----------------------------------------------------------- per-cell CSV codec
#
# The library formats a block of rows with one `%` and parses with
# np.loadtxt; these format each cell and parse each line with float().


def cell_write_matrix_csv(path, M):
    """%.17g per cell, cells joined by ',', one line per row."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [",".join("%.17g" % v for v in row) for row in M]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def line_read_matrix_csv(path, columns=None):
    """float() per cell; blank and '#' lines skipped; errors name the line."""
    rows = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad numeric cell") from None
        if rows and len(row) != len(rows[0]):
            raise InputError(f"{path}:{lineno}: ragged row ({len(row)} cells, expected {len(rows[0])})")
        rows.append(row)
    if not rows:
        raise InputError(f"{path}: no data rows")
    M = np.asarray(rows)
    if columns is not None and M.shape[1] != columns:
        raise InputError(f"{path}: expected {columns} columns, got {M.shape[1]}")
    return M


# --------------------------------------------------------- instance builders


def split_cache_path(root, split):
    """Where a dataset split's parse cache must be for the split's CSVs as
    they are now: `cache.<key>.npy`, the key the sha256 of the feature
    dimension and of each CSV's sha256 (X then Y per task, in task order)."""
    meta = json.loads((Path(root) / "tasks.json").read_text(encoding="utf-8"))
    digests = [hashlib.sha256((Path(root) / split / f"{m}_{road}.csv").read_bytes()).hexdigest()
               for road in meta["tasks"] for m in "XY"]
    key = hashlib.sha256(f"{meta['h'] + meta['t']}:{','.join(digests)}".encode("ascii")).hexdigest()
    return Path(root) / split / f"cache.{key}.npy"


def random_dataset(rng, T, p, n_range=(5, 12), edge_prob=0.5):
    """Random multi-task dataset on a random task graph."""
    names = tuple(f"t{i}" for i in range(T))
    edges = [
        (names[i], names[j])
        for i in range(T)
        for j in range(i + 1, T)
        if rng.random() < edge_prob
    ]
    graph = TaskGraph.from_task_edges(names, edges)
    tasks = []
    for name in names:
        n = int(rng.integers(*n_range))
        tasks.append(TaskDataset(name, rng.standard_normal((n, p)), rng.standard_normal(n)))
    h = p // 2
    return MultiTaskDataset(tuple(tasks), graph, h, p - h)


def random_state(rng, p, k, T):
    """Fully populated solver state with nonzero duals and multipliers."""
    return SolverState(
        W=rng.standard_normal((k, T)),
        Q=np.abs(rng.standard_normal((p, k))),
        U_W=rng.standard_normal((k, T)),
        U_Q=rng.standard_normal((p, k)),
        Lambda1=rng.standard_normal((k, T)),
        Lambda2=rng.standard_normal((p, k)),
    )


def random_instance(rng, t_max=4, p_max=12, k_max=4):
    """Random small (data, state, hyperparams) triple for gradient checks."""
    T = int(rng.integers(2, t_max + 1))
    p = int(rng.integers(4, p_max + 1))
    k = int(rng.integers(2, min(k_max, p) + 1))
    data = random_dataset(rng, T, p)
    hp = Hyperparams(
        lambda_w=float(rng.uniform(0, 0.5)),
        lambda_q=float(rng.uniform(0, 0.5)),
        lambda_conn=float(rng.uniform(0, 2)),
        rho=float(rng.uniform(0.5, 2)),
        k=k,
    )
    return data, random_state(rng, p, k, T), hp

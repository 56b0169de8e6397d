"""Single-task and naive multi-task reference models.

Ridge is closed form; lasso and the l2,1-coupled naive multi-task
learner (nMTL) share an accelerated proximal-gradient loop with a
monotone restart, so every baseline's objective history is
non-increasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .features import MultiTaskDataset, TaskDataset
from .prox import norm_l21, prox_l21, soft_threshold

BASELINE_KINDS = ("ridge", "lasso", "nmtl")
FISTA_TOL = 1e-8
FISTA_MAX_ITER = 10000

RIDGE_GRID = (10.0, 100.0)
LASSO_GRID = (1.0, 10.0, 100.0)
NMTL_GRID = (1.0, 10.0, 100.0)


@dataclass(frozen=True, eq=False)
class BaselineModel:
    kind: str
    weights: np.ndarray = field(repr=False)  # p x T, column per task
    tasks: tuple = ()
    lam: float = 0.0
    k = 0  # group count in reports: baselines are ungrouped (a class constant, not a field)

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise InputError(f"kind must be one of {BASELINE_KINDS}, got {self.kind!r}")
        if self.lam < 0:
            raise InputError(f"lambda must be >= 0, got {self.lam}")
        W = np.asarray(self.weights, dtype=float)
        if W.ndim != 2 or W.shape[1] != len(self.tasks):
            raise InputError("weights must be p x T with one column per task")
        if not np.all(np.isfinite(W)):
            raise InputError("weights must be finite")
        object.__setattr__(self, "weights", W)

    @property
    def p(self):
        return self.weights.shape[0]

    @property
    def label(self):
        return self.kind

    def coef(self, r):
        """Weights of task r, length p."""
        return self.weights[:, r]


def fit_ridge(task: TaskDataset, lam):
    """Closed-form ridge: (2/n X^T X + 2 lam I) w = 2/n X^T Y."""
    if not lam > 0:
        raise InputError(f"ridge lambda must be positive, got {lam}")
    X, Y, n = task.X, task.Y, task.n
    A = (2.0 / n) * (X.T @ X)
    A[np.diag_indices(task.p)] += 2.0 * lam
    return np.linalg.solve(A, (2.0 / n) * (X.T @ Y))


def _fista(grad, prox, lipschitz, objective, w0):
    """Monotone FISTA: accelerated steps, plain fallback on any increase.

    Stops when the iterate's l-inf change drops below FISTA_TOL or at
    FISTA_MAX_ITER. Returns (solution, objective history).
    """
    step = 1.0 / lipschitz if lipschitz > 0 else 1.0
    w = w0.copy()
    y = w0.copy()
    t = 1.0
    history = [objective(w)]
    for _ in range(FISTA_MAX_ITER):
        candidate = prox(y - step * grad(y), step)
        value = objective(candidate)
        if value > history[-1]:
            # ISTA step from the last accepted iterate cannot increase
            candidate = prox(w - step * grad(w), step)
            value = objective(candidate)
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = candidate + ((t - 1.0) / t_next) * (candidate - w)
        delta = float(np.max(np.abs(candidate - w))) if candidate.size else 0.0
        w = candidate
        t = t_next
        history.append(value)
        if delta < FISTA_TOL:
            break
    return w, history


def lasso_objective(task: TaskDataset, w, lam):
    resid = task.X @ w - task.Y
    return float(resid @ resid) / task.n + lam * float(np.sum(np.abs(w)))


def fit_lasso(task: TaskDataset, lam, with_history=False):
    """Accelerated proximal-gradient lasso on one task."""
    if lam < 0:
        raise InputError(f"lasso lambda must be >= 0, got {lam}")
    X, Y, n = task.X, task.Y, task.n
    H = (2.0 / n) * (X.T @ X)
    L = float(np.linalg.eigvalsh(H)[-1])
    XtY = (2.0 / n) * (X.T @ Y)
    w, history = _fista(
        grad=lambda w: H @ w - XtY,
        prox=lambda v, step: soft_threshold(v, lam * step),
        lipschitz=L,
        objective=lambda w: lasso_objective(task, w, lam),
        w0=np.zeros(task.p),
    )
    return (w, history) if with_history else w


def nmtl_objective(data: MultiTaskDataset, B, lam):
    loss = 0.0
    for r, td in enumerate(data.tasks):
        resid = td.X @ B[:, r] - td.Y
        loss += float(resid @ resid) / td.n
    return loss + lam * norm_l21(B)


def fit_nmtl(data: MultiTaskDataset, lam, with_history=False):
    """Joint l2,1-penalized multi-task regression over all tasks.

    The loss is separable across task columns, so the gradient stacks
    per-task ridge gradients and the Lipschitz constant is the largest
    per-task one; rows are coupled only through prox_l21.
    """
    if lam < 0:
        raise InputError(f"nmtl lambda must be >= 0, got {lam}")
    p, T = data.p, data.n_tasks
    Hs, bs, Ls = [], [], []
    for td in data.tasks:
        H = (2.0 / td.n) * (td.X.T @ td.X)
        Hs.append(H)
        bs.append((2.0 / td.n) * (td.X.T @ td.Y))
        Ls.append(float(np.linalg.eigvalsh(H)[-1]))

    def grad(B):
        g = np.empty_like(B)
        for r in range(T):
            g[:, r] = Hs[r] @ B[:, r] - bs[r]
        return g

    B, history = _fista(
        grad=grad,
        prox=lambda V, step: prox_l21(V, lam * step),
        lipschitz=max(Ls),
        objective=lambda B: nmtl_objective(data, B, lam),
        w0=np.zeros((p, T)),
    )
    return (B, history) if with_history else B


def fit_baseline(kind, data: MultiTaskDataset, lam) -> BaselineModel:
    """Train one baseline at one penalty over the whole dataset."""
    if not np.isfinite(lam):
        raise InputError(f"lambda must be finite, got {lam}")
    if kind == "ridge":
        W = np.column_stack([fit_ridge(td, lam) for td in data.tasks])
    elif kind == "lasso":
        W = np.column_stack([fit_lasso(td, lam) for td in data.tasks])
    elif kind == "nmtl":
        W = fit_nmtl(data, lam)
    else:
        raise InputError(f"unknown baseline kind {kind!r}")
    return BaselineModel(kind=kind, weights=W, tasks=tuple(data.graph.tasks), lam=lam)


def default_grid(kind):
    if kind == "ridge":
        return RIDGE_GRID
    if kind == "lasso":
        return LASSO_GRID
    if kind == "nmtl":
        return NMTL_GRID
    raise InputError(f"unknown baseline kind {kind!r}")


"""Single-task and naive multi-task reference models.

Every fit reads the dataset's cached Gram statistics, as the grouped
solver does, and returns p x T weights, a column per task. Ridge is
closed form, through a Cholesky factor, and also seeds the solver's
start (structured_q0). Lasso and the l2,1-coupled naive multi-task
learner (nMTL) differ only in their penalty and its proximal map. Both
run one accelerated proximal-gradient loop over all tasks' weights, with
a monotone restart so the objective never increases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalAbort, numerical
from .features import GramStats, MultiTaskDataset
from .prox import norm_l1, norm_l21, prox_l21, soft_threshold

FISTA_TOL = 1e-8
FISTA_MAX_ITER = 10000


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


def fit_ridge(data: MultiTaskDataset, lam):
    """Per-task ridge, p x T: w_r = (S_r + lam I)^-1 b_r minimizes
    ||X_r w - Y_r||^2 / n_r + lam ||w||^2. One batched Cholesky factor,
    then a forward and a back substitution, each a p-step loop over all
    tasks (numpy has no triangular solve). Unlike np.linalg.solve, both
    steps round alike at any BLAS thread count."""
    if not lam > 0:
        raise InputError(f"ridge lambda must be positive, got {lam}")
    gs = data.gram
    try:
        L = np.linalg.cholesky(gs.S + lam * np.eye(data.p))
    except np.linalg.LinAlgError:
        raise NumericalAbort(f"ridge lambda={lam:g}: S_r + lambda I is not positive definite") from None
    z = np.empty_like(gs.B)  # (T, p): L_r z_r = b_r
    for i in range(data.p):
        z[:, i] = (gs.B[:, i] - (L[:, i, :i] * z[:, :i]).sum(axis=1)) / L[:, i, i]
    w = np.empty_like(z)  # L_r^T w_r = z_r
    for i in reversed(range(data.p)):
        w[:, i] = (z[:, i] - (L[:, i + 1:, i] * w[:, i + 1:]).sum(axis=1)) / L[:, i, i]
    return w.T


def _fista(gs: GramStats, lam, prox, penalty):
    """Minimize sum_r ||X_r w_r - Y_r||^2 / n_r + lam penalty(W) over the
    p x T weights W (column w_r per task) by monotone FISTA: accelerated
    steps, plain fallback on any increase.

    The loss and its gradient 2 (S_r w_r - b_r) come from the Gram
    statistics; the loss is separable across columns, so the step is
    1 / L for the largest per-task Lipschitz constant L, gs.lipschitz,
    computed once per dataset. `prox(V, kappa)`
    is the proximal map of kappa penalty. Stops when the iterate's l-inf
    change drops below FISTA_TOL or at FISTA_MAX_ITER. Returns
    (solution, objective history).
    """
    step = 1.0 / gs.lipschitz if gs.lipschitz > 0 else 1.0

    def grad(W):
        return gs.grad(W.T).T

    def objective(W):
        return gs.loss(W.T) + lam * penalty(W)

    w = np.zeros(gs.B.T.shape)
    y = w.copy()
    t = 1.0
    history = [objective(w)]
    for _ in range(FISTA_MAX_ITER):
        candidate = prox(y - step * grad(y), lam * step)
        value = objective(candidate)
        if value > history[-1]:
            # ISTA step from the last accepted iterate cannot increase
            candidate = prox(w - step * grad(w), lam * step)
            value = objective(candidate)
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = candidate + ((t - 1.0) / t_next) * (candidate - w)
        delta = float(np.max(np.abs(candidate - w)))
        w = candidate
        t = t_next
        history.append(value)
        if delta < FISTA_TOL:
            break
    return w, history


def fit_lasso(data: MultiTaskDataset, lam):
    """Per-task lasso, p x T. The l1 penalty is separable across tasks,
    so one joint loop has the minimizer of T single-task lassos."""
    if lam < 0:
        raise InputError(f"lasso lambda must be >= 0, got {lam}")
    return _fista(data.gram, lam, soft_threshold, norm_l1)[0]


def fit_nmtl(data: MultiTaskDataset, lam):
    """Joint l2,1-penalized multi-task regression over all tasks, p x T;
    rows are coupled only through prox_l21."""
    if lam < 0:
        raise InputError(f"nmtl lambda must be >= 0, got {lam}")
    return _fista(data.gram, lam, prox_l21, norm_l21)[0]


# kind -> default penalty grid; fit_baseline finds fit_<kind> by name at call time
BASELINES = {
    "ridge": (10.0, 100.0),
    "lasso": (1.0, 10.0, 100.0),
    "nmtl": (1.0, 10.0, 100.0),
}
BASELINE_KINDS = tuple(BASELINES)


def fit_baseline(kind, data: MultiTaskDataset, lam) -> BaselineModel:
    """Train one baseline at one penalty over the whole dataset."""
    if not np.isfinite(lam):
        raise InputError(f"lambda must be finite, got {lam}")
    if kind not in BASELINES:
        raise InputError(f"unknown baseline kind {kind!r}")
    with numerical(f"fitting {kind} at lambda={lam:g}"):
        W = globals()[f"fit_{kind}"](data, lam)
    return BaselineModel(kind=kind, weights=W, tasks=tuple(data.graph.tasks), lam=lam)

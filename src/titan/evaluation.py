"""Metrics, comparison reports, group-recovery scores, and k sweeps.

`evaluate` is the one scorer: a report holds each task's metrics and the
pooled (overall) metrics of all tasks' prediction pairs concatenated, as
exact floats. The report CSV (`method,task,k,rmse,mae,mape_percent`)
writes the per-task rows with 4 decimals.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import BaselineModel
from .errors import InputError, numerical
from .features import MultiTaskDataset
from .solver import Hyperparams, TrainedModel, fit, predict, structured_q0

log = logging.getLogger(__name__)

# An entry below 5% of its column's peak carries < 0.25% of the squared
# column mass; such entries are treated as numerically off-support.
SUPPORT_REL_THRESHOLD = 0.05
REPORT_HEADER = "method,task,k,rmse,mae,mape_percent"


def _check_pair(y, yhat):
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.ndim != 1 or yhat.ndim != 1 or y.shape != yhat.shape:
        raise InputError(f"need equal-length vectors, got {y.shape} and {yhat.shape}")
    if y.size == 0:
        raise InputError("metrics need at least one pair")
    return y, yhat


def rmse(y, yhat):
    y, yhat = _check_pair(y, yhat)
    d = y - yhat
    return float(np.sqrt(np.mean(d * d)))


def mae(y, yhat):
    y, yhat = _check_pair(y, yhat)
    return float(np.mean(np.abs(y - yhat)))


def mape(y, yhat):
    """Mean absolute percentage error, in percent."""
    y, yhat = _check_pair(y, yhat)
    if np.any(y == 0):
        raise InputError("mape undefined for zero labels")
    return float(100.0 * np.mean(np.abs((y - yhat) / y)))


@dataclass(frozen=True)
class MetricTriple:
    rmse: float
    mae: float
    mape_percent: float


@dataclass(frozen=True)
class MetricsReport:
    method: str
    per_task: dict  # road_id -> MetricTriple, in task order
    k: int  # group count for grouped models, 0 for baselines
    overall: MetricTriple  # over all tasks' pairs concatenated


def measure(y, yhat):
    return MetricTriple(rmse(y, yhat), mae(y, yhat), mape(y, yhat))


def evaluate(model, data: MultiTaskDataset) -> MetricsReport:
    """Score a trained model (grouped or baseline), fitted on the dataset's
    tasks, on every task and on all tasks' pairs pooled. Each score runs
    under errors.numerical, named with the model's method and where it
    was scored."""
    if not isinstance(model, (TrainedModel, BaselineModel)):
        raise InputError(f"cannot evaluate object of type {type(model).__name__}")
    if tuple(model.tasks) != tuple(data.graph.tasks):
        raise InputError(
            f"model tasks {list(model.tasks)} do not match dataset tasks {list(data.graph.tasks)}"
        )

    def scored(where, y, yhat):
        with numerical(f"scoring {model.label} on {where}"):
            return measure(y, yhat)

    pairs = [(td.Y, predict(model, td.X, td.road_id)) for td in data.tasks]
    per_task = {td.road_id: scored(f"task {td.road_id!r}", y, yhat)
                for td, (y, yhat) in zip(data.tasks, pairs)}
    ys, yhats = zip(*pairs)
    overall = scored("all tasks", np.concatenate(ys), np.concatenate(yhats))
    return MetricsReport(method=model.label, per_task=per_task, k=model.k, overall=overall)


def column_support(Q):
    """Boolean support masks: entries above SUPPORT_REL_THRESHOLD times the
    column max (column per row)."""
    Q = np.abs(np.asarray(Q, dtype=float))
    peaks = Q.max(axis=0)
    peaks[peaks == 0] = 1.0
    return (Q > SUPPORT_REL_THRESHOLD * peaks[None, :]).T


def jaccard(a, b):
    """Jaccard similarity of two index sets (1.0 when both empty)."""
    a, b = frozenset(a), frozenset(b)
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def recovery_jaccard(Q, block_supports):
    """Mean Jaccard between each planted block and its best learned column."""
    sets = [frozenset(np.flatnonzero(m)) for m in column_support(Q)]
    return float(np.mean([max(jaccard(block, s) for s in sets) for block in block_supports]))


def sweep_group_count(train: MultiTaskDataset, test: MultiTaskDataset, hp_base: Hyperparams, k_values):
    """Train one model per k and score each on the test split.

    The fits run one after another in this process, in k_values order,
    and share the dataset's cached Gram statistics and Laplacian. Their
    starts come from one structured_q0 call, which does the k-independent
    work (ridge reference fit, segment tables) once for every k. Each
    fit's wall time, iteration count and convergence are logged at INFO,
    then one summary line for the sweep. Reports come back in k_values
    order.
    """
    ks = list(k_values)
    if not ks:
        raise InputError("k sweep needs at least one value")
    for i, k in enumerate(ks):
        if not 1 <= k <= train.p:
            raise InputError(f"sweep k={k} outside valid range 1..p={train.p}")
        if k in ks[:i]:
            raise InputError(f"sweep k={k} given more than once")

    started = time.perf_counter()
    reports, fit_total = [], 0.0
    for k, q0 in zip(ks, structured_q0(train, ks)):
        fit_started = time.perf_counter()
        try:
            model = fit(train, replace(hp_base, k=k), q0=q0)
        except Exception as exc:
            raise type(exc)(f"k={k}: {exc}") from exc
        fit_s = time.perf_counter() - fit_started
        reports.append(evaluate(model, test))
        log.info("k=%d fit_s=%.2f iterations=%d converged=%s", k, fit_s, model.iterations, model.converged)
        fit_total += fit_s
    log.info(
        "sweep: %d fits, wall %.2f s, summed fit time %.2f s",
        len(ks), time.perf_counter() - started, fit_total,
    )
    return tuple(reports)


def emit_report_csv(reports):
    """Serialize reports as `method,task,k,rmse,mae,mape_percent` rows."""
    lines = [REPORT_HEADER]
    for rep in reports:
        for road, m in rep.per_task.items():
            lines.append(
                f"{rep.method},{road},{rep.k},{m.rmse:.4f},{m.mae:.4f},{m.mape_percent:.4f}"
            )
    return "\n".join(lines) + "\n"

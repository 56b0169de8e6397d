"""Temporal feature construction and per-road dataset assembly.

Each incident contributes one feature vector built from the speed
readings around its verification interval: the h readings immediately
before it (detection window) followed by the t readings from the
verification interval onward (early-verification window), oldest first,
so the feature dimension is always p = h + t.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, data_lines, numerical, read_input_text
from .roadnet import TaskGraph

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class SpeedSeries:
    """Per-minute speed readings from one sensor.

    ``start_index`` is the absolute time-interval index of readings[0].
    """

    sensor_id: str
    readings: np.ndarray = field(repr=False)
    start_index: int = 0

    def __post_init__(self):
        r = np.asarray(self.readings, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise InputError(f"series {self.sensor_id!r}: readings must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise InputError(f"series {self.sensor_id!r}: readings must be finite and >= 0")
        object.__setattr__(self, "readings", r)

    @property
    def end_index(self):
        """Index one past the last reading."""
        return self.start_index + len(self.readings)


@dataclass(frozen=True)
class IncidentRecord:
    incident_id: str
    road_id: str
    verification_index: int
    duration_minutes: float

    def __post_init__(self):
        if not 0 < self.duration_minutes < np.inf:
            raise InputError(
                f"incident {self.incident_id!r}: duration must be positive and finite, got {self.duration_minutes}"
            )


@dataclass(frozen=True, eq=False)
class TaskDataset:
    """Design matrix and duration labels for one road."""

    road_id: str
    X: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 1 or X.shape[0] != Y.shape[0]:
            raise InputError(f"task {self.road_id!r}: X rows must match Y length")
        if X.shape[0] < 1:
            raise InputError(f"task {self.road_id!r}: needs at least one sample")
        for name, M in (("X", X), ("Y", Y)):
            if not np.all(np.isfinite(M)):
                raise InputError(f"task {self.road_id!r}: {name} contains non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class GramStats:
    """Per-task second moments of one dataset, stacked in task order.

    ``S[r] = X_r^T X_r / n_r`` (T, p, p), ``B[r] = X_r^T Y_r / n_r`` (T, p)
    and ``c[r] = Y_r^T Y_r / n_r`` (T,), so that for any weights v

        ||X_r v - Y_r||^2 / n_r == c[r] - 2 B[r] . v + v^T S[r] v.

    The arrays are read-only: one copy is shared by every fit on the
    dataset.
    """

    S: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)

    def fit(self, V):
        """S[r] V[r] for per-task weights V stacked (T, p), stacked (T, p)."""
        return np.matmul(self.S, V[:, :, None])[:, :, 0]

    def grad(self, V):
        """Gradient of loss at V, 2 (S[r] V[r] - B[r]) stacked (T, p)."""
        return 2.0 * (self.fit(V) - self.B)

    def loss(self, V):
        """sum_r ||X_r V[r] - Y_r||^2 / n_r for weights V stacked (T, p)."""
        return float(self.c.sum() + (V * (self.fit(V) - 2.0 * self.B)).sum())

    @cached_property
    def lipschitz(self):
        """2 max_r lambda_max(S[r]), the Lipschitz constant of the loss
        gradient over all tasks; computed on first use and kept, so every
        penalty of a baseline grid shares one eigvalsh."""
        return 2.0 * float(np.max(np.linalg.eigvalsh(self.S)[:, -1]))


@dataclass(frozen=True, eq=False)
class MultiTaskDataset:
    """Per-road datasets in task-graph order plus the coupling graph."""

    tasks: tuple  # of TaskDataset, order matching graph.tasks
    graph: TaskGraph
    h: int
    t: int

    def __post_init__(self):
        if tuple(td.road_id for td in self.tasks) != tuple(self.graph.tasks):
            raise InputError("task dataset order must match the task graph ordering")
        dims = {td.p for td in self.tasks}
        if len(dims) > 1:
            raise InputError(f"all tasks must share one feature dimension, got {sorted(dims)}")
        if self.p != self.h + self.t:
            raise InputError(f"feature dimension {self.p} != h + t = {self.h + self.t}")

    @property
    def p(self):
        return self.tasks[0].p

    @property
    def n_tasks(self):
        return len(self.tasks)

    @cached_property
    def gram(self) -> GramStats:
        """Gram statistics of the tasks, computed on first use and kept
        (T * p^2 doubles for S)."""
        S = np.stack([(td.X.T @ td.X) / td.n for td in self.tasks])
        B = np.stack([(td.X.T @ td.Y) / td.n for td in self.tasks])
        c = np.array([float(td.Y @ td.Y) / td.n for td in self.tasks])
        for a in (S, B, c):
            a.setflags(write=False)
        return GramStats(S, B, c)


def check_window_sizes(h, t):
    """Reject a detection (h) or verification (t) window shorter than 1."""
    if h < 1 or t < 1:
        raise InputError(f"window sizes must be >= 1, got h={h}, t={t}")


def construct_features(series: SpeedSeries, verification_index, h, t):
    """Extract the length-(h + t) window around a verification interval.

    Returns readings at absolute indices [tau_v - h, tau_v + t), oldest
    first. Raises InputError naming the missing range when the series
    does not cover the window.
    """
    check_window_sizes(h, t)
    lo = verification_index - h
    hi = verification_index + t  # exclusive
    if lo < series.start_index or hi > series.end_index:
        raise InputError(
            f"insufficient history in series {series.sensor_id!r}: need indices "
            f"[{lo}, {hi - 1}], have [{series.start_index}, {series.end_index - 1}]"
        )
    off = lo - series.start_index
    return series.readings[off : off + h + t].copy()


def split_rows(n, split, rng):
    """Shuffled train/test row indices: floor(split * n) train, min 1."""
    n_train = max(1, int(np.floor(split * n)))
    perm = rng.permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def assemble_dataset(
    incidents,
    series_by_road,
    graph: TaskGraph,
    h,
    t,
    split=0.8,
    seed=0,
    standardize=False,
):
    """Build per-road train/test datasets from incident records.

    Incidents whose feature window falls outside their road's series are
    skipped (logged); each remaining task is shuffled with a seeded RNG
    and split per task, so every road keeps its own train rows. With
    ``standardize=True`` every feature column is centered and scaled
    using statistics of the pooled train rows only.

    Returns a (train, test) pair of MultiTaskDataset.
    """
    check_window_sizes(h, t)
    if not 0 < split < 1:
        raise InputError(f"split fraction must be in (0, 1), got {split}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    for inc in incidents:
        if inc.road_id not in graph.tasks:
            raise InputError(f"incident {inc.incident_id!r} references unknown road {inc.road_id!r}")

    rows = {road: [] for road in graph.tasks}
    labels = {road: [] for road in graph.tasks}
    for inc in incidents:
        series = series_by_road.get(inc.road_id)
        if series is None:
            raise InputError(f"no speed series for road {inc.road_id!r}")
        try:
            x = construct_features(series, inc.verification_index, h, t)
        except InputError as exc:
            log.info("skipping incident %s: %s", inc.incident_id, exc)
            continue
        rows[inc.road_id].append(x)
        labels[inc.road_id].append(inc.duration_minutes)

    rng = np.random.default_rng(seed)
    train_tasks, test_tasks = [], []
    for road in graph.tasks:
        if not rows[road]:
            raise InputError(f"task {road!r} has no usable incidents after feature construction")
        X = np.vstack(rows[road])
        Y = np.asarray(labels[road], dtype=float)
        idx_train, idx_test = split_rows(len(Y), split, rng)
        if len(idx_test) == 0:
            raise InputError(
                f"task {road!r} has too few usable incidents ({len(Y)}) to fill both splits"
            )
        train_tasks.append(TaskDataset(road, X[idx_train], Y[idx_train]))
        test_tasks.append(TaskDataset(road, X[idx_test], Y[idx_test]))

    train = MultiTaskDataset(tuple(train_tasks), graph, h, t)
    test = MultiTaskDataset(tuple(test_tasks), graph, h, t)
    if standardize:
        train, test = standardize_columns(train, test)
    return train, test


def standardize_columns(train: MultiTaskDataset, test: MultiTaskDataset):
    """Center/scale every feature column by pooled train statistics."""

    def apply(ds):
        tasks = tuple(
            TaskDataset(td.road_id, (td.X - mean) / std, td.Y) for td in ds.tasks
        )
        return MultiTaskDataset(tasks, ds.graph, ds.h, ds.t)

    with numerical("in the column standardization"):
        pooled = np.vstack([td.X for td in train.tasks])
        mean = pooled.mean(axis=0)
        std = pooled.std(axis=0)
        std[std == 0] = 1.0
        return apply(train), apply(test)


def load_incidents_csv(path):
    """The incident records of an incident CSV: the header
    ``incident_id,road_id,verification_index,duration_minutes``, then one
    incident a line; blank and ``#`` lines after the header are skipped."""
    lines = read_input_text(path).splitlines()
    if not lines:
        raise InputError(f"{path}: empty incident file")
    header = "incident_id,road_id,verification_index,duration_minutes"
    if lines[0].strip() != header:
        raise InputError(f"{path}:1: expected header {header!r}")
    records = []
    for lineno, line in data_lines(lines[1:], start=2):
        parts = line.split(",")
        try:
            if len(parts) != 4:
                raise InputError(f"expected 4 fields, got {len(parts)}")
            records.append(IncidentRecord(parts[0], parts[1], int(parts[2]), float(parts[3])))
        except ValueError as exc:  # InputError included
            raise InputError(f"{path}:{lineno}: {exc}") from None
    return records


def load_speed_csv(path, sensor_id):
    """A per-road speed file as a SpeedSeries: ``# start_index=<int>``,
    then one reading a line; blank and ``#`` lines are skipped."""
    lines = read_input_text(path).splitlines()
    if not lines or not lines[0].strip().startswith("# start_index="):
        raise InputError(f"{path}:1: expected '# start_index=<int>' header")
    try:
        start = int(lines[0].strip().split("=", 1)[1])
    except ValueError:
        raise InputError(f"{path}:1: bad start_index value") from None
    readings = []
    for lineno, line in data_lines(lines[1:], start=2):
        try:
            readings.append(float(line))
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad speed reading {line!r}") from None
    try:
        return SpeedSeries(sensor_id=sensor_id, readings=np.asarray(readings), start_index=start)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None

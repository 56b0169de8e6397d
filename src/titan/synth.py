"""Synthetic multi-task datasets with planted ground truth.

The generator plants an exactly feasible group matrix Q* (contiguous
disjoint blocks, nonnegative, orthonormal columns) and graph-smooth task
weights W*, draws AR(1)-correlated feature rows, and emits noisy labels
Y_r = X_r Q* W*_r + eps. Recovery and comparative experiments score
against the returned ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_field_types, numerical
from .features import MultiTaskDataset, TaskDataset
from .roadnet import TaskGraph, build_line_graph, load_edge_list

GRAPH_KINDS = ("star", "path", "complete", "custom-edge-list")
# Cap on the values a synthetic dataset holds, T * n_per_task * (p + 1)
# (features plus label). write_dataset stores each in values.npy (8
# bytes) and as ~20 bytes of %.17g text, so 1e8 values is ~2.8 GB on
# disk (`synth` streams one road at a time, so its memory does not grow
# with T), and the library's generate keeps every value in memory as a
# float64, ~0.8 GB; a larger request is a typo, and is refused before any
# of it is drawn.
MAX_SYNTH_VALUES = 10**8


@dataclass(frozen=True)
class SynthConfig:
    T: int = 6
    p: int = 60
    k: int = 5
    n_per_task: int = 200
    noise_sigma: float = 2.0
    graph_kind: str = "star"
    weight_smoothness: float = 1.0
    feature_corr: float = 0.5
    seed: int = 0
    edge_list_path: str | None = None

    def __post_init__(self):
        check_field_types(self, ("T", "p", "k", "n_per_task", "seed"),
                          ("noise_sigma", "weight_smoothness", "feature_corr"))
        if not (self.edge_list_path is None or isinstance(self.edge_list_path, str)):
            raise InputError(f"edge_list_path must be a path string, got {self.edge_list_path!r}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.graph_kind not in GRAPH_KINDS:
            raise InputError(f"graph_kind must be one of {GRAPH_KINDS}, got {self.graph_kind!r}")
        if self.graph_kind == "custom-edge-list":
            if not self.edge_list_path:
                raise InputError("graph_kind 'custom-edge-list' requires edge_list_path")
        elif self.T < 2:
            raise InputError(f"need at least 2 tasks, got T={self.T}")
        if not 1 <= self.k <= self.p:
            raise InputError(f"need 1 <= k <= p, got k={self.k}, p={self.p}")
        if self.p % self.k != 0:
            raise InputError(f"k must divide p for equal contiguous blocks, got p={self.p}, k={self.k}")
        if self.n_per_task < 2:
            raise InputError(f"need n_per_task >= 2 to fill both splits, got {self.n_per_task}")
        if self.noise_sigma < 0:
            raise InputError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not self.weight_smoothness > 0:
            raise InputError(f"weight_smoothness must be positive, got {self.weight_smoothness}")
        if not 0 <= self.feature_corr < 1:
            raise InputError(f"feature_corr must be in [0, 1), got {self.feature_corr}")
        self.check_size(1 if self.graph_kind == "custom-edge-list" else self.T)  # draw counts its roads

    def check_size(self, T):
        """Refuse T tasks of this config above MAX_SYNTH_VALUES values."""
        values = T * self.n_per_task * (self.p + 1)
        if values > MAX_SYNTH_VALUES:
            raise InputError(f"dataset too large: T*n_per_task*(p+1) = {values} values, cap {MAX_SYNTH_VALUES}")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Planted parameters, in task-graph order."""

    Q: np.ndarray = field(repr=False)
    W: np.ndarray = field(repr=False)
    tasks: tuple = ()

    @property
    def block_supports(self):
        """Index sets of the planted contiguous blocks, one per group."""
        p, k = self.Q.shape
        size = p // k
        return [frozenset(range(i * size, (i + 1) * size)) for i in range(k)]


def task_names(T):
    return tuple(f"r{i:02d}" for i in range(T))


def make_task_graph(config: SynthConfig) -> TaskGraph:
    """Task graph for the configured topology (star hub = first task)."""
    if config.graph_kind == "custom-edge-list":
        return build_line_graph(load_edge_list(config.edge_list_path))
    names = task_names(config.T)
    if config.graph_kind == "star":
        edges = [(names[0], names[i]) for i in range(1, config.T)]
    elif config.graph_kind == "path":
        edges = [(names[i], names[i + 1]) for i in range(config.T - 1)]
    else:  # complete
        edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    return TaskGraph(names, edges)


def plant_Q(p, k, seed):
    """Plant a feasible group matrix: k equal contiguous blocks.

    Column i has uniform [0.5, 1.5] entries on block i, zeros elsewhere,
    then unit l2 norm, so Q >= 0 and Q^T Q = I hold exactly.
    """
    if p % k != 0:
        raise InputError(f"k must divide p, got p={p}, k={k}")
    rng = np.random.default_rng(seed)
    size = p // k
    Q = np.zeros((p, k))
    for i in range(k):
        block = rng.uniform(0.5, 1.5, size=size)
        Q[i * size : (i + 1) * size, i] = block / np.linalg.norm(block)
    return Q


def plant_W(graph: TaskGraph, k, smoothness, seed):
    """Plant graph-smooth task weights.

    Every column shares a base vector w0; per-task perturbations are
    neighbor-averaged once, so adjacent tasks end up closer than
    non-adjacent ones in expectation (variance ~ 1/smoothness).
    """
    if not smoothness > 0:
        raise InputError(f"smoothness must be positive, got {smoothness}")
    rng = np.random.default_rng(seed)
    T = graph.n_tasks
    w0 = rng.standard_normal(k)
    zeta = rng.standard_normal((k, T)) / np.sqrt(float(smoothness))  # an int may exceed int64
    M = graph.adjacency
    deg = graph.degree
    xi = (zeta + zeta @ M) / (1.0 + deg)
    return w0[:, None] + xi


def ar1_rows(rng, n, p, phi):
    """n feature rows with AR(1) correlation phi across adjacent columns."""
    Z = rng.standard_normal((n, p))
    if phi == 0:
        return Z
    X = np.empty((n, p))
    X[:, 0] = Z[:, 0]
    scale = np.sqrt(1.0 - phi * phi)
    for j in range(1, p):
        X[:, j] = phi * X[:, j - 1] + scale * Z[:, j]
    return X


def _task_pair(rng, road, Q, w, config: SynthConfig, n_train):
    """One road's (train, test) TaskDataset pair (see draw)."""
    n = config.n_per_task
    with numerical(f"drawing task {road!r}"):
        X = ar1_rows(rng, n, config.p, config.feature_corr)
        Y = X @ Q @ w
        if config.noise_sigma > 0:
            Y = Y + config.noise_sigma * rng.standard_normal(n)
    return TaskDataset(road, X[:n_train], Y[:n_train]), TaskDataset(road, X[n_train:], Y[n_train:])


def draw(config: SynthConfig):
    """Plant the ground truth, then draw the tasks lazily: returns
    (graph, h, t, rows, tasks, truth), storage.write_dataset's arguments
    after its root, so `synth` streams one road at a time.

    `tasks` is a generator of one (train, test) TaskDataset pair per road,
    in task order, each drawn when asked for: n_per_task AR(1) feature
    rows, labels X Q* W*_r + eps with eps ~ N(0, noise_sigma^2), then a
    fixed 80/20 row split (rows are exchangeable by construction, so the
    first-80% slice is unbiased). Random draws, in order: Q*, W*, then
    each road's rows and noise.
    """
    graph = make_task_graph(config)
    config.check_size(graph.n_tasks)
    ss = np.random.SeedSequence(config.seed)
    q_seed, w_seed, data_seed = ss.spawn(3)
    Q = plant_Q(config.p, config.k, q_seed)
    W = plant_W(graph, config.k, config.weight_smoothness, w_seed)
    truth = GroundTruth(Q=Q, W=W, tasks=graph.tasks)
    n_train = max(1, int(np.floor(0.8 * config.n_per_task)))
    rows = {"train": [n_train] * graph.n_tasks, "test": [config.n_per_task - n_train] * graph.n_tasks}
    rng = np.random.default_rng(data_seed)
    tasks = (_task_pair(rng, road, Q, W[:, r], config, n_train) for r, road in enumerate(graph.tasks))
    # h + t must equal p for the dataset invariant; the synthetic window
    # split is arbitrary, so put half the features on each side.
    h = config.p // 2
    return graph, h, config.p - h, rows, tasks, truth


def generate(config: SynthConfig):
    """Generate (train, test, ground_truth) for the configured topology:
    draw's tasks, collected in memory."""
    graph, h, t, _, tasks, truth = draw(config)
    train, test = zip(*tasks)
    return MultiTaskDataset(train, graph, h, t), MultiTaskDataset(test, graph, h, t), truth

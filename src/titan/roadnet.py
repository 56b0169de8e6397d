"""Road networks and their line graphs.

A road network is an undirected graph whose vertices are intersections
and whose edges are arterial road segments, given as
(vertex_a, vertex_b, road_id) triples. Tasks in the multi-task
model are the roads themselves, coupled whenever two roads share an
intersection; that coupling is captured by the adjacency matrix of the
line graph of the road network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, data_lines, read_input_text


@dataclass(frozen=True, eq=False)
class TaskGraph:
    """Tasks (roads) plus their symmetric 0/1 adjacency matrix.

    ``tasks`` fixes the task indexing used by every downstream matrix;
    ``adjacency[i, j] == 1`` iff roads i and j share an intersection.
    """

    tasks: tuple
    adjacency: np.ndarray = field(repr=False)

    def __post_init__(self):
        adj = np.asarray(self.adjacency)
        t = len(self.tasks)
        if len(set(self.tasks)) != t:
            raise InputError("duplicate road id in task list")
        if adj.shape != (t, t):
            raise InputError(f"adjacency shape {adj.shape} does not match {t} tasks")
        if not np.array_equal(adj, adj.T):
            raise InputError("adjacency must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise InputError("adjacency must have zero diagonal")
        if not np.all((adj == 0) | (adj == 1)):
            raise InputError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", adj.astype(float))

    @property
    def n_tasks(self):
        return len(self.tasks)

    @property
    def degree(self):
        """Neighbor count per task (row sums of the adjacency)."""
        return self.adjacency.sum(axis=1).astype(int)

    @cached_property
    def laplacian(self):
        """Graph Laplacian D - M, built on first use and kept read-only."""
        L = np.diag(self.adjacency.sum(axis=1)) - self.adjacency
        L.flags.writeable = False
        return L

    def index_of(self, road_id):
        try:
            return self.tasks.index(road_id)
        except ValueError:
            raise InputError(f"unknown road {road_id!r}") from None

    def task_edges(self):
        """Undirected task pairs (i < j) with adjacency 1."""
        t = self.n_tasks
        return [
            (self.tasks[i], self.tasks[j])
            for i in range(t)
            for j in range(i + 1, t)
            if self.adjacency[i, j] == 1
        ]

    @staticmethod
    def from_task_edges(tasks, edges):
        """Build a task graph from road-id pairs: a line graph, a
        dataset's `graph.edges`, or a synthetic topology."""
        tasks = tuple(tasks)
        index = {r: i for i, r in enumerate(tasks)}
        adj = np.zeros((len(tasks), len(tasks)))
        for a, b in edges:
            check_task_edge(index, a, b)
            adj[index[a], index[b]] = 1.0
            adj[index[b], index[a]] = 1.0
        return TaskGraph(tasks=tasks, adjacency=adj)


def check_road_id(road):
    """Reject a road id that cannot serve as a file name inside a dataset
    or speed directory (`X_<road>.csv`, `<road>.csv`): a non-string, the
    empty string, `.`, `..`, or one holding `/`, `\\` or NUL."""
    if not isinstance(road, str) or road in ("", ".", "..") or any(c in road for c in "/\\\0"):
        raise InputError(f"road id {road!r} is not a plain file name")


def check_task_edge(tasks, a, b):
    """Reject a task edge naming a road not in `tasks` (any container of
    road ids), or joining a road to itself."""
    if a not in tasks or b not in tasks:
        raise InputError(f"task edge ({a!r}, {b!r}) references unknown road")
    if a == b:
        raise InputError(f"task edge may not be a self loop ({a!r})")


def _road_endpoints(edges):
    """Each road's endpoint set; rejects a self loop, a road id on two
    edges, and a network without edges."""
    endpoints = {}
    for a, b, road in edges:
        if a == b:
            raise InputError(f"self-loop edge on vertex {a!r} (road {road!r})")
        if road in endpoints:
            raise InputError(f"duplicate road {road!r}: each road id must appear on exactly one edge")
        endpoints[road] = {a, b}
    if not endpoints:
        raise InputError("no tasks: the road network has no edges")
    return endpoints


def build_line_graph(edges) -> TaskGraph:
    """Turn a road network's edge triples into its line graph on roads.

    Tasks are the road ids in lexicographic order (deterministic
    indexing regardless of input edge order); two roads are adjacent iff
    they share at least one endpoint vertex.
    """
    endpoints = _road_endpoints(edges)
    tasks = sorted(endpoints)
    pairs = [(r, s) for i, r in enumerate(tasks) for s in tasks[i + 1:] if endpoints[r] & endpoints[s]]
    return TaskGraph.from_task_edges(tasks, pairs)


def parse_edge_list(text):
    """Parse the edge-list text format into (vertex_a, vertex_b, road_id)
    triples.

    One edge per line, ``<vertexA> <vertexB> <roadId>`` separated by
    whitespace; blank lines and ``#`` comment lines are ignored. The
    edges must form a network that :func:`build_line_graph` accepts.
    """
    edges = []
    for lineno, line in data_lines(text.splitlines()):
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"edge list line {lineno}: expected 3 fields, got {len(parts)}: {line!r}")
        try:
            check_road_id(parts[2])
        except InputError as exc:
            raise InputError(f"edge list line {lineno}: {exc}") from None
        edges.append(tuple(parts))
    _road_endpoints(edges)  # here too, so that load_edge_list's errors name the file
    return edges


def load_edge_list(path):
    """Read an edge-list file's triples (see :func:`parse_edge_list`)."""
    text = read_input_text(path)
    try:
        return parse_edge_list(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None

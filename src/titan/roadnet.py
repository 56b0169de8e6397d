"""Road network representation and the line-graph transformation.

A road network is an undirected graph whose vertices are intersections
and whose edges are arterial road segments. Tasks in the multi-task
model are the roads themselves, coupled whenever two roads share an
intersection; that coupling is captured by the adjacency matrix of the
line graph of the road network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, read_input_text


@dataclass(frozen=True)
class RoadNetwork:
    """Undirected intersection graph with one road id per edge.

    Invariants (checked at construction): no self loops, every road id
    appears on exactly one edge, and every endpoint is a known vertex.
    """

    vertices: frozenset
    edges: tuple  # of (vertex_a, vertex_b, road_id)

    def __post_init__(self):
        seen = set()
        for a, b, road in self.edges:
            if a == b:
                raise InputError(f"self-loop edge on vertex {a!r} (road {road!r})")
            if road in seen:
                raise InputError(f"duplicate road {road!r}: each road id must appear on exactly one edge")
            seen.add(road)
            if a not in self.vertices or b not in self.vertices:
                raise InputError(f"edge {(a, b, road)!r} references unknown vertex")

    @staticmethod
    def from_edges(edges):
        """Build a network from (vertex_a, vertex_b, road_id) triples."""
        edges = tuple(tuple(e) for e in edges)
        vertices = frozenset(v for a, b, _ in edges for v in (a, b))
        return RoadNetwork(vertices=vertices, edges=edges)


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
        """Build a task graph directly from road-id pairs.

        Used for synthetic topologies that need not correspond to any
        physical road network.
        """
        tasks = tuple(tasks)
        index = {r: i for i, r in enumerate(tasks)}
        adj = np.zeros((len(tasks), len(tasks)))
        for a, b in edges:
            if a not in index or b not in index:
                raise InputError(f"task edge ({a!r}, {b!r}) references unknown road")
            if a == b:
                raise InputError(f"task edge may not be a self loop ({a!r})")
            adj[index[a], index[b]] = 1.0
            adj[index[b], index[a]] = 1.0
        return TaskGraph(tasks=tasks, adjacency=adj)


def check_road_id(road):
    """Reject a road id that cannot serve as a file name inside a dataset
    or speed directory (`X_<road>.csv`, `<road>.csv`): a non-string, the
    empty string, `.`, `..`, or one holding `/`, `\\` or NUL."""
    if not isinstance(road, str) or road in ("", ".", "..") or any(c in road for c in "/\\\0"):
        raise InputError(f"road id {road!r} is not a plain file name")


def build_line_graph(network: RoadNetwork) -> TaskGraph:
    """Turn a road network into its line graph on roads.

    Tasks are the road ids in lexicographic order (deterministic
    indexing regardless of input edge order); two roads are adjacent iff
    they share at least one endpoint vertex.
    """
    if not network.edges:
        raise InputError("no tasks: the road network has no edges")
    endpoints = {road: frozenset((a, b)) for a, b, road in network.edges}
    tasks = tuple(sorted(endpoints))
    t = len(tasks)
    adj = np.zeros((t, t))
    for i in range(t):
        for j in range(i + 1, t):
            if endpoints[tasks[i]] & endpoints[tasks[j]]:
                adj[i, j] = adj[j, i] = 1.0
    return TaskGraph(tasks=tasks, adjacency=adj)


def parse_edge_list(text) -> RoadNetwork:
    """Parse the edge-list text format.

    One edge per line, ``<vertexA> <vertexB> <roadId>`` separated by
    whitespace; blank lines and ``#`` comment lines are ignored.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InputError(f"edge list line {lineno}: expected 3 fields, got {len(parts)}: {line!r}")
        try:
            check_road_id(parts[2])
        except InputError as exc:
            raise InputError(f"edge list line {lineno}: {exc}") from None
        edges.append(tuple(parts))
    return RoadNetwork.from_edges(edges)


def load_edge_list(path) -> RoadNetwork:
    """Read an edge-list file (see :func:`parse_edge_list`)."""
    text = read_input_text(path)
    try:
        return parse_edge_list(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None

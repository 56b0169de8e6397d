"""Road networks and their line graphs.

A road network is an undirected graph whose vertices are intersections
and whose edges are arterial road segments, given as
(vertex_a, vertex_b, road_id) triples. Tasks in the multi-task
model are the roads themselves, coupled whenever two roads share an
intersection; that coupling is captured by the adjacency matrix of the
line graph of the road network.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, data_lines, read_input_text


@dataclass(frozen=True, eq=False)
class TaskGraph:
    """Tasks (roads) plus the road-id pairs that couple them: a line
    graph, a dataset's `graph.edges`, or a synthetic topology.

    ``tasks`` fixes the task indexing used by every downstream matrix;
    the read-only ``adjacency[i, j] == 1`` iff roads i and j share an
    intersection.
    """

    tasks: tuple
    edges: InitVar = ()
    adjacency: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, edges):
        tasks = tuple(self.tasks)
        index = {r: i for i, r in enumerate(tasks)}
        if len(index) != len(tasks):
            raise InputError("duplicate road id in task list")
        adj = np.zeros((len(tasks), len(tasks)))
        for a, b in edges:
            check_task_edge(index, a, b)
            adj[index[a], index[b]] = adj[index[b], index[a]] = 1.0
        adj.flags.writeable = False
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "adjacency", adj)

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

    def task_edges(self):
        """Undirected task pairs (i < j) with adjacency 1."""
        t = self.n_tasks
        return [
            (self.tasks[i], self.tasks[j])
            for i in range(t)
            for j in range(i + 1, t)
            if self.adjacency[i, j] == 1
        ]


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
    return TaskGraph(tasks, pairs)


def load_edge_list(path):
    """Read an edge-list file into (vertex_a, vertex_b, road_id) triples.

    One edge per line, ``<vertexA> <vertexB> <roadId>`` separated by
    whitespace; blank lines and ``#`` comment lines are ignored. The
    edges must form a network that :func:`build_line_graph` accepts;
    every error names the file, and the line where it has one.
    """
    edges = []
    for lineno, line in data_lines(read_input_text(path).splitlines()):
        parts = line.split()
        try:
            if len(parts) != 3:
                raise InputError(f"expected 3 fields, got {len(parts)}: {line!r}")
            check_road_id(parts[2])
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        edges.append(tuple(parts))
    try:
        _road_endpoints(edges)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return edges

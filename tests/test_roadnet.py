"""Line graphs of road networks given as edge triples, and edge-list files."""

import numpy as np
import pytest

from titan.errors import InputError
from titan.roadnet import TaskGraph, build_line_graph, load_edge_list


def brute_force_adjacency(edges):
    """Oracle: double loop testing endpoint intersection per road pair."""
    endpoints = {road: {a, b} for a, b, road in edges}
    tasks = sorted(endpoints)
    t = len(tasks)
    adj = np.zeros((t, t))
    for i in range(t):
        for j in range(t):
            if i != j and endpoints[tasks[i]] & endpoints[tasks[j]]:
                adj[i, j] = 1.0
    return tuple(tasks), adj


def edge_file(tmp_path, text):
    path = tmp_path / "net.edges"
    path.write_text(text, encoding="utf-8")
    return path


def test_path_graph_two_roads():
    graph = build_line_graph([("a", "b", "e1"), ("b", "c", "e2")])
    assert graph.tasks == ("e1", "e2")
    np.testing.assert_array_equal(graph.adjacency, [[0, 1], [1, 0]])


def test_triangle_gives_complete_line_graph():
    graph = build_line_graph([("a", "b", "e1"), ("b", "c", "e2"), ("c", "a", "e3")])
    np.testing.assert_array_equal(graph.adjacency, np.ones((3, 3)) - np.eye(3))


def test_star_line_graph_is_complete_on_spokes():
    edges = [("hub", f"v{i}", f"road{i}") for i in range(5)]
    graph = build_line_graph(edges)
    tasks, want = brute_force_adjacency(edges)
    assert graph.tasks == tasks
    np.testing.assert_array_equal(graph.adjacency, want)
    np.testing.assert_array_equal(graph.adjacency, np.ones((5, 5)) - np.eye(5))
    assert list(graph.degree) == [4] * 5


def test_random_networks_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n_vertices = int(rng.integers(2, 9))
        vertices = [f"v{i}" for i in range(n_vertices)]
        n_edges = int(rng.integers(1, 10))
        edges = []
        for e in range(n_edges):
            a, b = rng.choice(n_vertices, size=2, replace=False)
            edges.append((vertices[a], vertices[b], f"r{e}"))
        graph = build_line_graph(edges)
        tasks, want = brute_force_adjacency(edges)
        assert graph.tasks == tasks
        np.testing.assert_array_equal(graph.adjacency, want)
        np.testing.assert_array_equal(graph.adjacency, graph.adjacency.T)


def test_edge_order_does_not_change_output():
    edges = [("a", "b", "e2"), ("b", "c", "e1"), ("c", "d", "e3")]
    g1 = build_line_graph(edges)
    g2 = build_line_graph(edges[::-1])
    assert g1.tasks == g2.tasks
    np.testing.assert_array_equal(g1.adjacency, g2.adjacency)


def test_empty_edge_set_rejected(tmp_path):
    with pytest.raises(InputError, match="no tasks"):
        build_line_graph([])
    with pytest.raises(InputError, match="net.edges: no tasks"):
        load_edge_list(edge_file(tmp_path, "# only a comment\n\n"))


def test_duplicate_road_rejected(tmp_path):
    with pytest.raises(InputError, match="duplicate road 'e1'"):
        build_line_graph([("a", "b", "e1"), ("b", "c", "e1")])
    with pytest.raises(InputError, match="net.edges: duplicate road 'e1'"):
        load_edge_list(edge_file(tmp_path, "a b e1\nb c e1\n"))


def test_self_loop_rejected(tmp_path):
    with pytest.raises(InputError, match="self-loop edge on vertex 'a' \\(road 'e1'\\)"):
        build_line_graph([("a", "a", "e1")])
    with pytest.raises(InputError, match="net.edges: self-loop"):
        load_edge_list(edge_file(tmp_path, "a b e0\na a e1\n"))


def test_task_graph_invariants_enforced():
    with pytest.raises(InputError, match="duplicate"):
        TaskGraph(("a", "a"))
    graph = TaskGraph(["a", "b", "c"], [("b", "a"), ("a", "b")])
    assert graph.tasks == ("a", "b", "c") and graph.task_edges() == [("a", "b")]
    np.testing.assert_array_equal(graph.adjacency, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="read-only"):
        graph.adjacency[0, 2] = 1.0


def test_degree_matches_row_sums():
    graph = TaskGraph(("a", "b", "c"), [("a", "b"), ("a", "c")])
    assert list(graph.degree) == [2, 1, 1]
    np.testing.assert_array_equal(graph.degree, graph.adjacency.sum(axis=1))


def test_from_task_edges_rejects_bad_edges():
    with pytest.raises(InputError, match="unknown road"):
        TaskGraph(("a", "b"), [("a", "z")])
    with pytest.raises(InputError, match="self loop"):
        TaskGraph(("a", "b"), [("a", "a")])


def test_task_edges_round_trip():
    graph = TaskGraph(("a", "b", "c"), [("a", "c"), ("b", "c")])
    rebuilt = TaskGraph(graph.tasks, graph.task_edges())
    np.testing.assert_array_equal(graph.adjacency, rebuilt.adjacency)


def test_parse_edge_list_skips_comments_and_blanks(tmp_path):
    edges = load_edge_list(edge_file(tmp_path, "# header\n\na b e1\n  b c e2  \n"))
    assert edges == [("a", "b", "e1"), ("b", "c", "e2")]


def test_parse_edge_list_field_count_error_names_line(tmp_path):
    with pytest.raises(InputError, match="net.edges:2: "):
        load_edge_list(edge_file(tmp_path, "a b e1\na b\n"))
    with pytest.raises(InputError, match="net.edges:4: expected 3 fields"):
        load_edge_list(edge_file(tmp_path, "# header\n\na b e1\na b\n"))


def test_load_edge_list(tmp_path):
    path = tmp_path / "net.edges"
    path.write_text("a b e1\nb c e2\n", encoding="utf-8")
    graph = build_line_graph(load_edge_list(path))
    assert graph.tasks == ("e1", "e2")
    assert load_edge_list(path) == [("a", "b", "e1"), ("b", "c", "e2")]
    bad = tmp_path / "bad.edges"
    for text, message in [("a b\n", "1: expected 3 fields"), ("a a e1\n", " self-loop"),
                          ("a b e1\nb c e1\n", " duplicate road"), ("# none\n", " no tasks")]:
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match=f"bad.edges:{message}"):
            load_edge_list(bad)


@pytest.mark.parametrize("road", ["..", ".", "../../evil", "a/b", "a\\b", "r\x001"])
def test_parse_edge_list_rejects_road_ids_that_are_not_file_names(tmp_path, road):
    with pytest.raises(InputError, match=r"net.edges:2: road id .* is not a plain file name"):
        load_edge_list(edge_file(tmp_path, f"v0 v1 r1\nv1 v2 {road}\n"))
    load_edge_list(edge_file(tmp_path, f"{road} v1 r1\n"))  # vertex ids are never file names


def test_load_edge_list_missing_file(tmp_path):
    with pytest.raises(InputError, match="missing file"):
        load_edge_list(tmp_path / "nope.edges")

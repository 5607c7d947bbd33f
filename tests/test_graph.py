"""Graph container, BFS metrics, Laplacian, and serialization."""
from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import complete_graph, path_graph
from oracles import bfs_distances
from zfnets.constructions import ConstructionSpec, InfeasibleSpecError, build
from zfnets.graph import (
    Graph,
    GraphDisconnectedError,
    LeaderSet,
    export_dot,
    from_edge_list_text,
    to_edge_list_text,
)


@st.composite
def graphs(draw, min_n=1, max_n=10, connected=False):
    n = draw(st.integers(max(min_n, 2 if connected else 1), max_n))
    g = Graph(n)
    if connected:
        for v in range(1, n):
            g.add_edge(v, draw(st.integers(0, v - 1)))
    pairs = list(combinations(range(n), 2))
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), max_size=3 * n)):
            g.add_edge(u, v)
    return g


def test_add_edge_reports_novelty():
    g = Graph(3)
    assert g.add_edge(0, 1) is True
    assert g.add_edge(1, 0) is False
    assert g.edge_count() == 1


def test_add_edge_rejects_self_loops_and_bad_ids():
    g = Graph(2)
    with pytest.raises(ValueError):
        g.add_edge(0, 0)
    with pytest.raises(ValueError):
        g.add_edge(0, 2)
    with pytest.raises(ValueError):
        g.add_edge(-1, 0)
    with pytest.raises(ValueError, match="^vertex count must be non-negative, got -1$"):
        Graph(-1)


def test_remove_edge():
    g = Graph(3, [(0, 1)])
    g.remove_edge(1, 0)
    assert g.edge_count() == 0
    with pytest.raises(ValueError):
        g.remove_edge(0, 1)


def test_edges_sorted_lexicographically():
    g = Graph(4, [(3, 2), (1, 0), (0, 3)])
    assert g.edges() == [(0, 1), (0, 3), (2, 3)]


@st.composite
def long_graphs(draw, max_n=40):
    """A random tree or path plus a few chords: long, sparse and connected."""
    n = draw(st.integers(2, max_n))
    path = draw(st.booleans())
    g = Graph(n, ((v, v - 1 if path else draw(st.integers(0, v - 1))) for v in range(1, n)))
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            g.add_edge(u, v)
    return g


@given(graphs())
def test_edges_plus_non_edges_cover_all_pairs(g):
    n_pairs = g.n * (g.n - 1) // 2
    assert len(g.edges()) + len(g.non_edges()) == n_pairs
    assert set(g.edges()).isdisjoint(g.non_edges())


def test_distance_and_diameter_on_known_graphs():
    p = path_graph(5)
    assert bfs_distances(p, 0)[4] == 4
    assert bfs_distances(p, 2)[2] == 0
    assert p.diameter() == 4
    assert complete_graph(6).diameter() == 1
    two = Graph(4, [(0, 1), (2, 3)])
    assert bfs_distances(two, 0)[3] is None
    assert not two.is_connected()
    with pytest.raises(GraphDisconnectedError):
        two.diameter()
    with pytest.raises(GraphDisconnectedError):
        Graph(0).diameter()


# the id names the exit diameter() takes: a dominating node, the four root
# BFS alone, or a BFS from nodes they leave undecided
@pytest.mark.parametrize("g, d", [
    (complete_graph(8), 1),
    (Graph(8, ((0, v) for v in range(1, 8))), 2),
    (path_graph(30), 29),
    (Graph(10, ((v, (v + 1) % 10) for v in range(10))), 5),
    (Graph(8, (e for e in combinations(range(8), 2) if e[1] != e[0] + 1 or e[0] % 2)), 2),
], ids=["complete-dominating", "star-dominating", "path-bounds", "cycle-undecided",
        "cocktail-party-undecided"])
def test_diameter_on_each_path(g, d):
    assert g.diameter() == d == max(max(bfs_distances(g, s)) for s in range(g.n))


def test_single_node_graph():
    g = Graph(1)
    assert g.is_connected()
    assert g.diameter() == 0
    assert g.edges() == []


@given(graphs(min_n=0))
@example(Graph(0))
@example(Graph(1))
@example(Graph(4, [(1, 2)]))
def test_laplacian_structure(g):
    # D - A built entry by entry from the edge list: a misplaced symmetric
    # off-diagonal pair keeps the row sums and the diagonal, but not this
    want = np.zeros((g.n, g.n))
    for u, v in g.edges():
        want[u, v] = want[v, u] = -1.0
    for v in range(g.n):
        want[v, v] = len(g.neighbors(v))
    assert np.array_equal(g.laplacian(), want)


@given(st.one_of(graphs(), long_graphs()))
def test_connected_iff_every_node_is_reached_from_node_0(g):
    assert g.is_connected() == (None not in bfs_distances(g, 0))


@given(graphs(), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_laplacian_positive_semidefinite_quadratic_form(g, seed):
    # x' L x = sum over edges (x_u - x_v)^2 >= 0, checked without any eigensolver
    rng = np.random.default_rng(seed)
    lap = g.laplacian()
    for _ in range(5):
        x = rng.normal(size=g.n)
        assert x @ lap @ x >= -1e-9


@given(st.one_of(graphs(max_n=14), graphs(max_n=14, connected=True), long_graphs()))
@settings(max_examples=120)
def test_diameter_matches_per_source_bfs(g):
    dists = [d for s in range(g.n) for d in bfs_distances(g, s)]
    if None in dists:
        with pytest.raises(GraphDisconnectedError):
            g.diameter()
    else:
        assert g.diameter() == max(dists)


def test_family_diameters_match_per_source_bfs():
    def want(family, k, d):
        if family == "g2bar":
            return 2
        if k == 1:  # one leader leaves the path P_n
            return d - 1
        return 2 * d - 1 if family == "g1" else d  # g1 goes through the leader clique

    builds = 0
    for n in range(1, 41):
        for k in range(1, n + 1):
            for family, d in [("g2bar", None)] + [
                    (f, d) for f in ("g1", "g1bar", "g3bar") for d in range(1, n + 1)]:
                try:
                    net = build(ConstructionSpec(family, n, k, d))
                except InfeasibleSpecError:
                    continue
                builds += 1
                g = net.graph
                assert net.diameter == g.diameter() == want(family, k, d) == max(
                    max(bfs_distances(g, s)) for s in range(n)), (family, n, k, d)
    assert builds > 2000


@given(graphs(connected=True))
@settings(max_examples=30)
def test_distance_triangle_inequality(g):
    if g.n < 3:
        return
    d0 = bfs_distances(g, 0)
    d_last = bfs_distances(g, g.n - 1)
    direct = d0[g.n - 1]
    for w in range(g.n):
        assert direct <= d0[w] + d_last[w]


def test_copy_is_independent():
    g = Graph(3, [(0, 1)])
    h = g.copy()
    h.add_edge(1, 2)
    assert g.edge_count() == 1
    assert h.edge_count() == 2
    assert g != h


@given(graphs())
def test_edge_list_round_trip(g):
    text = to_edge_list_text(g)
    back = from_edge_list_text(text)
    assert back == g
    # serialization is canonical, so a second pass is byte-identical
    assert to_edge_list_text(back) == text


def test_edge_list_reader_without_header():
    g = from_edge_list_text("0 1\n2 1\n")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_edge_list_reader_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 2"):
        from_edge_list_text("0 1\n0 1 2\n")


@pytest.mark.parametrize("text, message", [
    ("0 1\n1 x\n", "line 2: invalid literal for int() with base 10: 'x'"),
    ("0 1\n\n2 2\n", "line 3: self-loop at vertex 2 is not allowed"),
    ("# n=4\n0 1\n1 7\n", "line 3: vertex 7 out of range for graph on 4 nodes"),
    ("# n = 4\n0 1\n1 7\n", "line 3: vertex 7 out of range for graph on 4 nodes"),
    ("# N=4\n0 1\n1 7\n", "line 3: vertex 7 out of range for graph on 4 nodes"),
    ("# n=four\n0 1\n", "line 1: invalid literal for int() with base 10: 'four'"),
    ("# n = 4 5\n0 1\n", "line 1: invalid literal for int() with base 10: ' 4 5'"),
    ("0 1\n-1 2\n", "line 2: vertex -1 out of range for graph on 3 nodes"),
    ("0 1\n# n=-3\n", "line 2: vertex count must be non-negative, got -3"),
    ("# n=4\n# n=6\n0 1\n", "line 2: repeated '# n=' header (first on line 1)"),
    ("# n=4\n# N = 6\n0 1\n", "line 2: repeated '# n=' header (first on line 1)"),
    ("0 1\n1 2\n0 1\n", "line 3: repeated edge 0 1 (first on line 1)"),
    ("# n=5\n3 4\n\n0 1\n4 3\n1 0\n", "line 5: repeated edge 4 3 (first on line 2)"),
], ids=["bad-id", "self-loop", "out-of-range", "out-of-range-spaced-header",
        "out-of-range-capital-header", "bad-header", "bad-spaced-header", "negative-id",
        "negative-header", "repeated-header", "repeated-mixed-header", "repeated-edge",
        "repeated-edge-reversed"])
def test_edge_list_reader_names_the_line_at_fault(text, message):
    with pytest.raises(ValueError) as info:
        from_edge_list_text(text)
    assert str(info.value) == message


def test_export_dot_marks_leaders_and_isolated_nodes():
    g = Graph(3, [(0, 1)])
    text = export_dot(g, LeaderSet((0,)), {0: "L1", 1: "u_1", 2: "u_2"})
    assert "0 -- 1;" in text
    assert 'label="L1"' in text
    assert "filled" in text
    # isolated node 2 still gets its own statement
    assert "\n  2" in text


def test_export_dot_empty_edge_graph():
    text = export_dot(Graph(2))
    assert "0;" in text and "1;" in text
    assert "--" not in text


def test_leader_set_validation():
    leaders = LeaderSet((2, 0, 1))
    assert leaders == (0, 1, 2)  # the sorted tuple it wraps
    assert hash(leaders) == hash((0, 1, 2)) and list(leaders) == [0, 1, 2]
    assert LeaderSet(range(3)) == leaders and LeaderSet([1, 0]) == (0, 1)
    with pytest.raises(ValueError, match=r"^a leader set must contain at least one node$"):
        LeaderSet(())
    with pytest.raises(ValueError, match=r"^duplicate leader ids: \(1, 0, 1\)$"):
        LeaderSet((1, 0, 1))
    with pytest.raises(ValueError, match=r"^negative leader id in \(2, -1\)$"):
        LeaderSet((2, -1))
    with pytest.raises(ValueError, match=r"^leader id 5 out of range for graph on 3 nodes$"):
        LeaderSet((5,)).validate_for(Graph(3))
    assert 1 in LeaderSet((0, 1)) and 2 not in LeaderSet((0, 1))
    assert len(LeaderSet((0, 1))) == 2


def test_helper_constructors():
    assert path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert complete_graph(5).edge_count() == 10

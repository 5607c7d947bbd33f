"""The one forcing engine and the maximality scan against the rescanning oracles."""
from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    cross_path_non_edges,
    g1_feasible,
    g2_feasible,
    g3_diameters,
    grid_points,
    random_graph,
    sweep_spec,
)
from oracles import (
    addable_edges_exhaustive,
    closure_bruteforce,
    derived_set_rescan,
    forcing_candidates,
    is_unique_rescan,
)
from zfnets import constructions as cons
from zfnets import zero_forcing
from zfnets.graph import Graph, LeaderSet
from zfnets.zero_forcing import (
    build_word,
    certify,
    closure,
    derived_set,
    is_maximal_for_zfs,
    is_unique_process,
    word_of,
)


@given(st.integers(0, 2**31 - 1), st.integers(0, 13), st.floats(0.0, 1.0))
@example(seed=0, n=0, p=0.5)
@example(seed=0, n=1, p=0.5)
@settings(max_examples=300, deadline=None)
def test_engine_matches_rescan_oracles(seed, n, p):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    black = {v for v in range(n) if rng.uniform() < rng.uniform()}
    trace = derived_set(g, black)
    reference = derived_set_rescan(g, black)
    assert trace.initial_black == reference.initial_black
    assert trace.steps == reference.steps
    assert trace.derived == reference.derived == closure(g, black)
    assert is_unique_process(g, black) == is_unique_rescan(g, black)


@pytest.mark.parametrize("n", [60, 120])
@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("family", cons.FAMILIES)
def test_construction_traces_match_rescan(family, n, k):
    net = cons.build(sweep_spec(family, n, k))
    leaders = set(net.leaders)
    assert derived_set(net.graph, leaders).steps == derived_set_rescan(net.graph, leaders).steps
    assert is_unique_process(net.graph, leaders) == is_unique_rescan(net.graph, leaders)


@given(st.integers(0, 2**31 - 1), st.integers(1, 9), st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_maximality_violations_match_bruteforce(seed, n, p):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    leaders = {v for v in range(n) if rng.uniform() < 0.3}
    while white := set(range(n)) - closure_bruteforce(g, leaders):
        leaders.add(min(white))
    expected = addable_edges_exhaustive(g, leaders)
    maximal, violations = is_maximal_for_zfs(g, LeaderSet(tuple(leaders)))
    assert violations == expected
    assert maximal == (not expected)


@given(st.integers(0, 2**31 - 1), st.integers(1, 9), st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_certify_matches_the_rescan_oracles(seed, n, p):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    leaders = [int(v) for v in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
    black = set(leaders)
    closed = closure_bruteforce(g, black)
    trace, unique, violations = certify(g, leaders)
    assert trace == derived_set_rescan(g, black) and trace.derived == closed
    assert unique == is_unique_rescan(g, black)
    assert violations == (addable_edges_exhaustive(g, black) if len(closed) == n else None)


@pytest.mark.parametrize("leaders, message", [
    ([0, 2, 0], r"^repeated leader ids in \[0, 2, 0\]$"),
    ([0, 3], r"^leader id 3 out of range for graph on 3 nodes$"),
    ([0, -1], r"^leader id -1 out of range for graph on 3 nodes$"),
])
def test_certify_keeps_each_leader_error(leaders, message):
    with pytest.raises(ValueError, match=message):
        certify(Graph(3, [(0, 1), (1, 2)]), leaders)


def _edge_bound(n: int, k: int) -> int:
    return k * n - k * (k + 1) // 2


def _small_specs() -> list[cons.ConstructionSpec]:
    """Every feasible construction with n <= 24 and at most 6 leaders."""
    specs = []
    for n in range(2, 25):
        for k in range(1, 7):
            for family in cons.FAMILIES:
                ds = g3_diameters(n, k) if family == cons.G3_BAR else [None]
                for d in ds:
                    try:
                        specs.append(cons.ConstructionSpec(family, n, k, d))
                    except cons.InfeasibleSpecError:
                        pass
    return specs


SMALL_SPECS = _small_specs()


@given(st.sampled_from(SMALL_SPECS), st.integers(0, 3), st.integers(0, 2**31 - 1))
@settings(max_examples=120, deadline=None)
def test_maximality_matches_bruteforce_near_the_bound(spec, drops, seed):
    # A relabelled construction sits at the edge bound; deleting up to three
    # edges, each only while the leaders still force, puts it just below.
    rng = np.random.default_rng(seed)
    net = cons.build(spec)
    n = spec.n
    perm = [int(x) for x in rng.permutation(n)]
    g = Graph(n, ((perm[u], perm[v]) for u, v in net.graph.edges()))
    leaders = {perm[v] for v in net.leaders}
    edges = g.edges()
    for idx in rng.permutation(len(edges))[:drops]:
        g.remove_edge(*edges[idx])
        if len(closure_bruteforce(g, leaders)) != n:
            g.add_edge(*edges[idx])
    assert g.edge_count() <= _edge_bound(n, len(leaders))
    expected = addable_edges_exhaustive(g, leaders)
    maximal, violations = is_maximal_for_zfs(g, LeaderSet(tuple(leaders)))
    assert violations == expected
    assert maximal == (not expected)


def consistent_non_edges(g: Graph, leaders: set[int]) -> set[tuple[int, int]]:
    """The non-edges uv with u < v <= t(u), where nodes are numbered in the
    order they turn black (leaders first) and t(u) is the number of the node
    u forces, or n if u never forces."""
    steps = derived_set(g, leaders).steps
    num = {v: i for i, v in enumerate(sorted(leaders) + [z for _, z in steps])}
    t = {v: g.n for v in num}
    t.update((x, num[z]) for x, z in steps)
    out = set()
    for a, b in g.non_edges():
        u, v = sorted((a, b), key=num.get)
        if num[v] <= t[u]:
            out.add((a, b))
    return out


@st.composite
def zfs_graphs(draw):
    """A random graph with added leaders until they force it, or a relabelled
    small construction with up to three edges dropped while the leaders force."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 14))
        g = random_graph(rng, n, draw(st.floats(0.0, 1.0)))
        leaders = {v for v in range(n) if rng.uniform() < 0.3}
        while white := set(range(n)) - closure_bruteforce(g, leaders):
            leaders.add(min(white))
        return g, leaders
    net = cons.build(draw(st.sampled_from(SMALL_SPECS)))
    perm = [int(x) for x in rng.permutation(net.graph.n)]
    g = Graph(net.graph.n, ((perm[u], perm[v]) for u, v in net.graph.edges()))
    leaders = {perm[v] for v in net.leaders}
    edges = g.edges()
    for idx in rng.permutation(len(edges))[:draw(st.integers(0, 3))]:
        g.remove_edge(*edges[idx])
        if len(closure_bruteforce(g, leaders)) != g.n:
            g.add_edge(*edges[idx])
    return g, leaders


@given(zfs_graphs())
@settings(max_examples=200, deadline=None)
def test_consistent_non_edges_are_violations_and_exist_below_the_bound(g_leaders):
    g, leaders = g_leaders
    consistent = consistent_non_edges(g, leaders)
    maximal, violations = is_maximal_for_zfs(g, LeaderSet(tuple(leaders)))
    assert consistent <= set(violations)
    below = g.edge_count() < _edge_bound(g.n, len(leaders))
    assert bool(consistent) == below == (not maximal)


def test_g1_scan_makes_one_forcing_run_and_no_closure(monkeypatch):
    net = cons.build_g1(120, 4, 30)
    runs, closures = [], []
    engine, close = zero_forcing._run, zero_forcing.closure
    monkeypatch.setattr(zero_forcing, "_run", lambda *a: runs.append(a) or engine(*a))
    monkeypatch.setattr(zero_forcing, "closure", lambda *a: closures.append(a) or close(*a))
    maximal, violations = is_maximal_for_zfs(net.graph, net.leaders)
    assert not maximal and len(violations) == 6 * 30 * 30 - 6
    assert len(runs) == 1 and closures == []


@pytest.mark.parametrize("family", [cons.G1, cons.G1_BAR])  # below and at the edge bound
def test_word_of_and_maximality_make_one_forcing_run_each(family, monkeypatch):
    net = cons.build(sweep_spec(family, 24, 3))
    runs = []
    engine = zero_forcing._run
    monkeypatch.setattr(zero_forcing, "_run", lambda *a: runs.append(a) or engine(*a))
    for leaders in (net.leaders, net.leaders[:-1]):  # a ZFS, and none
        word_of(net.graph, leaders)
        assert len(runs) == 1
        runs.clear()
    is_maximal_for_zfs(net.graph, net.leaders)
    assert len(runs) == 1


def test_a_black_node_that_never_forced_grows_the_stalled_set():
    # The record is 0 -> 1, 1 -> 2, 2 -> 4; leader 3 never forces.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    leaders = {0, 3}
    assert derived_set(g, leaders).steps == ((0, 1), (1, 2), (2, 4))
    # Cutting 1-2 loses the forces that need 2 black, dep[2] = {2, 4}; the
    # rest, {0, 1, 3}, is not closed: leader 3 forces 2, and 2 then forces 4.
    h = g.copy()
    h.remove_edge(1, 2)
    assert forcing_candidates(h, {0, 1, 3}) == [(3, 2)]
    assert closure(h, leaders) == frozenset(range(5))
    # Likewise with 0-1 cut, dep[1] = {1, 2, 4} and leader 3 forces 2.
    h = g.copy()
    h.remove_edge(0, 1)
    assert forcing_candidates(h, {0, 3}) == [(3, 2)]
    violations = [(0, 2), (0, 3), (1, 3), (1, 4), (3, 4)]
    assert addable_edges_exhaustive(g, leaders) == violations
    assert is_maximal_for_zfs(g, LeaderSet((0, 3))) == (False, violations)


@given(st.integers(0, 2**31 - 1), st.integers(1, 10), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_zfs_edge_bound(seed, n, p):
    # The bound kn - k(k+1)/2 grows with k < n, so checking a smallest ZFS
    # checks every ZFS of the graph.
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    leaders = next(
        set(s)
        for k in range(1, n + 1)
        for s in combinations(range(n), k)
        if len(closure_bruteforce(g, set(s))) == n
    )
    k = len(leaders)
    assert g.edge_count() <= _edge_bound(n, k)
    # Random graphs stay far below the bound; adding every edge the leaders
    # survive, in random order, nearly always reaches it.
    non_edges = g.non_edges()
    for idx in rng.permutation(len(non_edges)):
        g.add_edge(*non_edges[idx])
        if len(closure_bruteforce(g, leaders)) != n:
            g.remove_edge(*non_edges[idx])
    assert g.edge_count() <= _edge_bound(n, k)
    if g.edge_count() == _edge_bound(n, k):
        # At the bound the graph is its forcing word: the slot, among the
        # chain ends, of each step's forcer.
        trace = derived_set(g, leaders)
        ends = sorted(leaders)
        word = []
        for x, y in trace.steps:
            word.append(ends.index(x))
            ends[word[-1]] = y
        new_id = {v: i for i, v in enumerate(sorted(leaders) + [u for _, u in trace.steps])}
        assert build_word(k, word) == Graph(n, ((new_id[u], new_id[v]) for u, v in g.edges()))


@st.composite
def forcing_words(draw):
    k = draw(st.integers(1, 5))
    return k, draw(st.lists(st.integers(0, k - 1), max_size=30))


@given(forcing_words())
@settings(max_examples=100, deadline=None)
def test_every_forcing_word_builds_a_maximal_zfs_graph(k_word):
    k, word = k_word
    g = build_word(k, word)
    n = g.n
    leaders = LeaderSet(tuple(range(k)))
    assert tuple(u for _, u in derived_set(g, leaders).steps) == tuple(range(k, n))
    assert g.edge_count() == _edge_bound(n, k)
    assert is_maximal_for_zfs(g, leaders) == (True, [])
    if n <= 12:
        assert addable_edges_exhaustive(g, set(leaders)) == []
    if word:
        assert build_word(k, word[:-1] + [0]) == g


def test_constructions_have_no_addable_edge_by_exhaustive_scan():
    # Criterion 2's grid, checked without the edge-bound certificate.
    checked = 0
    for n, k in grid_points(24):
        nets = []
        if g1_feasible(n, k):
            nets.append(cons.build_g1_bar(n, k, n // k))
        if g2_feasible(n, k):
            nets.append(cons.build_g2_bar(n, k))
        for d in g3_diameters(n, k):
            nets.append(cons.build_g3_bar(n, k, d))
        for net in nets:
            assert addable_edges_exhaustive(net.graph, set(net.leaders)) == [], net.spec
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("k, d", [(1, 8), (2, 6), (3, 8), (4, 6), (5, 8), (4, 15), (5, 12)])
def test_g1_violations_join_different_leader_paths(k, d):
    net = cons.build_g1(k * d, k, d)
    expected = cross_path_non_edges(net.graph, net.leaders)
    maximal, violations = is_maximal_for_zfs(net.graph, net.leaders)
    assert violations == addable_edges_exhaustive(net.graph, set(net.leaders)) == expected
    assert maximal == (k == 1)
    # the pairs inside one leader's path are the non-edges left over
    assert len(net.graph.non_edges()) - len(violations) == k * comb(d - 1, 2)

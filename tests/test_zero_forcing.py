"""Zero forcing: candidates, closure, traces, uniqueness, maximality."""
from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, cross_path_non_edges, path_graph, random_graph, sweep_spec
from oracles import closure_bruteforce, forcing_candidates
from zfnets import constructions as cons
from zfnets import zero_forcing
from zfnets.constructions import build_g1, build_g1_bar, build_g2_bar, build_g3_bar
from zfnets.graph import Graph, LeaderSet
from zfnets.zero_forcing import (
    ForcingTrace,
    build_word,
    closure,
    derived_set,
    is_maximal_for_zfs,
    is_unique_process,
    is_zfs,
    validate_trace,
    word_of,
)


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_forcing_candidates_basics():
    assert forcing_candidates(path_graph(3), {0}) == [(0, 1)]
    assert forcing_candidates(complete_graph(3), {0}) == []
    assert forcing_candidates(star(3), {0}) == []


def test_forcing_candidates_sorted_by_forcer():
    # both ends of a path can force; order must be ascending forcer id
    g = path_graph(5)
    assert forcing_candidates(g, {0, 4}) == [(0, 1), (4, 3)]


def test_forcing_candidates_rejects_bad_ids():
    with pytest.raises(ValueError):
        forcing_candidates(path_graph(3), {7})


def test_derived_set_on_known_graphs():
    assert derived_set(path_graph(3), {0}).steps == ((0, 1), (1, 2))
    assert derived_set(path_graph(4), {0}).derived == frozenset(range(4))
    assert derived_set(complete_graph(3), {0}).derived == frozenset({0})
    assert derived_set(complete_graph(3), {0, 1}).derived == frozenset(range(3))


def test_derived_set_trace_replays():
    g = build_g1_bar(12, 3, 4).graph
    trace = derived_set(g, {0, 1, 2})
    validate_trace(g, trace)
    assert trace.initial_black == frozenset({0, 1, 2})
    assert {u for _, u in trace.steps} | trace.initial_black == trace.derived
    assert trace == (trace.initial_black, trace.steps, trace.derived)


def test_validate_trace_rejects_corruption():
    g = path_graph(3)
    good = derived_set(g, {0})
    bad = ForcingTrace(good.initial_black, ((1, 2),) + good.steps[1:], good.derived)
    with pytest.raises(ValueError, match="^step 0: forcer 1 is not black$"):
        validate_trace(g, bad)
    twice = ForcingTrace(frozenset({0, 1}), ((0, 1),), good.derived)
    with pytest.raises(ValueError, match="^step 0: node 1 is already black$"):
        validate_trace(g, twice)
    middle = ForcingTrace(frozenset({1}), ((1, 0),), good.derived)
    with pytest.raises(ValueError, match=r"^step 0: 1 cannot force 0 \(white neighbors \[0, 2\]\)$"):
        validate_trace(g, middle)
    short = ForcingTrace(good.initial_black, good.steps[:1], good.derived)
    with pytest.raises(ValueError, match="derived"):
        validate_trace(g, short)


@given(st.integers(0, 2**31 - 1), st.integers(2, 12), st.floats(0.1, 0.9))
@settings(max_examples=60, deadline=None)
def test_closure_matches_bruteforce_and_trace(seed, n, p):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    picks = rng.integers(0, 2, size=n).astype(bool)
    black = {v for v in range(n) if picks[v]}
    fast = closure(g, black)
    assert fast == closure_bruteforce(g, black)
    assert fast == derived_set(g, black).derived


@given(st.integers(0, 2**31 - 1), st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_closure_monotone_in_initial_set(seed, n):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, 0.4)
    small = {v for v in range(n) if rng.uniform() < 0.3}
    extra = {v for v in range(n) if rng.uniform() < 0.3}
    assert closure(g, small) <= closure(g, small | extra)


def test_is_zfs_basics():
    for n in (2, 3, 6):
        assert is_zfs(path_graph(n), LeaderSet((0,)))
    assert not is_zfs(complete_graph(3), LeaderSet((0,)))
    net = build_g1_bar(12, 3, 4)
    assert is_zfs(net.graph, net.leaders)


def test_g2_forcing_order_is_the_follower_chain():
    # the follower path must turn black strictly in chain order
    net = build_g2_bar(12, 3)
    trace = derived_set(net.graph, net.leaders)
    assert tuple(u for _, u in trace.steps) == tuple(range(3, 12))


def test_unique_process_cases():
    assert is_unique_process(path_graph(2), {0})
    net = build_g2_bar(8, 2)
    assert is_unique_process(net.graph, net.leaders)
    # both ends of P3 can force, but only node 1 can *be* forced: one move
    assert is_unique_process(path_graph(3), {0, 2})
    # P5 from both ends: nodes 1 and 3 are forceable at once -> not unique
    assert not is_unique_process(path_graph(5), {0, 4})


def test_unique_process_on_constructions():
    for net in (build_g1_bar(12, 3, 4), build_g3_bar(12, 3, 3)):
        assert is_unique_process(net.graph, net.leaders)


def test_maximality_of_p3_with_end_leader():
    # the only non-edge (0,2) would give the leader two white neighbors
    maximal, violations = is_maximal_for_zfs(path_graph(3), LeaderSet((0,)))
    assert maximal and violations == []


def test_maximality_of_constructions():
    for net in (build_g1_bar(12, 3, 4), build_g2_bar(10, 2)):
        maximal, violations = is_maximal_for_zfs(net.graph, net.leaders)
        assert maximal and violations == []


def test_maximality_reports_violations():
    # dropping one fan-out edge leaves room to put it back
    net = build_g2_bar(5, 2)
    g = net.graph.copy()
    g.remove_edge(1, 3)
    assert is_zfs(g, net.leaders)
    maximal, violations = is_maximal_for_zfs(g, net.leaders)
    assert not maximal
    assert (1, 3) in violations


def test_maximality_requires_zfs_precondition():
    with pytest.raises(ValueError, match="not a zero forcing set"):
        is_maximal_for_zfs(complete_graph(3), LeaderSet((0,)))


def test_maximality_does_not_mutate_graph():
    net = build_g1(8, 2, 4)
    before = net.graph.edges()
    is_maximal_for_zfs(net.graph, net.leaders)
    assert net.graph.edges() == before


def test_g1_at_n240_violations_are_the_cross_path_pairs():
    net = build_g1(240, 4, 60)
    maximal, violations = is_maximal_for_zfs(net.graph, net.leaders)
    assert not maximal
    assert violations == cross_path_non_edges(net.graph, net.leaders)
    assert len(violations) == 6 * 60 * 60 - 6  # leader clique edges are not non-edges


@pytest.mark.parametrize("family", [cons.G1_BAR, cons.G2_BAR, cons.G3_BAR])
def test_constructions_at_n240_are_maximal_within_0_1_s(family, monkeypatch):
    net = cons.build(sweep_spec(family, 240, 4))
    runs = []
    engine = zero_forcing._run
    monkeypatch.setattr(zero_forcing, "_run", lambda *a: runs.append(a) or engine(*a))
    start = time.perf_counter()
    result = is_maximal_for_zfs(net.graph, net.leaders)
    elapsed = time.perf_counter() - start
    assert result == (True, [])
    assert elapsed < 0.1
    assert len(runs) == 1  # the edge bound answers after the forcing run of g


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_derived_set_order_independent(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(3, 11)), 0.4)
    black = {v for v in range(g.n) if rng.uniform() < 0.4}
    reference = closure(g, black)
    for _ in range(20):
        current = set(black)
        while True:
            cands = forcing_candidates(g, current)
            if not cands:
                break
            v, u = cands[int(rng.integers(len(cands)))]
            current.add(u)
        assert frozenset(current) == reference


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_word_of_reads_back_a_relabelled_word(data):
    k = data.draw(st.integers(1, 6))
    word = data.draw(st.lists(st.integers(0, k - 1), max_size=40))
    n = k + len(word)
    perm = data.draw(st.permutations(range(n)))
    g = Graph(n, [(perm[u], perm[v]) for u, v in build_word(k, word).edges()])
    # the last symbol never changes the graph, so word_of reads it as 0
    assert word_of(g, [perm[i] for i in range(k)]) == (word[:-1] + [0] if word else [])


def documented_word(family: str, n: int, k: int, d: int) -> list[int]:
    """A bar family's word as the constructions docstring and the README give it."""
    if family == cons.G1_BAR or (family == cons.G3_BAR and d > 2 and k * d == n):
        return list(range(k)) * (d - 1)
    return list(range(k)) * (d - 2) + [0] * (n - k * (d - 1))  # g2bar is g3bar at d = 2


def test_word_of_every_family_build_is_its_documented_word():
    checked = 0
    for n in range(1, 25):
        for k in range(1, n + 1):
            for family in cons.FAMILIES:
                for d in [None] if family == cons.G2_BAR else range(1, n + 1):
                    try:
                        net = cons.build(cons.ConstructionSpec(family, n, k, d))
                    except cons.InfeasibleSpecError:
                        continue
                    checked += 1
                    if family == cons.G1:  # below the edge bound unless it is g1bar
                        expected = documented_word(cons.G1_BAR, n, k, d) if 1 in (k, d) else None
                    else:
                        expected = documented_word(family, n, k, net.spec.d)
                    if expected:
                        expected[-1] = 0
                    assert word_of(net.graph, net.leaders) == expected, (family, n, k, d)
                    assert net.word == (None if family == cons.G1 else expected), (family, n, k, d)
    assert checked == 727


def test_word_of_needs_forcing_leaders_at_the_edge_bound():
    g = build_g1_bar(12, 3, 4).graph
    assert word_of(g, [2, 1, 0]) == [2, 1, 0] * 3  # leader leaders[i] is slot i
    assert word_of(build_g1(12, 3, 4).graph, [0, 1, 2]) is None  # forces, below the bound
    assert word_of(g, [0, 1, 5]) is None  # not a ZFS
    assert word_of(g, [0, 1]) is None
    with pytest.raises(ValueError, match="repeated leader ids"):
        word_of(g, [0, 0, 1])
    with pytest.raises(ValueError, match="out of range"):
        word_of(g, [0, 1, 12])

"""The one forcing engine against the rescanning oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_graph
from oracles import closure_bruteforce, derived_set_rescan, is_unique_rescan
from zfnets import constructions as cons
from zfnets.graph import LeaderSet
from zfnets.zero_forcing import closure, derived_set, is_maximal_for_zfs, is_unique_process


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
    net = cons.build(cons.ConstructionSpec(family, n, k, cons.default_d(family, n, k)))
    leaders = set(net.leaders)
    assert derived_set(net.graph, leaders).to_text() == derived_set_rescan(net.graph, leaders).to_text()
    assert is_unique_process(net.graph, leaders) == is_unique_rescan(net.graph, leaders)


@given(st.integers(0, 2**31 - 1), st.integers(1, 9), st.floats(0.0, 1.0))
@settings(max_examples=80, deadline=None)
def test_maximality_violations_match_bruteforce(seed, n, p):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    leaders = {v for v in range(n) if rng.uniform() < 0.3}
    while white := set(range(n)) - closure_bruteforce(g, leaders):
        leaders.add(min(white))
    expected = []
    for u, v in g.non_edges():
        h = g.copy()
        h.add_edge(u, v)
        if len(closure_bruteforce(h, leaders)) == n:
            expected.append((u, v))
    maximal, violations = is_maximal_for_zfs(g, LeaderSet(tuple(leaders)))
    assert violations == expected
    assert maximal == (not expected)

"""Randomized structural controllability checks against an exact rank oracle."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from oracles import kalman_rank_exact
from zfnets.constructions import FAMILIES, ConstructionSpec, build, build_g1_bar, build_g2_bar, default_d
from zfnets.graph import Graph, LeaderSet, complete_graph, path_graph
from zfnets.ssc import (
    MAX_N,
    MAX_WEIGHT,
    SSCReport,
    SystemRealization,
    controllability_report,
    is_controllable_pair,
    randomized_ssc_check,
    sample_realization,
)


def test_sample_realization_structure():
    g = path_graph(2)
    real = sample_realization(g, LeaderSet((0,)), seed=11)
    m = real.m_matrix
    assert m.shape == (2, 2)
    assert m[0, 1] == pytest.approx(m[1, 0])  # symmetric off-diagonals
    assert m.dtype == np.int64
    assert 1 <= abs(m[0, 1]) <= MAX_WEIGHT
    assert -MAX_WEIGHT <= m[0, 0] <= MAX_WEIGHT and -MAX_WEIGHT <= m[1, 1] <= MAX_WEIGHT
    assert real.b_matrix.tolist() == [[1.0], [0.0]]


def test_sample_realization_respects_sparsity():
    g = Graph(4, [(0, 1), (2, 3)])
    real = sample_realization(g, LeaderSet((0, 2)), seed=3)
    m = real.m_matrix
    for u in range(4):
        for v in range(u + 1, 4):
            if g.has_edge(u, v):
                assert m[u, v] != 0.0
            else:
                assert m[u, v] == 0.0
    assert real.b_matrix.shape == (4, 2)
    assert real.b_matrix[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert real.b_matrix[:, 1].tolist() == [0.0, 0.0, 1.0, 0.0]


def test_sample_realization_deterministic_per_seed():
    g = complete_graph(4)
    a = sample_realization(g, LeaderSet((0,)), seed=55)
    b = sample_realization(g, LeaderSet((0,)), seed=55)
    c = sample_realization(g, LeaderSet((0,)), seed=56)
    assert np.array_equal(a.m_matrix, b.m_matrix)
    assert not np.array_equal(a.m_matrix, c.m_matrix)


def test_edgeless_graph_realization_is_diagonal():
    g = Graph(3)
    real = sample_realization(g, LeaderSet((1,)), seed=9)
    off = real.m_matrix - np.diag(np.diag(real.m_matrix))
    assert np.all(off == 0.0)


def test_path_with_end_leader_is_controllable():
    g = path_graph(3)
    real = sample_realization(g, LeaderSet((0,)), seed=2)
    rank, verdict = controllability_report(real)
    assert rank == 3 and verdict == "controllable"
    assert is_controllable_pair(real)


def test_symmetric_weights_defeat_single_leader_on_k3():
    # hand-built realization: equal couplings make two followers indistinguishable
    n = 3
    m = np.array([[2, 1, 1], [1, -4, 1], [1, 1, -4]])
    b = np.array([[1], [0], [0]])
    real = SystemRealization(m_matrix=m, b_matrix=b, seed=0)
    rank, verdict = controllability_report(real)
    assert rank < n and verdict == "uncontrollable"
    assert not is_controllable_pair(real)


def test_all_leaders_always_controllable():
    g = complete_graph(5)
    real = sample_realization(g, LeaderSet(tuple(range(5))), seed=1)
    rank, verdict = controllability_report(real)
    assert rank == 5 and verdict == "controllable"


@given(st.integers(0, 2**31 - 1), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_verdict_agrees_with_exact_rank_oracle(seed, n):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 3)))
    leaders = LeaderSet(tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())))
    real = sample_realization(g, leaders, seed=seed)
    rank, verdict = controllability_report(real)
    exact = kalman_rank_exact(real.m_matrix, real.b_matrix)
    assert (verdict == "controllable") == (exact == n)
    assert rank == exact


def test_randomized_check_on_constructions():
    for net in (build_g2_bar(10, 2), build_g1_bar(8, 2, 4)):
        report = randomized_ssc_check(net.graph, net.leaders, trials=50, seed=17)
        assert report.pass_count == 50
        assert report.fail_count == 0 and report.indeterminate_count == 0


def test_randomized_check_flags_deficient_leaderings():
    # a single leader on K3 cannot force the other two symmetric nodes,
    # but random weights still make almost every realization controllable
    report = randomized_ssc_check(complete_graph(3), LeaderSet((0,)), trials=20, seed=5)
    assert report.pass_count + report.fail_count + report.indeterminate_count == 20


def test_report_is_deterministic_and_serializable():
    g = build_g2_bar(8, 2).graph
    leaders = LeaderSet((0, 1))
    a = randomized_ssc_check(g, leaders, trials=10, seed=42)
    b = randomized_ssc_check(g, leaders, trials=10, seed=42)
    assert a.records == b.records
    assert isinstance(a, SSCReport)
    assert a.n == 8 and a.n_leaders == 2 and a.trials == 10
    summary = a.summary()
    assert "10" in summary and "controllable" in summary
    csv_text = a.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "trial,seed,rank,verdict"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] in ("controllable", "uncontrollable", "indeterminate")


def test_trial_count_validation():
    g = path_graph(2)
    with pytest.raises(ValueError):
        randomized_ssc_check(g, LeaderSet((0,)), trials=0, seed=1)


@given(st.integers(0, 2**31 - 1), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_rank_is_exact_where_small_weights_lose_rank(seed, n):
    # weights in [-2, 2] on a general (not symmetric) M often lose rank
    rng = np.random.default_rng(seed)
    m = rng.integers(-2, 3, size=(n, n))
    b = rng.integers(-1, 2, size=(n, int(rng.integers(1, 3))))
    rank, verdict = controllability_report(SystemRealization(m, b, seed))
    exact = kalman_rank_exact(m, b)
    assert rank == exact and (verdict == "controllable") == (exact == n)


def test_zfs_constructions_are_certified_at_large_n():
    # the float rank called nearly every one of these trials uncontrollable
    specs = [ConstructionSpec(f, n, 4, default_d(f, n, 4)) for f in FAMILIES for n in (60, 120)]
    specs.append(ConstructionSpec("g1bar", 240, 4, 60))
    for spec in specs:
        net = build(spec)
        report = randomized_ssc_check(net.graph, net.leaders, trials=5, seed=spec.n)
        assert report.pass_count == report.trials, (spec, report.summary())


def test_size_and_dtype_limits():
    with pytest.raises(ValueError, match=str(MAX_N)):
        sample_realization(Graph(MAX_N + 1), LeaderSet((0,)), seed=0)
    too_big = np.broadcast_to(np.int64(0), (MAX_N + 1, MAX_N + 1))
    with pytest.raises(ValueError, match=str(MAX_N)):
        controllability_report(SystemRealization(too_big, too_big[:, :1], seed=0))
    floats = SystemRealization(np.eye(2), np.ones((2, 1)), seed=0)
    with pytest.raises(ValueError, match="integer"):
        controllability_report(floats)

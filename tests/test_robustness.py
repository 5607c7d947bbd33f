"""Laplacian spectra: LAPACK vs the Jacobi and bisection oracles, reports, sweeps."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, path_graph, random_connected_graph, random_graph
from oracles import JacobiNonConvergence, bisection_eigenvalues, jacobi_eigenvalues
from zfnets.constructions import build_g1_bar, build_g2_bar, default_g3_diameter
from zfnets.graph import Graph, NonConvergenceError
from zfnets.robustness import (
    CSV_HEADER,
    SweepRow,
    spectrum,
    sweep,
    sweep_csv,
)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    return (a + a.T) / 2.0


@given(symmetric_matrices())
@settings(max_examples=60, deadline=None)
def test_jacobi_matches_bisection_oracle(a):
    ours = jacobi_eigenvalues(a)
    ref = bisection_eigenvalues(a, tol=1e-10)
    scale = max(1.0, float(np.abs(a).max()))
    assert np.allclose(ours, ref, atol=1e-8 * scale)


def test_jacobi_known_spectra():
    lap = complete_graph(3).laplacian()
    assert np.allclose(jacobi_eigenvalues(lap), [0.0, 3.0, 3.0], atol=1e-10)
    lap = path_graph(3).laplacian()
    assert np.allclose(jacobi_eigenvalues(lap), [0.0, 1.0, 3.0], atol=1e-10)
    lap = path_graph(4).laplacian()
    expect = [0.0, 2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    assert np.allclose(jacobi_eigenvalues(lap), expect, atol=1e-10)
    lap = complete_graph(6).laplacian()
    assert np.allclose(jacobi_eigenvalues(lap), [0.0] + [6.0] * 5, atol=1e-10)


def test_jacobi_input_validation():
    with pytest.raises(ValueError, match="square"):
        jacobi_eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [5.0, 0.0]]))
    assert jacobi_eigenvalues(np.array([[4.0]])) == pytest.approx([4.0])


def test_jacobi_reports_nonconvergence():
    a = path_graph(5).laplacian()
    with pytest.raises(JacobiNonConvergence) as exc:
        jacobi_eigenvalues(a, max_sweeps=0)
    err = exc.value
    assert err.sweeps == 0 and err.off_norm > err.target > 0


@given(st.integers(0, 2**31 - 1), st.integers(2, 14))
@settings(max_examples=40, deadline=None)
def test_jacobi_preserves_trace_on_laplacians(seed, n):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, 0.5)
    ev = jacobi_eigenvalues(g.laplacian())
    assert sum(ev) == pytest.approx(2.0 * g.edge_count(), abs=1e-8)
    assert ev[0] == pytest.approx(0.0, abs=1e-8)
    assert all(ev[i] <= ev[i + 1] + 1e-12 for i in range(n - 1))


@given(st.integers(0, 2**31 - 1), st.integers(1, 14), st.sampled_from([0.0, 0.15, 0.4, 0.8]))
@settings(max_examples=60, deadline=None)
def test_spectrum_matches_both_oracles(seed, n, p):
    # Low edge probabilities make most of these graphs disconnected.
    g = random_graph(np.random.default_rng(seed), n, p)
    lap = g.laplacian()
    ours = np.array(spectrum(g).eigenvalues)
    scale = max(1.0, float(np.abs(lap).max()))
    assert np.allclose(ours, jacobi_eigenvalues(lap), atol=1e-8 * scale)
    assert np.allclose(ours, bisection_eigenvalues(lap, tol=1e-10), atol=1e-8 * scale)


def test_spectrum_on_known_graphs():
    rep = spectrum(complete_graph(3))
    assert rep.lambda2 == pytest.approx(3.0, abs=1e-10)
    assert rep.kirchhoff == pytest.approx(2.0, abs=1e-10)
    rep = spectrum(path_graph(3))
    assert rep.lambda2 == pytest.approx(1.0, abs=1e-10)
    assert rep.kirchhoff == pytest.approx(4.0, abs=1e-10)
    rep = spectrum(complete_graph(8))
    # K_n: lambda2 = n, Kf = n - 1
    assert rep.lambda2 == pytest.approx(8.0, abs=1e-9)
    assert rep.kirchhoff == pytest.approx(7.0, abs=1e-9)


def test_spectrum_report_fields():
    g = path_graph(4)
    rep = spectrum(g)
    assert rep.n == 4 and len(rep.eigenvalues) == 4
    assert rep.lambda2 == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-10)
    # P_n: Kf = n(n^2 - 1)/6
    assert rep.kirchhoff == pytest.approx(10.0, abs=1e-9)


def test_spectrum_edge_cases():
    single = spectrum(Graph(1))
    assert single.lambda2 == math.inf and single.kirchhoff == 0.0
    two_parts = Graph(4, [(0, 1), (2, 3)])
    rep = spectrum(two_parts)
    assert rep.lambda2 == 0.0
    assert rep.kirchhoff == math.inf
    empty = spectrum(Graph(3))
    assert empty.lambda2 == 0.0 and empty.kirchhoff == math.inf
    # LAPACK can put a split graph's second eigenvalue a hair above zero
    split = spectrum(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]))
    assert split.lambda2 == 0.0 and split.kirchhoff == math.inf


def test_spectrum_solver_failure_raises_nonconvergence(monkeypatch):
    def fail(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NonConvergenceError) as info:
        spectrum(path_graph(4))
    assert str(info.value) == "Laplacian eigensolver failed: Eigenvalues did not converge"


@pytest.mark.parametrize("n, k", [(12, 2), (12, 3), (60, 4), (120, 8), (240, 4), (240, 6)])
def test_g2bar_spectrum_matches_the_join_formula(n, k):
    # g2bar is the join K_{k-1} v P_{n-k+1}: each path eigenvalue but 0 rises
    # by k - 1, and the join adds n with multiplicity k - 1
    m = n - k + 1
    want = sorted([0.0] + [float(n)] * (k - 1)
                  + [k + 1 - 2 * math.cos(math.pi * j / m) for j in range(1, m)])
    rep = spectrum(build_g2_bar(n, k).graph)
    assert np.allclose(rep.eigenvalues, want, rtol=0.0, atol=1e-9)
    assert rep.lambda2 == pytest.approx(want[1], rel=0.0, abs=1e-9)
    assert rep.kirchhoff == pytest.approx(n * sum(1.0 / x for x in want[1:]), rel=1e-9)


@given(st.integers(0, 2**31 - 1), st.integers(1, 14), st.sampled_from([0.1, 0.2, 0.3, 0.5]))
@settings(max_examples=150, deadline=None)
def test_lambda2_is_positive_iff_connected(seed, n, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    assert (spectrum(g).lambda2 > 0) == g.is_connected()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_adding_edges_helps_connectivity_and_kirchhoff(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, int(rng.integers(4, 10)), extra_edges=2)
    non = g.non_edges()
    if not non:
        return
    u, v = non[int(rng.integers(len(non)))]
    before = spectrum(g)
    g2 = g.copy()
    g2.add_edge(u, v)
    after = spectrum(g2)
    assert after.lambda2 >= before.lambda2 - 1e-9
    assert after.kirchhoff <= before.kirchhoff + 1e-9


def test_default_g3_diameter_values():
    # ceil((2k + n) / 2k), clamped to [2, n // k]
    assert default_g3_diameter(60, 2) == 16
    assert default_g3_diameter(60, 3) == 11
    assert default_g3_diameter(60, 4) == 9
    assert default_g3_diameter(60, 5) == 7
    assert default_g3_diameter(60, 7) == 6
    assert default_g3_diameter(60, 10) == 4
    assert default_g3_diameter(12, 6) == 2  # clamp at the lower end
    assert default_g3_diameter(12, 5) == 2


def test_sweep_rows_and_notes():
    rows, notes = sweep(12, leader_values=[2, 3, 5])
    # 5 does not divide 12: the divisor-constrained family drops out
    families = {(r.family, r.n_leaders) for r in rows}
    assert ("g1bar", 2) in families and ("g1bar", 3) in families
    assert ("g1bar", 5) not in families
    assert ("g2bar", 5) in families and ("g3bar", 5) in families
    assert any("g1bar" in note and "5" in note for note in notes)
    # no leaders: every family is skipped with a note instead of crashing
    rows0, notes0 = sweep(12, leader_values=[0])
    assert rows0 == [] and len(notes0) == 3
    for row in rows:
        assert row.n == 12
        assert row.lambda2 > 0
        assert row.kirchhoff > 0


@pytest.mark.parametrize("g3_d", [None, 3])
def test_sweep_notes_a_zero_leader_count_without_dividing_by_it(g3_d):
    # the g3bar midpoint divides by 2k, so it is not asked for at k = 0
    rows, notes = sweep(12, leader_values=[0, 3], g3_d=g3_d)
    assert notes == [f"skip family={family} n=12 nl=0: need at least one leader, got n_leaders=0"
                     for family in ("g1bar", "g2bar", "g3bar")]
    assert [(r.family, r.n_leaders, r.d) for r in rows] == [
        ("g1bar", 3, 4), ("g2bar", 3, 2), ("g3bar", 3, 3)]


def test_sweep_runs_each_family_once_in_first_order():
    # one-shot iterators, so every leader count must see every family
    rows, _ = sweep(12, families=iter(["g3bar", "g1bar", "g1_bar", "G3-BAR", "G1BAR"]),
                    leader_values=iter([2, 3, 2]))
    assert [(r.family, r.n_leaders) for r in rows] == [
        ("g3bar", 2), ("g1bar", 2), ("g3bar", 3), ("g1bar", 3)]


def test_sweep_measures_each_row_diameter_once(monkeypatch):
    calls = []
    diameter = Graph.diameter
    monkeypatch.setattr(Graph, "diameter", lambda g: calls.append(g.n) or diameter(g))
    rows, _ = sweep(60)
    assert len(rows) == len(calls) == 24


def test_sweep_rows_match_direct_measurement():
    rows, _ = sweep(12, families=["g1bar", "g2bar"], leader_values=[3])
    by_family = {r.family: r for r in rows}
    g1 = by_family["g1bar"]
    net = build_g1_bar(12, 3, 4)
    rep = spectrum(net.graph)
    assert g1.edges == 30 and g1.d == 4
    assert g1.lambda2 == pytest.approx(rep.lambda2, rel=1e-12)
    assert g1.kirchhoff == pytest.approx(rep.kirchhoff, rel=1e-12)
    g2 = by_family["g2bar"]
    rep2 = spectrum(build_g2_bar(12, 3).graph)
    assert g2.edges == 30 and g2.d == 2
    assert g2.lambda2 == pytest.approx(rep2.lambda2, rel=1e-12)


def test_sweep_csv_round_trip():
    rows, _ = sweep(12, leader_values=[2, 3])
    text = sweep_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER == "family,N,NL,D,edges,lambda2,kirchhoff"
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[0] == row.family
        assert int(cells[1]) == row.n and int(cells[2]) == row.n_leaders
        assert int(cells[3]) == row.d and int(cells[4]) == row.edges
        assert float(cells[5]) == pytest.approx(row.lambda2, rel=1e-6)
        assert float(cells[6]) == pytest.approx(row.kirchhoff, rel=1e-6)


def test_sweep_row_is_plain_data():
    row = SweepRow("g2bar", 12, 3, 2, 30, 1.5, 40.0)
    assert row.family == "g2bar" and row.edges == 30


@pytest.mark.parametrize("n", [120, 240])
def test_robustness_orderings_at_larger_n(n):
    rows, _ = sweep(n)  # leaders 2-10 at the default diameters
    lam = {(r.family, r.n_leaders): r.lambda2 for r in rows}
    kf = {(r.family, r.n_leaders): r.kirchhoff for r in rows}
    assert {k for f, k in lam if f == "g1bar"} == {k for k in range(2, 11) if n % k == 0}
    margin = 1e-8
    for k in range(2, 11):
        assert lam["g3bar", k] <= lam["g2bar", k] + margin, k
        if ("g1bar", k) in lam:
            assert lam["g1bar", k] <= lam["g3bar", k] + margin, k
            assert lam["g2bar", k] - lam["g1bar", k] > margin, k
    for k in (2, 3):
        assert kf["g2bar", k] < kf["g1bar", k], k

"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Each test prints "[acceptance] criterion N (name): PASS|FAIL" past pytest's
capture (via capsys.disabled) and enforces its runtime cap where one is
stated.  Next to criterion 8, whose sampled trials pass on any connected
graph, two witness checks can fail both ways: a leader set that certify
calls a ZFS is controllable, and one it calls no ZFS has an uncontrollable
realization.
"""
from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    complete_graph,
    g1_feasible,
    g2_feasible,
    g3_diameters,
    grid_points,
    path_graph,
    random_connected_graph,
    random_graph,
)
from oracles import (
    assert_leader_subsets_have_witnesses,
    edge_terms_g1,
    edge_terms_g2,
    forcing_candidates,
    kalman_rank_exact,
    uncontrollable_witness,
)
from zfnets.constructions import (
    build,
    build_g1,
    build_g1_bar,
    build_g2_bar,
    build_g3_bar,
    ConstructionSpec,
    default_g3_diameter,
)
from zfnets.graph import from_edge_list_text, to_edge_list_text
from zfnets.grammar import (
    PI2,
    grammar_r1,
    grammar_r2,
    initial_state,
    label_isomorphic,
    replay,
    run_to_fixpoint,
)
from zfnets.robustness import spectrum
from zfnets.ssc import randomized_ssc_check
from zfnets.zero_forcing import (
    certify,
    closure,
    derived_set,
    expected_edges,
    is_maximal_for_zfs,
    is_zfs,
    validate_trace,
)

MARGIN = 1e-8


@contextmanager
def criterion(num: int, name: str, capsys, max_seconds: float | None = None):
    def announce(verdict: str) -> None:
        with capsys.disabled():
            print(f"\n[acceptance] criterion {num} ({name}): {verdict}", flush=True)

    start = time.perf_counter()
    try:
        yield
    except BaseException:
        announce("FAIL")
        raise
    elapsed = time.perf_counter() - start
    if max_seconds is not None and elapsed > max_seconds:
        announce(f"FAIL (took {elapsed:.1f}s, cap {max_seconds:.0f}s)")
        pytest.fail(f"criterion {num} exceeded runtime cap: "
                    f"{elapsed:.1f}s > {max_seconds:.0f}s")
    announce(f"PASS ({elapsed:.1f}s)")


def test_criterion_1_edge_count_formulas(capsys):
    with criterion(1, "edge-count formulas", capsys, max_seconds=5.0):
        for n, k in grid_points(60):
            target = expected_edges(n, k)
            if g1_feasible(n, k):
                d = n // k
                assert build_g1_bar(n, k, d).graph.edge_count() == target
                assert sum(edge_terms_g1(k, d)) == target
            if g2_feasible(n, k):
                assert build_g2_bar(n, k).graph.edge_count() == target
                assert sum(edge_terms_g2(n, k)) == target


def test_criterion_2_zfs_and_maximality(capsys):
    with criterion(2, "ZFS and maximality", capsys, max_seconds=60.0):
        checked = 0
        for n, k in grid_points(24):
            nets = []
            if g1_feasible(n, k):
                nets.append(build_g1_bar(n, k, n // k))
            if g2_feasible(n, k):
                nets.append(build_g2_bar(n, k))
            for d in g3_diameters(n, k):
                nets.append(build_g3_bar(n, k, d))
            for net in nets:
                assert is_zfs(net.graph, net.leaders), net.spec
                maximal, violations = is_maximal_for_zfs(net.graph, net.leaders)
                assert maximal and not violations, (net.spec, violations)
                checked += 1
        assert checked > 50  # the grid is genuinely exercised


def test_criterion_3_diameter_contracts(capsys):
    with criterion(3, "diameter contracts", capsys):
        for n, k in grid_points(60):
            if g2_feasible(n, k):
                assert build_g2_bar(n, k).graph.diameter() == 2
            for d in g3_diameters(n, k):
                net = build_g3_bar(n, k, d)
                assert net.graph.diameter() == d, (n, k, d)
                if d == 2:
                    assert net.graph == build_g2_bar(n, k).graph
                if d > 2 and k * d == n:
                    assert net.graph == build_g1_bar(n, k, d).graph


def test_criterion_4_edge_invariance_over_diameter(capsys):
    with criterion(4, "edge invariance across diameters", capsys):
        for d in g3_diameters(12, 3):
            assert build_g3_bar(12, 3, d).graph.edge_count() == 30
        assert list(g3_diameters(12, 3)) == [2, 3, 4]


def test_criterion_5_robustness_orderings(capsys):
    with criterion(5, "robustness orderings at N=60", capsys, max_seconds=30.0):
        n = 60
        lam = {}
        kf = {}
        for k in range(2, 11):
            reports = {}
            if n % k == 0:
                reports["g1bar"] = spectrum(build_g1_bar(n, k, n // k).graph)
            reports["g2bar"] = spectrum(build_g2_bar(n, k).graph)
            d3 = default_g3_diameter(n, k)
            reports["g3bar"] = spectrum(build_g3_bar(n, k, d3).graph)
            lam[k] = {f: r.lambda2 for f, r in reports.items()}
            kf[k] = {f: r.kirchhoff for f, r in reports.items()}
        for k in range(2, 11):
            if "g1bar" in lam[k]:
                assert lam[k]["g1bar"] <= lam[k]["g3bar"] + MARGIN, k
                assert lam[k]["g2bar"] - lam[k]["g1bar"] > MARGIN, k
            assert lam[k]["g3bar"] <= lam[k]["g2bar"] + MARGIN, k
        # few leaders: the diameter-2 family is the more robust by both metrics
        for k in (2, 3):
            assert kf[k]["g2bar"] < kf[k]["g1bar"] - MARGIN, k
        # beyond a crossover leader count the layered family wins on Kf
        divisors = [k for k in range(2, 11) if n % k == 0]
        diffs = [kf[k]["g1bar"] - kf[k]["g2bar"] for k in divisors]
        assert diffs[0] > MARGIN and diffs[-1] < -MARGIN
        flips = sum(1 for a, b in zip(diffs, diffs[1:]) if a > 0 > b)
        assert flips == 1  # a single crossover


def test_criterion_6_spectral_correctness(capsys):
    with criterion(6, "spectral closed forms and trace identity", capsys):
        for n in (2, 3, 5, 8, 13):
            rep = spectrum(complete_graph(n))
            assert abs(rep.lambda2 - n) < 1e-8
            assert abs(rep.kirchhoff - (n - 1)) < 1e-8
        assert abs(spectrum(path_graph(3)).kirchhoff - 4.0) < 1e-8
        assert abs(spectrum(path_graph(4)).lambda2 - (2.0 - math.sqrt(2.0))) < 1e-8
        rng = np.random.default_rng(20240601)
        for _ in range(200):
            g = random_graph(rng, int(rng.integers(2, 15)), float(rng.uniform(0.2, 0.9)))
            ev = spectrum(g).eigenvalues
            assert abs(sum(ev) - 2.0 * g.edge_count()) < 1e-8


def test_criterion_7_grammar_convergence(capsys):
    with criterion(7, "grammar convergence", capsys, max_seconds=30.0):
        configs = [
            (grammar_r1(3, 4), 12, build_g1_bar(12, 3, 4)),
            (grammar_r1(1, 12), 12, build_g1_bar(12, 1, 12)),
            (grammar_r1(2, 6), 12, build_g1_bar(12, 2, 6)),
            (grammar_r2(12, 3), 12, build_g2_bar(12, 3)),
            (grammar_r2(8, 2), 8, build_g2_bar(8, 2)),
        ]
        for rules, n, target in configs:
            for seed in range(100):
                prefer = PI2 if seed >= 80 else None
                state, schedule = run_to_fixpoint(
                    initial_state(n), rules, seed=seed, prefer_phase=prefer
                )
                assert label_isomorphic(state, target), (n, target.spec, seed)
                assert len(schedule.steps) > 0


def test_criterion_8_controllability_oracle(capsys):
    with criterion(8, "sampled controllability on all constructions", capsys, max_seconds=60.0):
        specs: list[ConstructionSpec] = []
        for n, k in grid_points(16):  # grid points at N <= 16: N in {6, 12}
            if g1_feasible(n, k):
                specs.append(ConstructionSpec("g1", n, k, n // k))
                specs.append(ConstructionSpec("g1bar", n, k, n // k))
            if g2_feasible(n, k):
                specs.append(ConstructionSpec("g2bar", n, k, None))
            for d in g3_diameters(n, k):
                specs.append(ConstructionSpec("g3bar", n, k, d))
        assert len(specs) > 20
        for spec in specs:
            net = build(spec)
            report = randomized_ssc_check(
                net.graph, net.leaders, trials=50, seed=1000 + spec.n
            )
            assert report.pass_count == 50, (spec, report.summary())


def test_every_construction_needs_all_its_leaders():
    # The full leader set is a ZFS, so every realization is controllable
    # (ssc docstring); drop any one leader and certify must call the rest no
    # ZFS, with a realization whose exact Kalman rank is below n.
    assert assert_leader_subsets_have_witnesses(10) == (71, 228)


def test_every_non_zfs_leader_set_has_an_uncontrollable_witness():
    # The converse of the check above, on 900 random leader sets of 300
    # random graphs with n <= 10.
    rng = np.random.default_rng(19)
    verdicts = {"zfs": 0, "no zfs": 0}
    for _ in range(300):
        n = int(rng.integers(1, 11))
        g = random_graph(rng, n, float(rng.uniform()))
        for _ in range(3):
            leaders = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
            if certify(g, leaders).violations is None:
                assert kalman_rank_exact(*uncontrollable_witness(g, leaders)) < n, (g.edges(), leaders)
                verdicts["no zfs"] += 1
            else:
                verdicts["zfs"] += 1
    assert verdicts == {"zfs": 510, "no zfs": 390}


def test_criterion_9_property_suites(tmp_path, capsys):
    with criterion(9, "property suites", capsys):
        rng = np.random.default_rng(77)

        # zero-forcing order independence: 100 random orders, one derived set
        g = random_connected_graph(rng, 12, extra_edges=6)
        black = {0, 3, 7}
        reference = closure(g, black)
        for _ in range(100):
            current = set(black)
            while True:
                cands = forcing_candidates(g, current)
                if not cands:
                    break
                current.add(cands[int(rng.integers(len(cands)))][1])
            assert frozenset(current) == reference

        # trace replay validity on every family
        for net in (build_g1(12, 3, 4), build_g1_bar(12, 3, 4),
                    build_g2_bar(12, 3), build_g3_bar(12, 3, 3)):
            trace = derived_set(net.graph, set(net.leaders))
            validate_trace(net.graph, trace)
            assert trace.derived == frozenset(range(12))

        # edge addition can only help both robustness metrics
        for _ in range(100):
            h = random_connected_graph(rng, int(rng.integers(4, 11)),
                                       extra_edges=int(rng.integers(0, 4)))
            non = h.non_edges()
            if not non:
                continue
            before = spectrum(h)
            u, v = non[int(rng.integers(len(non)))]
            h2 = h.copy()
            h2.add_edge(u, v)
            after = spectrum(h2)
            assert after.lambda2 >= before.lambda2 - MARGIN
            assert after.kirchhoff <= before.kirchhoff + MARGIN

        # serialization round trip: text file in, identical graph out
        net = build_g3_bar(18, 4, 3)
        path = tmp_path / "net.edges"
        path.write_text(to_edge_list_text(net.graph))
        assert from_edge_list_text(path.read_text()) == net.graph

        # grammar schedules replay to the same state
        rules = grammar_r2(10, 2)
        state, schedule = run_to_fixpoint(initial_state(10), rules, seed=5)
        assert replay(initial_state(10), rules, schedule) == state

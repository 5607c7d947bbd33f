"""Tests for the benchmark itself: every checker rejects a corrupted result,
and the counters of a traced pass repeat exactly for a fixed seed.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from zfnets import constructions as cons  # noqa: E402
from zfnets import grammar as gram  # noqa: E402
from zfnets import robustness as rob  # noqa: E402
from zfnets import ssc  # noqa: E402
from zfnets import zero_forcing as zf  # noqa: E402
from zfnets.graph import Graph, LeaderSet  # noqa: E402


def _row_and_graph(family="g1bar", n=12, k=3):
    d = workloads.family_diameter(family, n, k)
    rows, _ = rob.sweep(n, [family], [k], g3_d=d)
    net = workloads.build(family, n, k)
    return rows[0], d, net.graph.edges(), list(net.leaders)


@pytest.mark.parametrize("family", ["g1bar", "g2bar", "g3bar"])
def test_sweep_row_checker_accepts_true_and_rejects_perturbed_lambda2(family):
    row, d, edges, leaders = _row_and_graph(family)
    assert all(checks.check_sweep_row(row, family, 12, 3, d, edges, leaders).values())
    bad = dataclasses.replace(row, lambda2=row.lambda2 * (1 + 1e-6))
    assert not checks.check_sweep_row(bad, family, 12, 3, d, edges, leaders)["row.lambda2"]
    bad = dataclasses.replace(row, kirchhoff=row.kirchhoff * (1 - 1e-6))
    assert not checks.check_sweep_row(bad, family, 12, 3, d, edges, leaders)["row.kirchhoff"]
    bad = dataclasses.replace(row, d=row.d + 1)
    assert not checks.check_sweep_row(bad, family, 12, 3, d, edges, leaders)["row.diameter"]


def test_oracle_checker_counts_a_flipped_verdict():
    net = cons.build_g1_bar(12, 3, 4)
    report = ssc.randomized_ssc_check(net.graph, net.leaders, trials=5, seed=3)
    consistency, correct, wrong, indet = checks.oracle_verdicts(report)
    assert consistency["oracle.tally"] and (correct, wrong, indet) == (5, 0, 0)

    flipped = list(report.records)
    flipped[2] = dataclasses.replace(flipped[2], verdict="uncontrollable")
    records_only = dataclasses.replace(report, records=tuple(flipped))
    consistency, correct, wrong, _ = checks.oracle_verdicts(records_only)
    assert wrong == 1 and correct == 4
    assert not consistency["oracle.tally"]  # the summary counts no longer match the records

    both = dataclasses.replace(records_only, pass_count=4, fail_count=1)
    consistency, _, wrong, _ = checks.oracle_verdicts(both)
    assert consistency["oracle.tally"] and wrong == 1


def test_maximality_checker_rejects_dropped_and_invented_violations():
    net = cons.build_g1(12, 3, 4)
    g, leaders = net.graph, list(net.leaders)
    maximal, violations = zf.is_maximal_for_zfs(g, net.leaders)
    addable = checks.addable_edges(12, g.edges(), leaders)
    assert violations and all(checks.check_maximality(maximal, violations, addable).values())
    assert not checks.check_maximality(maximal, violations[1:], addable)["maximality.violations"]
    invented = next(e for e in g.non_edges() if e not in addable)
    assert not checks.check_maximality(maximal, violations + [invented], addable)["maximality.violations"]
    assert not checks.check_maximality(True, violations, addable)["maximality.verdict"]


def test_addable_edges_match_the_library_scan_on_random_graphs():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(4, 10)
        g = Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
        leaders = sorted(rng.sample(range(n), rng.randrange(1, n)))
        black, _ = checks.closure_batch(n, g.edges(), leaders)
        assert set(map(int, black[0].nonzero()[0])) == set(zf.closure(g, leaders))
        if black.all():
            _, violations = zf.is_maximal_for_zfs(g, LeaderSet(tuple(leaders)))
            assert checks.addable_edges(n, g.edges(), leaders) == set(violations)


def test_unique_process_reference_matches_library():
    for net in (cons.build_g1(12, 3, 4), cons.build_g1_bar(12, 3, 4), cons.build_g2_bar(12, 3)):
        _, unique = checks.zfs_and_unique(12, net.graph.edges(), list(net.leaders))
        assert unique == zf.is_unique_process(net.graph, net.leaders)


def test_trace_checker_rejects_an_illegal_force():
    net = cons.build_g1_bar(12, 3, 4)
    trace = zf.derived_set(net.graph, net.leaders)
    edges, leaders = net.graph.edges(), list(net.leaders)
    assert checks.check_trace(12, edges, leaders, trace.steps, trace.derived)
    swapped = list(trace.steps)
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    assert not checks.check_trace(12, edges, leaders, swapped, trace.derived)
    assert not checks.check_trace(12, edges, leaders, trace.steps[:-1], trace.derived)


def _grammar_case():
    n, k = 12, 3
    rules = gram.grammar_r1(k, n // k)
    start = gram.initial_state(n)
    final, schedule = gram.run_to_fixpoint(start, rules, seed=5)
    target = cons.build_g1_bar(n, k, n // k)
    return final, gram.replay(start, rules, schedule), len(schedule.steps), target


def test_grammar_checker_rejects_non_isomorphic_final_state():
    final, replayed, steps, target = _grammar_case()
    args = (target.graph.edges(), target.layout, 12, 3, 1 + 3)
    assert all(checks.check_grammar(final, replayed, steps, *args, True).values())

    moved = final.copy()
    u, v = moved.graph.edges()[0]
    moved.graph.remove_edge(u, v)
    w = next(x for x in range(12) if x not in (u, v) and not moved.graph.has_edge(u, x))
    moved.graph.add_edge(u, w)
    result = checks.check_grammar(moved, replayed, steps, *args, True)
    assert not result["grammar.iso"] and not result["grammar.replay"]

    relabeled = final.copy()
    a, b = 0, 1
    relabeled.labels[a], relabeled.labels[b] = relabeled.labels[b], relabeled.labels[a]
    assert not checks.check_grammar(relabeled, relabeled, steps, *args, True)["grammar.iso"]
    assert not checks.check_grammar(final, replayed, steps, *args, False)["grammar.iso"]
    assert not checks.check_grammar(final, replayed, steps + 1, *args, True)["grammar.steps"]


def test_cli_checker_rejects_wrong_exit_code(tmp_path):
    net = cons.build_g1_bar(24, 4, 6)
    state = {"family": "g1bar", "workdir": tmp_path, "net_edges": net.graph.edges()}
    out = "zfs: yes\nunique-process: yes\nmaximal: yes\n"
    tally = workloads.Tally()
    workloads.check_cli(state, "verify", workloads.ChildResult(0, out, 0.1, 50.0), tally)
    assert tally.failed == 0 and tally.attempted == 2
    workloads.check_cli(state, "verify", workloads.ChildResult(3, out, 0.1, 50.0), tally)
    assert tally.failed == 1 and tally.problems == ["verify: cli.exit"]
    workloads.check_cli(state, "verify", workloads.ChildResult(0, out.replace("maximal: yes", "maximal: no"),
                                                               0.1, 50.0), tally)
    assert tally.problems[-1] == "verify: cli.output"


def _traced_pass(name, seed, monkeypatch):
    if name == "certify":
        monkeypatch.setattr(workloads, "CERTIFY_SIZES", (12, 24))
    else:
        monkeypatch.setattr(workloads, "ASSEMBLE_CONFIGS", (("r1", 12, 3), ("r2", 12, 3)))
    setup, references, run = workloads.WORKLOADS[name]
    state = setup(seed, ROOT)
    references(state)
    tracer, tally = spans.Tracer(True), workloads.Tally()
    restore = spans.instrument(tracer, workloads.library_targets(tracer))
    try:
        items = run(state, tracer, tally)
    finally:
        restore()
    return [i.item_id for i in items], dict(tracer.counts), tally


@pytest.mark.parametrize("name", ["certify", "assemble"])
def test_counts_repeat_exactly_for_a_fixed_seed(name, monkeypatch):
    first = _traced_pass(name, 11, monkeypatch)
    second = _traced_pass(name, 11, monkeypatch)
    assert first[0] == second[0] and first[1] == second[1]
    assert (first[2].attempted, first[2].failed) == (second[2].attempted, second[2].failed)
    assert not first[2].problems
    assert first[1]  # counters were recorded


def test_instrument_restores_library_functions():
    original = (cons.build, Graph.diameter, rob.spectrum, zf.closure)
    tracer = spans.Tracer(True)
    restore = spans.instrument(tracer, workloads.library_targets(tracer))
    rob.sweep(12, ["g3bar"], [3], g3_d=3)
    restore()
    assert (cons.build, Graph.diameter, rob.spectrum, zf.closure) == original
    names = {span[0] for span in tracer.spans}
    assert {"constructions.build", "graph.diameter", "robustness.spectrum", "graph.laplacian"} <= names
    by_index = tracer.spans
    laplacian = next(s for s in by_index if s[0] == "graph.laplacian")
    assert by_index[laplacian[3]][0] == "robustness.spectrum"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""


def test_end_to_end_divides_each_sample_by_its_host_factor():
    import run

    item = workloads.Item
    passes = [
        run.Pass([item("a", 60, 1.0), item("b", 120, 4.0)], workloads.Tally(attempted=4, failed=1), None,
                 [1.0, 2.0]),
        run.Pass([item("a", 60, 3.0)], workloads.Tally(), None, [3.0]),
    ]
    setups = [(0.5, 0.5), (2.0, 1.0), (9.0, 3.0)]
    e2e = run.end_to_end(passes, setups, 50.0, normalize=True)
    assert e2e["wall_s"] == 3.0 and e2e["large_item_p50_ms"] == 2000.0 and e2e["setup_s"] == 2.0
    assert e2e["correct_share"] == 0.75 and e2e["peak_rss_mb"] == 50.0
    raw = run.end_to_end(passes, setups, 50.0, normalize=False)
    assert raw["wall_s"] == 6.0 and raw["setup_s"] == 2.0

"""The four workloads: input generation, warm-up, and one pass of the fixed job.

Each workload is a closed loop with one caller: the next item starts when
the previous one has returned and been checked.  `setup(seed, root)` makes
the inputs from the seed and warms every layer the workload uses once;
`run_pass(state, tracer, tally)` runs the fixed job and returns one Item per
row, graph, grammar run or command.  Only the calls into zfnets are timed;
checking happens between items, with the tracer paused.
"""
from __future__ import annotations

import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

import checks
from spans import Tracer
from zfnets import constructions as cons
from zfnets import grammar as gram
from zfnets import robustness as rob
from zfnets import ssc
from zfnets import zero_forcing as zf
from zfnets.graph import Graph, LeaderSet, from_edge_list_text, to_edge_list_text

FAMILIES = ("g1bar", "g2bar", "g3bar")
CERTIFY_FAMILIES = ("g1", "g1bar", "g2bar", "g3bar")
CERTIFY_SIZES = (60, 120)
CERTIFY_LEADERS = 4
ORACLE_TRIALS = 20
CLI_NODES = 24
CLI_LEADERS = 4
CHILD_TIMEOUT_S = 120.0


@dataclass
class Item:
    item_id: str
    size: int
    seconds: float


@dataclass
class Tally:
    """Results checked in one pass.

    `problems` lists failed hard checks and items that raised; the oracle's
    verdicts against the truth are soft: a wrong one counts in `failed` but
    is the measured accuracy defect, not a broken run.
    """

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    indeterminate: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, item_id: str, results: dict[str, bool]) -> None:
        for name, ok in results.items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(f"{item_id}: {name}")

    def raised(self, item_id: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{item_id}: raised {type(exc).__name__}: {exc}")

    def oracle(self, correct: int, wrong: int, indeterminate: int) -> None:
        total = correct + wrong + indeterminate
        self.attempted += total
        self.failed += wrong
        self.trials += total
        self.indeterminate += indeterminate


def g3_diameter(n: int, k: int) -> int:
    """The g3bar diameter used throughout: midpoint of [2, n/k], rounded up."""
    return min(max(-(-(2 * k + n) // (2 * k)), 2), n // k)


def family_diameter(family: str, n: int, k: int) -> int:
    """The diameter requested from constructions.build (g1 takes the g1bar layer count)."""
    return {"g1": n // k, "g1bar": n // k, "g2bar": 2, "g3bar": g3_diameter(n, k)}[family]


def check_family(family: str, n: int, k: int, edges, leaders) -> dict[str, bool]:
    """Edge count, measured diameter and ZFS property of one construction.

    The skeleton g1 has its own edge count, and its two farthest chain ends
    are 2(n/k - 1) + 1 apart through the leader clique (k >= 2).
    """
    if family == "g1":
        return checks.check_construction(n, checks.skeleton_edges(n, k), edges, leaders, 2 * (n // k) - 1)
    return checks.check_construction(n, checks.expected_edges(n, k), edges, leaders,
                                     family_diameter(family, n, k))


def build(family: str, n: int, k: int) -> cons.ConstructedNetwork:
    d = None if family == "g2bar" else family_diameter(family, n, k)
    return cons.build(cons.ConstructionSpec(family, n, k, d))


def edge_list_text(n: int, edges) -> str:
    """The documented edge-list format, written here rather than by zfnets."""
    return f"# n={n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def parse_edge_list(text: str) -> list[tuple[int, int]]:
    return [
        (int(a), int(b))
        for a, b in (line.split() for line in text.splitlines() if line.strip() and not line.startswith("#"))
    ]


def _timed(item_id: str, size: int, tally: Tally, tracer: Tracer, fn):
    """Run fn() as one item: (result or None if it raised, Item).

    A raise is a failed result, not an aborted run.
    """
    start = time.perf_counter()
    try:
        with tracer.span("item", item_id):
            out = fn()
    except Exception as exc:  # a wrong result must not stop the run
        tally.raised(item_id, exc)
        out = None
    return out, Item(item_id, size, time.perf_counter() - start)


def library_targets(tracer: Tracer) -> list:
    """Public functions that zfnets calls internally, wrapped in traced passes."""

    def count_edges(tr, _args, net):
        tr.count("constructions.edges", net.graph.edge_count())

    def count_spectrum(tr, _args, _rep):
        tr.count("robustness.spectrum_calls")

    def count_forces(tr, args, result):
        tr.count("zero_forcing.forces", len(result) - len(set(args[1])))

    return [
        (cons, "build", "constructions.build", count_edges),
        (Graph, "diameter", "graph.diameter", None),
        (Graph, "laplacian", "graph.laplacian", None),
        (rob, "spectrum", "robustness.spectrum", count_spectrum),
        (zf, "closure", None, count_forces),
    ]


def count_verdicts(tracer: Tracer, correct: int, wrong: int, indeterminate: int) -> None:
    tracer.count("ssc.trials", correct + wrong + indeterminate)
    tracer.count("ssc.controllable", correct)
    tracer.count("ssc.uncontrollable", wrong)
    tracer.count("ssc.indeterminate", indeterminate)


# ---------------------------------------------------------------- sweep


def setup_sweep(seed: int, root: Path) -> dict:
    rows = [(60, k, f) for k in range(2, 11) for f in FAMILIES if f != "g1bar" or 60 % k == 0]
    rows += [(120, k, f) for k in (4, 8) for f in FAMILIES]
    random.Random(seed).shuffle(rows)
    rob.sweep(12, FAMILIES, [3], g3_d=g3_diameter(12, 3))
    return {"rows": rows}


def references_sweep(state: dict) -> None:
    state["refs"] = {}
    for n, k, family in state["rows"]:
        net = build(family, n, k)
        state["refs"][f"{family}-n{n}-k{k}"] = (net.graph.edges(), list(net.leaders))


def pass_sweep(state: dict, tracer: Tracer, tally: Tally) -> Iterator[Item]:
    for n, k, family in state["rows"]:
        item_id = f"{family}-n{n}-k{k}"
        d = family_diameter(family, n, k)
        out, item = _timed(item_id, n, tally, tracer, lambda: rob.sweep(n, [family], [k], g3_d=d))
        if out is not None:
            with tracer.paused():
                rows, _notes = out
                if len(rows) == 1:
                    edges, leaders = state["refs"][item_id]
                    tally.add(item_id, checks.check_sweep_row(rows[0], family, n, k, d, edges, leaders))
                else:
                    tally.add(item_id, {"sweep.rows": False})
        yield item


# ---------------------------------------------------------------- certify


def setup_certify(seed: int, root: Path) -> dict:
    rng = random.Random(seed)
    graphs = []
    k = CERTIFY_LEADERS
    for n in CERTIFY_SIZES:
        for family in CERTIFY_FAMILIES:
            net = build(family, n, k)
            perm = list(range(n))
            rng.shuffle(perm)
            edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in net.graph.edges())
            graphs.append({
                "id": f"{family}-n{n}", "family": family, "n": n, "k": k, "edges": edges,
                "leaders": [perm[v] for v in net.leaders], "text": edge_list_text(n, edges),
                "oracle_seed": rng.randrange(2**32),
            })
    warm = cons.build_g1_bar(60, 4, 15)
    small = from_edge_list_text(to_edge_list_text(cons.build_g1_bar(12, 3, 4).graph))
    zf.is_zfs(small, LeaderSet((0, 1, 2)))
    zf.is_unique_process(small, [0, 1, 2])
    zf.validate_trace(small, zf.derived_set(small, [0, 1, 2]))
    zf.is_maximal_for_zfs(small, LeaderSet((0, 1, 2)))
    # The first multithreaded BLAS call in a process can stall for up to
    # ~0.7 s; an N=60 Kalman matrix is large enough to be multithreaded.
    ssc.randomized_ssc_check(warm.graph, warm.leaders, trials=1)
    return {"graphs": graphs}


def references_certify(state: dict) -> None:
    state["refs"] = {}
    for spec in state["graphs"]:
        n, edges, leaders = spec["n"], spec["edges"], spec["leaders"]
        zfs, unique = checks.zfs_and_unique(n, edges, leaders)
        state["refs"][spec["id"]] = (zfs, unique, checks.addable_edges(n, edges, leaders),
                                     check_family(spec["family"], n, spec["k"], edges, leaders))


def _certify_chain(spec: dict, tracer: Tracer) -> dict:
    out: dict = {}
    with tracer.span("graph.parse"):
        g = from_edge_list_text(spec["text"])
    text = to_edge_list_text(g)
    with tracer.span("graph.parse"):
        out["round_trip"] = from_edge_list_text(text)
    out["graph"] = g
    leaders = LeaderSet(tuple(spec["leaders"]))
    with tracer.span("zero_forcing.is_zfs"):
        out["zfs"] = zf.is_zfs(g, leaders)
    with tracer.span("zero_forcing.unique"):
        out["unique"] = zf.is_unique_process(g, leaders)
    with tracer.span("zero_forcing.derived"):
        out["trace"] = zf.derived_set(g, leaders)
    tracer.count("zero_forcing.forces", len(out["trace"].steps))
    with tracer.span("zero_forcing.validate"):
        try:
            zf.validate_trace(g, out["trace"])
            out["valid"] = True
        except ValueError:
            out["valid"] = False
    with tracer.span("zero_forcing.maximality"):
        out["maximal"], out["violations"] = zf.is_maximal_for_zfs(g, leaders)
    tracer.count("zero_forcing.nonedges_scanned", g.n * (g.n - 1) // 2 - g.edge_count())
    tracer.count("zero_forcing.violations", len(out["violations"]))
    with tracer.span("ssc.check"):
        out["report"] = ssc.randomized_ssc_check(g, leaders, trials=ORACLE_TRIALS, seed=spec["oracle_seed"])
    if tracer.enabled:
        out["replayed"] = []
        for rec in out["report"].records:
            with tracer.span("ssc.sample"):
                realization = ssc.sample_realization(g, leaders, rec.seed)
            with tracer.span("ssc.rank"):
                out["replayed"].append(ssc.controllability_report(realization))
    return out


def pass_certify(state: dict, tracer: Tracer, tally: Tally) -> Iterator[Item]:
    for spec in state["graphs"]:
        out, item = _timed(spec["id"], spec["n"], tally, tracer, lambda: _certify_chain(spec, tracer))
        if out is not None:
            check_certify(state, spec, out, tracer, tally)
        yield item


def check_certify(state: dict, spec: dict, out: dict, tracer: Tracer, tally: Tally) -> None:
    item_id, n, edges, leaders = spec["id"], spec["n"], spec["edges"], spec["leaders"]
    zfs, unique, addable, construction = state["refs"][item_id]
    g, report, tr = out["graph"], out["report"], out["trace"]
    with tracer.paused():
        results = dict(construction)
        results["parse"] = g.n == n and g.edges() == edges
        results["round_trip"] = out["round_trip"].n == n and out["round_trip"].edges() == edges
        results["is_zfs"] = out["zfs"] == zfs
        results["unique"] = out["unique"] == unique
        results["derived"] = (out["valid"] and set(tr.initial_black) == set(leaders)
                              and checks.check_trace(n, edges, leaders, tr.steps, tr.derived))
        results.update(checks.check_maximality(out["maximal"], out["violations"], addable))
        consistency, correct, wrong, indet = checks.oracle_verdicts(report)
        results.update(consistency)
        if "replayed" in out:
            recorded = [(r.rank, r.verdict) for r in report.records]
            results["oracle.replay"] = out["replayed"] == recorded
    tally.add(item_id, results)
    tally.oracle(correct, wrong, indet)
    count_verdicts(tracer, correct, wrong, indet)


# ---------------------------------------------------------------- assemble


ASSEMBLE_CONFIGS = (("r1", 48, 4), ("r1", 96, 4), ("r2", 48, 4), ("r2", 96, 4))


def _rules(name: str, n: int, k: int):
    return gram.grammar_r1(k, n // k) if name == "r1" else gram.grammar_r2(n, k)


def _target(name: str, n: int, k: int) -> cons.ConstructedNetwork:
    return cons.build_g1_bar(n, k, n // k) if name == "r1" else cons.build_g2_bar(n, k)


def setup_assemble(seed: int, root: Path) -> dict:
    rng = random.Random(seed)
    runs = []
    for name, n, k in ASSEMBLE_CONFIGS:
        target = _target(name, n, k)
        for _ in range(2):
            runs.append({"id": f"{name}-n{n}-s{len(runs)}", "rules": name, "n": n, "k": k,
                         "seed": rng.randrange(2**32), "target": target})
    for name in ("r1", "r2"):
        start = gram.initial_state(6)
        final, schedule = gram.run_to_fixpoint(start, _rules(name, 6, 2), seed=seed)
        gram.replay(start, _rules(name, 6, 2), schedule)
        gram.label_isomorphic(final, _target(name, 6, 2))
    return {"runs": runs}


def references_assemble(state: dict) -> None:
    state["refs"] = {}
    for spec in state["runs"]:
        target = spec["target"]
        state["refs"][spec["id"]] = check_family(target.family, spec["n"], spec["k"],
                                                 target.graph.edges(), list(target.leaders))


def _assemble_run(spec: dict, tracer: Tracer) -> dict:
    rules = _rules(spec["rules"], spec["n"], spec["k"])
    start = gram.initial_state(spec["n"])
    with tracer.span("grammar.run"):
        final, schedule = gram.run_to_fixpoint(start, rules, seed=spec["seed"], on_step=tracer.step_hook())
    tracer.count("grammar.steps", len(schedule.steps))
    with tracer.span("grammar.replay"):
        replayed = gram.replay(start, rules, schedule)
    with tracer.span("grammar.iso"):
        iso = gram.label_isomorphic(final, spec["target"])
    return {"final": final, "replayed": replayed, "steps": len(schedule.steps), "iso": iso}


def pass_assemble(state: dict, tracer: Tracer, tally: Tally) -> Iterator[Item]:
    for spec in state["runs"]:
        item_id, n, k, target = spec["id"], spec["n"], spec["k"], spec["target"]
        out, item = _timed(item_id, n, tally, tracer, lambda: _assemble_run(spec, tracer))
        if out is not None:
            # Relabel-only steps: r1 promotes the last seed and ends each of
            # the k chains; r2 promotes the last seed and ends its one chain.
            extra = 1 + k if spec["rules"] == "r1" else 2
            with tracer.paused():
                results = dict(state["refs"][item_id])
                results.update(checks.check_grammar(out["final"], out["replayed"], out["steps"],
                                                    target.graph.edges(), target.layout, n, k, extra,
                                                    out["iso"]))
            tally.add(item_id, results)
        yield item


# ---------------------------------------------------------------- cli


@dataclass
class ChildResult:
    code: int
    stdout: str
    seconds: float
    rss_mb: float


def run_child(argv: list[str], env: dict, workdir: Path) -> ChildResult:
    """Run one fresh interpreter to completion; rusage comes from wait4."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=workdir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out_path.read_text(), seconds, usage.ru_maxrss / 1024.0)


def cli_env(root: Path, workdir: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["ZFNETS_OUT_DIR"] = str(workdir)
    return env


def setup_cli(seed: int, root: Path) -> dict:
    rng = random.Random(seed)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
    env = cli_env(root, workdir)
    probe = run_child(["-c", "import zfnets.cli; print(zfnets.cli.__file__)"], env, workdir)
    where = Path(probe.stdout.strip()).resolve()
    if probe.code != 0 or (root / "src") not in where.parents:
        raise RuntimeError(f"zfnets.cli did not import from {root / 'src'}: {probe.stdout!r}")
    family = FAMILIES[rng.randrange(len(FAMILIES))]
    return {"workdir": workdir, "env": env, "family": family,
            "grammar_seeds": (rng.randrange(1000), rng.randrange(1000)),
            "oracle_seed": rng.randrange(1000), "rss_mb": 0.0}


def references_cli(state: dict) -> None:
    n = CLI_NODES
    state["refs"] = {}
    for k in range(2, 7):
        for family in FAMILIES:
            if family != "g1bar" or n % k == 0:
                net = build(family, n, k)
                state["refs"][f"sweep-{family}-{k}"] = (net.graph.edges(), list(net.leaders))


def cleanup(state: dict) -> None:
    if "workdir" in state:
        shutil.rmtree(state["workdir"], ignore_errors=True)


def _line_results(res: ChildResult, want_lines: list[str]) -> dict[str, bool]:
    lines = res.stdout.splitlines()
    return {"cli.exit": res.code == 0, "cli.output": all(w in lines for w in want_lines)}


def cli_commands(state: dict) -> list[tuple[str, str, list[str]]]:
    """(item id, per-layer name, zfnets.cli arguments) for one pass."""
    n, k, family, w = CLI_NODES, CLI_LEADERS, state["family"], state["workdir"]
    d = family_diameter(family, n, k)
    leaders = ",".join(str(i) for i in range(k))
    s1, s2 = state["grammar_seeds"]
    diam = [] if family == "g2bar" else ["--diameter", str(d)]
    return [
        ("construct", "cli.construct", ["construct", "--family", family, "--nodes", str(n), "--leaders", str(k),
                                        *diam, "--format", "all", "--out", str(w / "net")]),
        ("verify", "cli.verify", ["verify", "--graph", str(w / "net.edges"), "--leaders", leaders]),
        ("spectrum", "cli.spectrum", ["spectrum", "--graph", str(w / "net.edges"), "--eigenvalues"]),
        ("sweep", "cli.sweep", ["sweep", "--nodes", str(n), "--leaders", "2-6", "--out", str(w / "sweep.csv")]),
        ("grammar-r1", "cli.grammar", ["grammar", "--rules", "r1", "--nodes", str(n), "--leaders", str(k),
                                       "--diameter", str(n // k), "--seed", str(s1), "--out", str(w / "r1")]),
        ("grammar-r2", "cli.grammar", ["grammar", "--rules", "r2", "--nodes", str(n), "--leaders", str(k),
                                       "--seed", str(s2), "--out", str(w / "r2")]),
        ("oracle", "cli.oracle", ["oracle", "--graph", str(w / "net.edges"), "--leaders", leaders,
                                  "--trials", str(ORACLE_TRIALS), "--seed", str(state["oracle_seed"]),
                                  "--out", str(w / "oracle.csv")]),
    ]


def check_cli(state: dict, item_id: str, res: ChildResult, tally: Tally) -> None:
    """Exit code and key stdout lines of one command, against references computed here."""
    n, k, family, w = CLI_NODES, CLI_LEADERS, state["family"], state["workdir"]
    d = family_diameter(family, n, k)
    leaders = list(range(k))
    if item_id == "construct":
        results = _line_results(res, [f"family={family} n={n} leaders={k} "
                                      f"edges={checks.expected_edges(n, k)} diameter={d}"])
        edges = parse_edge_list((w / "net.edges").read_text()) if (w / "net.edges").exists() else []
        results.update(check_family(family, n, k, edges, leaders))
        results["files"] = all((w / f"net{ext}").exists() for ext in (".edges", ".dot", ".layout"))
        state["net_edges"] = edges
        tally.add(item_id, results)
        return
    edges = state.get("net_edges", [])
    if item_id == "verify":
        zfs, unique = checks.zfs_and_unique(n, edges, leaders)
        maximal = zfs and not checks.addable_edges(n, edges, leaders)
        yes = lambda b: "yes" if b else "no"
        tally.add(item_id, _line_results(res, [f"zfs: {yes(zfs)}", f"unique-process: {yes(unique)}",
                                               f"maximal: {yes(maximal)}"]))
    elif item_id == "spectrum":
        ref = checks.laplacian_eigenvalues(n, edges)
        results = _line_results(res, [f"n: {n}", f"edges: {len(edges)}"])
        got = dict(line.split(": ", 1) for line in res.stdout.splitlines() if ": " in line)
        results["cli.lambda2"] = math.isclose(float(got.get("lambda2", "nan")), ref[1], rel_tol=checks.REL_TOL)
        kirchhoff = n * float(np.sum(1.0 / ref[1:]))
        results["cli.kirchhoff"] = math.isclose(float(got.get("kirchhoff", "nan")), kirchhoff, rel_tol=checks.REL_TOL)
        values = [float(x) for x in got.get("eigenvalues", "").split()]
        results["cli.eigenvalues"] = len(values) == n and all(map(checks.close, values, ref))
        tally.add(item_id, results)
    elif item_id == "sweep":
        results = {"cli.exit": res.code == 0}
        csv = (w / "sweep.csv").read_text().splitlines() if (w / "sweep.csv").exists() else []
        want = [(f, n, kk) for kk in range(2, 7) for f in FAMILIES if f != "g1bar" or n % kk == 0]
        rows = [line.split(",") for line in csv[1:]]
        results["cli.rows"] = csv[:1] == [rob.CSV_HEADER] and sorted(
            (r[0], int(r[1]), int(r[2])) for r in rows) == sorted(want)
        tally.add(item_id, results)
        for r in rows:
            fam, kk = r[0], int(r[2])
            key = f"sweep-{fam}-{kk}"
            if key in state["refs"]:  # unexpected rows already failed cli.rows
                row = rob.SweepRow(fam, int(r[1]), kk, int(r[3]), int(r[4]), float(r[5]), float(r[6]))
                tally.add(f"{item_id}:{key}", checks.check_sweep_row(
                    row, fam, n, kk, family_diameter(fam, n, kk), *state["refs"][key]))
    elif item_id.startswith("grammar"):
        name = item_id.split("-")[1]
        steps_want = checks.expected_edges(n, k) + (1 + k if name == "r1" else 2)
        results = _line_results(res, [f"steps: {steps_want}", f"edges: {checks.expected_edges(n, k)}",
                                      "matches construction: yes"])
        trace_path = w / f"{name}.trace"
        results["cli.trace"] = trace_path.exists() and len(trace_path.read_text().splitlines()) == steps_want
        tally.add(item_id, results)
    elif item_id == "oracle":
        results = {"cli.exit": res.code == 0}
        csv_path = w / "oracle.csv"
        verdicts = [line.split(",")[3] for line in csv_path.read_text().splitlines()[1:]] if csv_path.exists() else []
        correct, wrong = verdicts.count("controllable"), verdicts.count("uncontrollable")
        indet = verdicts.count("indeterminate")
        summary = (f"{correct}/{ORACLE_TRIALS} trials controllable "
                   f"({wrong} uncontrollable, {indet} indeterminate)")
        results["cli.output"] = len(verdicts) == ORACLE_TRIALS and summary in res.stdout.splitlines()
        zfs, _ = checks.zfs_and_unique(n, edges, leaders)
        results["oracle.truth"] = zfs
        tally.add(item_id, results)
        tally.oracle(correct, wrong, indet)
        state["oracle_counts"] = (correct, wrong, indet)


def pass_cli(state: dict, tracer: Tracer, tally: Tally) -> Iterator[Item]:
    commands = cli_commands(state)
    for item_id, layer, argv in commands:
        with tracer.span(layer, item_id):
            res = run_child(["-m", "zfnets.cli", *argv], state["env"], state["workdir"])
        state["rss_mb"] = max(state["rss_mb"], res.rss_mb)
        with tracer.paused():
            try:
                check_cli(state, item_id, res, tally)
            except (OSError, ValueError, IndexError) as exc:
                tally.raised(item_id, exc)
        if tracer.enabled and item_id == commands[-1][0]:
            with tracer.span("cli.import"):
                run_child(["-c", "import zfnets.cli"], state["env"], state["workdir"])
            if "oracle_counts" in state:
                count_verdicts(tracer, *state["oracle_counts"])
        yield Item(item_id, CLI_NODES, res.seconds)


# name -> (set-up, reference computation, one pass).  References are
# computed once per run, after set-up and before the measured window.
WORKLOADS = {
    "sweep": (setup_sweep, references_sweep, pass_sweep),
    "certify": (setup_certify, references_certify, pass_certify),
    "assemble": (setup_assemble, references_assemble, pass_assemble),
    "cli": (setup_cli, references_cli, pass_cli),
}

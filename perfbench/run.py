"""zfnets benchmark: one workload per run, checked results, one JSON line out.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from a checkout that holds `src/zfnets`.  A run first times set-up
(fresh interpreter, `import zfnets`, input generation from the seed, one
warm-up call per layer) SETUP_REPEATS times in child processes, then sets up
once more in this process, computes the references the results are checked
against, and fills a window of `--seconds`: one full pass of the workload's
fixed job, then further items in job order while the next one is expected
to end inside the window.  Times are divided by the host factor measured
around them (hostspeed.py).  With `--trace 0` it prints the end-to-end
metrics (BENCHMARK.json `end_to_end`); with `--trace 1` the window holds
pairs of an untraced and a traced full pass and it prints the per-layer
metrics (`per_layer`), writing the spans to
`.perfbench_out/trace-<workload>-seed<seed>.json`.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
`attempted` and `failed` count the results checked in the first pass (every
oracle trial is one result); `correct` is false when any check other than an
oracle verdict failed, or an item raised, in any pass.  Wrong oracle
verdicts are the measured accuracy of `zfnets.ssc` and show in `failed` and
`correct_share`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# One BLAS thread unless the caller chose otherwise, here and in every child.
# On a 2-vCPU host a multithreaded BLAS call leaves helper threads spinning
# on the other vCPU, which slows whatever this thread times next and makes
# the first threaded call stall for up to ~0.7 s at random.  Must be set
# before numpy is imported.
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import spans  # noqa: E402
from hostspeed import HostProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120.0
WORKLOAD_NAMES = ("sweep", "certify", "assemble", "cli")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"), ("large_item_p50_ms", "ms"),
    ("peak_rss_mb", "MB"), ("correct_share", "ratio"),
)
# Busy time per span name, reported as "<span>_s".
SPAN_METRICS = (
    "constructions.build", "graph.diameter", "graph.laplacian", "graph.parse", "robustness.spectrum",
    "zero_forcing.is_zfs", "zero_forcing.unique", "zero_forcing.derived", "zero_forcing.validate",
    "zero_forcing.maximality", "ssc.check", "ssc.sample", "ssc.rank", "grammar.run", "grammar.replay",
    "grammar.iso", "cli.import", "cli.construct", "cli.verify", "cli.spectrum", "cli.sweep",
    "cli.grammar", "cli.oracle",
)
# Self time (busy minus child spans) for the spans that have children.
SELF_METRICS = ("constructions.build", "robustness.spectrum")
COUNT_METRICS = (
    "constructions.edges", "robustness.spectrum_calls", "zero_forcing.forces",
    "zero_forcing.nonedges_scanned", "zero_forcing.violations", "ssc.trials", "ssc.controllable",
    "ssc.uncontrollable", "ssc.indeterminate", "grammar.steps",
)
PER_LAYER = (
    [(f"{name}_s", "s") for name in SPAN_METRICS]
    + [(f"{name}_self_s", "s") for name in SELF_METRICS]
    + [(name, "count") for name in COUNT_METRICS]
    + [("zero_forcing.violation_ratio", "ratio"), ("ssc.indeterminate_share", "ratio"),
       ("grammar.step_p50_us", "us"), ("grammar.step_p99_us", "us"), ("bench.items", "count"),
       ("bench.failed_share", "ratio"), ("bench.host_factor", "ratio"), ("trace.spans", "count"),
       ("trace.overhead_s", "s")]
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_meta(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    src_lines = sum(
        1 for path in sorted((ROOT / "src").rglob("*.py"))
        for line in path.read_text().splitlines() if line.strip()
    )
    return {
        "git_sha": git_sha(), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "workload": workload, "seed": seed, "src_nonblank_lines": src_lines,
    }


def time_setup(workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import zfnets, make the inputs and warm up."""
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
    )
    seconds = time.perf_counter() - start
    if res.returncode != 0:
        raise RuntimeError(f"set-up child failed ({res.returncode}): {res.stderr.strip()[-2000:]}")
    return seconds


@dataclass
class Pass:
    items: list
    tally: object
    tracer: object
    factors: list  # host factor around each item, see hostspeed.py

    @property
    def wall(self) -> float:
        """Item time of the pass at reference host speed."""
        return sum(item.seconds / factor for item, factor in zip(self.items, self.factors))


def run_pass(workloads, run, state, probe: HostProbe, traced: bool, fits=None) -> Pass:
    """One pass of the fixed job, sampling the host speed before every item.

    `fits(index)` is asked before every item after the first; when it says
    no, the pass ends there (a partial pass at the end of the window).
    """
    tracer = spans.Tracer(traced)
    tally = workloads.Tally()
    restore = spans.instrument(tracer, workloads.library_targets(tracer)) if traced else None
    items, factors = [], []
    passing = run(state, tracer, tally)
    try:
        before = probe.sample()
        for item in passing:
            after = probe.sample()
            items.append(item)
            factors.append((before + after) / 2)
            before = after
            if fits is not None and not fits(len(items)):
                break
    finally:
        passing.close()
        if restore is not None:
            restore()
    return Pass(items, tally, tracer, factors)


def measure(workloads, run, state, probe: HostProbe, seconds: float,
            traced: bool) -> tuple[list[Pass], list[Pass]]:
    """(untraced passes, traced passes) filling a window of about `seconds`.

    Untraced: one full pass, then items in job order for as long as the
    next one, at its last measured time, ends inside the window.  Traced:
    pairs of full untraced and traced passes while a pair fits; at least one.
    """
    start = time.perf_counter()
    if traced:
        untraced, traced_passes = [], []
        while True:
            pair_start = time.perf_counter()
            untraced.append(run_pass(workloads, run, state, probe, traced=False))
            traced_passes.append(run_pass(workloads, run, state, probe, traced=True))
            now = time.perf_counter()
            if now + (now - pair_start) - start > seconds:
                return untraced, traced_passes
    passes = [run_pass(workloads, run, state, probe, traced=False)]
    last = {item.item_id: item.seconds for item in passes[0].items}
    order = list(last)

    def fits(index: int) -> bool:
        if index == len(order):
            return True
        return time.perf_counter() + last[order[index]] - start <= seconds

    while fits(0):
        passes.append(run_pass(workloads, run, state, probe, traced=False, fits=fits))
        last.update((item.item_id, item.seconds) for item in passes[-1].items)
        if len(passes[-1].items) < len(order):
            break
    return passes, []


def end_to_end(passes: list[Pass], setup_times: list[tuple[float, float]], rss_mb: float,
               normalize: bool) -> dict:
    """Metrics over items, each timed by the median of its samples in the window.

    With `normalize`, every sample (item or set-up time, paired with its host
    factor) is first divided by its host factor (see hostspeed.py).
    """
    samples: dict[str, list[float]] = {}
    sizes: dict[str, int] = {}
    for p in passes:
        for item, factor in zip(p.items, p.factors):
            samples.setdefault(item.item_id, []).append(item.seconds / factor if normalize else item.seconds)
            sizes[item.item_id] = item.size
    per_item = {item_id: statistics.median(values) for item_id, values in samples.items()}
    largest = max(sizes.values())
    first = passes[0].tally
    return {
        "setup_s": statistics.median(t / f if normalize else t for t, f in setup_times),
        "wall_s": sum(per_item.values()),
        "item_p50_ms": 1e3 * statistics.median(per_item.values()),
        "large_item_p50_ms": 1e3 * statistics.median(v for k, v in per_item.items() if sizes[k] == largest),
        "peak_rss_mb": rss_mb,
        "correct_share": 1.0 - first.failed / first.attempted,
    }


def per_layer(traced: list[Pass], untraced: list[Pass], host_factor: float) -> dict:
    """Per-layer metrics from the traced passes.

    Span times are as measured; trace.overhead_s compares pass times at
    reference host speed, because raw pass times on a shared host differ by
    more than the overhead.
    """
    import numpy as np

    def median_over_passes(fn) -> float:
        return float(statistics.median(fn(p) for p in traced))

    out: dict[str, float] = {}
    for name in SPAN_METRICS:
        out[f"{name}_s"] = median_over_passes(lambda p: p.tracer.busy().get(name, 0.0))
    for name in SELF_METRICS:
        out[f"{name}_self_s"] = median_over_passes(lambda p: p.tracer.self_time().get(name, 0.0))
    first = traced[0]
    counts = first.tracer.counts
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    scanned = counts.get("zero_forcing.nonedges_scanned", 0)
    out["zero_forcing.violation_ratio"] = counts.get("zero_forcing.violations", 0) / scanned if scanned else 0.0
    trials = counts.get("ssc.trials", 0)
    out["ssc.indeterminate_share"] = counts.get("ssc.indeterminate", 0) / trials if trials else 0.0
    steps_us = 1e6 * np.asarray(first.tracer.step_times)
    out["grammar.step_p50_us"] = float(np.percentile(steps_us, 50)) if steps_us.size else 0.0
    out["grammar.step_p99_us"] = float(np.percentile(steps_us, 99)) if steps_us.size else 0.0
    out["bench.items"] = len(first.items)
    out["bench.failed_share"] = first.tally.failed / first.tally.attempted
    out["bench.host_factor"] = host_factor
    out["trace.spans"] = len(first.tracer.spans)
    out["trace.overhead_s"] = (median_over_passes(lambda p: p.wall)
                               - float(statistics.median(p.wall for p in untraced)))
    return out


def write_trace(path: Path, meta: dict, metrics: dict, traced: list[Pass]) -> None:
    spans = [
        {"pass": i, "name": name, "start": start, "end": end, "parent": parent, "item": item}
        for i, p in enumerate(traced) for name, start, end, parent, item in p.tracer.spans
    ]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"meta": meta, "metrics": metrics, "spans": spans}) + "\n")


def run_workload(args) -> int:
    import resource

    import workloads

    setup, references, run = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        workloads.cleanup(setup(args.seed, ROOT))
        return 0

    probe = HostProbe()
    setup_times = []
    before = probe.sample()
    for _ in range(SETUP_REPEATS):
        seconds = time_setup(args.workload, args.seed)
        after = probe.sample()
        setup_times.append((seconds, (before + after) / 2))
        before = after
    state = setup(args.seed, ROOT)
    try:
        references(state)
        untraced, traced = measure(workloads, run, state, probe, args.seconds, bool(args.trace))
    finally:
        workloads.cleanup(state)

    if args.workload == "cli":
        rss_mb = state["rss_mb"]
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host_factor = probe.factor()
    e2e = end_to_end(untraced, setup_times, rss_mb, normalize=True)
    raw = end_to_end(untraced, setup_times, rss_mb, normalize=False)
    meta = run_meta(args.workload, args.seed)
    meta["host_factor"] = host_factor
    problems = [msg for p in untraced + traced for msg in p.tally.problems]
    first = untraced[0].tally

    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} passes={len(untraced)} items={len(untraced[0].items)} "
          f"attempted={first.attempted} failed={first.failed} "
          f"failed_share={first.failed / first.attempted:.6g} oracle_trials={first.trials} "
          f"indeterminate_share={(first.indeterminate / first.trials if first.trials else 0.0):.6g}")
    print(f"host_factor={host_factor:.6g} (median; times below are at reference host speed, raw times follow)")
    for name, unit in END_TO_END:
        print(f"  {name:<20} {e2e[name]:>14.6g} {unit:<6} raw {raw[name]:.6g}")
    if args.trace:
        layer = per_layer(traced, untraced, host_factor)
        for name, unit in PER_LAYER:
            print(f"  {name:<36} {layer[name]:>14.6g} {unit}")
        write_trace(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.json",
                    meta, layer, traced)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    for msg in problems[:50]:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": first.attempted, "failed": first.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process, with one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = res.stdout.strip().splitlines()
        sys.stderr.write(res.stderr)
        if res.returncode != 0 or not lines:
            print(f"workload {name} failed with exit code {res.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "zfnets" / "__init__.py").is_file():
        print(f"error: {src / 'zfnets'} not found; run from a zfnets checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import zfnets

    if src not in Path(zfnets.__file__).resolve().parents:
        print(f"error: imported zfnets from {zfnets.__file__}, not {src}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

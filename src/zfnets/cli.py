"""zfnets command line: construct networks, verify controllability, measure
robustness, run family sweeps, and simulate the distributed grammars.

Exit codes: 0 success, 2 infeasible/bad input, 3 verification failed,
4 numerical or fixpoint non-convergence.  ZFNETS_OUT_DIR sets the default
output directory for generated files.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import constructions as cons
from . import grammar as gram
from . import robustness as rob
from .graph import (
    Graph,
    LeaderSet,
    NonConvergenceError,
    export_dot,
    from_edge_list_text,
    to_edge_list_text,
)
from .zero_forcing import _verify

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION_FAILED = 3
EXIT_NONCONVERGENCE = 4

OUT_DIR_ENV = "ZFNETS_OUT_DIR"


def _resolve_out(arg: str | None, default_name: str) -> Path:
    return Path(arg) if arg else Path(os.environ.get(OUT_DIR_ENV, ".")) / default_name


def _read_graph(path: str) -> Graph:
    return from_edge_list_text(Path(path).read_text())


def _parse_id_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ValueError(f"expected comma-separated node ids, got {text!r}") from exc


def _parse_int_values(text: str, most: int) -> list[int]:
    """Parse '2-10' / '2,3,7' / '1,4-6' into a sorted list of leader counts.

    No family has more leaders than nodes, so a range is cut at `most` before
    it is expanded; a count or range that starts above `most` is an error."""
    values: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if "-" in part[1:]:
                lo_text, hi_text = part.split("-", 1)
                lo, hi = int(lo_text), int(hi_text)
            else:
                lo = hi = int(part)
        except ValueError as exc:
            raise ValueError(f"expected leader counts such as 2-10 or 2,3,5, got {text!r}") from exc
        if hi < lo:
            raise ValueError(f"empty range {part!r}")
        if lo > most:
            raise ValueError(f"--leaders must be at most --nodes ({most}), got {part}")
        values.update(range(lo, min(hi, most) + 1))
    if not values:
        raise ValueError(f"no values in {text!r}")
    return sorted(values)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _with_ext(prefix: Path, ext: str) -> Path:
    return prefix.parent / (prefix.name + ext)


def cmd_construct(args: argparse.Namespace) -> int:
    flags = (("--family", args.family), ("--nodes", args.nodes),
             ("--leaders", args.leaders), ("--diameter", args.diameter))
    if args.config:
        given = [name for name, value in flags if value is not None]
        if given:
            raise ValueError(f"--config cannot be combined with {', '.join(given)}")
        spec = cons.parse_construction_config(Path(args.config).read_text())
    else:
        missing = [name for name, value in flags[:3] if value is None]
        if missing:
            raise ValueError(f"construct needs {', '.join(missing)} (or --config)")
        spec = cons.ConstructionSpec(args.family, args.nodes, args.leaders, args.diameter)
    net = cons.build(spec)
    base = f"{spec.family}_n{spec.n}_nl{spec.n_leaders}_d{spec.d}"
    prefix = _resolve_out(args.out, base)
    if args.format in ("edgelist", "all"):
        _write(_with_ext(prefix, ".edges"), to_edge_list_text(net.graph))
    if args.format in ("dot", "all"):
        _write(_with_ext(prefix, ".dot"), export_dot(net.graph, net.leaders, net.layout))
    if args.format == "all":
        layout_text = "".join(f"{v} {net.layout[v]}\n" for v in range(net.graph.n))
        _write(_with_ext(prefix, ".layout"), layout_text)
    print(
        f"family={spec.family} n={spec.n} leaders={spec.n_leaders} "
        f"edges={net.graph.edge_count()} diameter={net.diameter}"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    leaders = LeaderSet(_parse_id_list(args.leaders))
    unique, violations = _verify(g, leaders)
    print(f"zfs: {'no' if violations is None else 'yes'}")
    print(f"unique-process: {'yes' if unique else 'no'}")
    if violations is None:
        print("maximal: n/a (leaders are not a zero forcing set)")
        return EXIT_VERIFICATION_FAILED
    print(f"maximal: {'no' if violations else 'yes'}")
    for u, v in violations:
        print(f"violation: {u} {v}")
    return EXIT_VERIFICATION_FAILED if violations else EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    report = rob.spectrum(g)
    print(f"n: {report.n}")
    print(f"edges: {g.edge_count()}")
    print(f"lambda2: {report.lambda2:.9g}")
    print(f"kirchhoff: {report.kirchhoff:.9g}")
    if args.eigenvalues:
        print("eigenvalues: " + " ".join(f"{x:.9g}" for x in report.eigenvalues))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.nodes < 1:
        raise ValueError(f"--nodes must be at least 1, got {args.nodes}")
    families = [cons.normalize_family(f) for f in args.families.split(",") if f.strip()]
    if not families:
        raise ValueError(f"no values in {args.families!r}")
    if args.g3_diameter is not None and cons.G3_BAR not in families:
        raise ValueError("--g3-diameter needs g3bar in --families")
    leader_values = _parse_int_values(args.leaders, args.nodes)
    if leader_values[0] < 1:
        raise ValueError(f"--leaders must be at least 1, got {leader_values[0]}")
    rows, notes = rob.sweep(args.nodes, families, leader_values, g3_d=args.g3_diameter)
    for note in notes:
        print(f"note: {note}")
    if not rows:
        raise ValueError(f"no feasible family and leader count at --nodes {args.nodes}")
    out = _resolve_out(args.out, f"sweep_n{args.nodes}.csv")
    _write(out, rob.sweep_csv(rows))
    return EXIT_OK


# --rules name -> (the family its fixpoint must match, its rules for that spec)
GRAMMARS = {
    "r1": (cons.G1_BAR, lambda spec: gram.grammar_r1(spec.n_leaders, spec.d)),
    "r2": (cons.G2_BAR, lambda spec: gram.grammar_r2(spec.n, spec.n_leaders)),
}


def cmd_grammar(args: argparse.Namespace) -> int:
    n, k = args.nodes, args.leaders
    family, make_rules = GRAMMARS[args.rules]
    # Built first: ConstructionSpec rejects any infeasible shape (also d != 2 for r2).
    target = cons.build(cons.ConstructionSpec(family, n, k, args.diameter))
    rules = make_rules(target.spec)

    initial = gram.initial_state(n)
    on_step = None
    if args.frames:
        frames = Path(args.frames)
        frames.mkdir(parents=True, exist_ok=True)

        def on_step(i: int, state: gram.LabeledGraph, match: gram.Match | None) -> None:
            text = export_dot(state.graph, labels=dict(enumerate(state.labels)))
            (frames / f"step_{i:04d}.dot").write_text(text)

        on_step(0, initial, None)
    final, schedule = gram.run_to_fixpoint(
        initial,
        rules,
        seed=args.seed,
        prefer_phase=gram.PI2 if args.prefer_pi2 else None,
        on_step=on_step,
    )
    base = f"grammar_{args.rules}_n{n}_nl{k}_seed{args.seed}"
    prefix = _resolve_out(args.out, base)
    _write(_with_ext(prefix, ".trace"), schedule.to_text())
    leader_ids = LeaderSet(final.nodes_with_kind(gram.LEADER))
    _write(_with_ext(prefix, ".dot"), export_dot(final.graph, leader_ids, dict(enumerate(final.labels))))
    matches = gram.label_isomorphic(final, target)
    print(f"steps: {len(schedule.steps)}")
    print(f"edges: {final.graph.edge_count()}")
    print(f"matches construction: {'yes' if matches else 'no'}")
    return EXIT_OK if matches else EXIT_VERIFICATION_FAILED


def cmd_oracle(args: argparse.Namespace) -> int:
    from . import ssc

    g = _read_graph(args.graph)
    leaders = LeaderSet(_parse_id_list(args.leaders))
    report = ssc.randomized_ssc_check(g, leaders, trials=args.trials, seed=args.seed)
    print(report.summary())
    if args.out:
        _write(Path(args.out), report.to_csv())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfnets",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("construct", help="build a network family and write its files")
    p.add_argument("--family", choices=cons.FAMILIES, help="network family")
    p.add_argument("--nodes", type=int, help="total node count N")
    p.add_argument("--leaders", type=int, help="leader count")
    p.add_argument("--diameter", type=int, help="g3bar needs it; else N/leaders, or 2 for g2bar")
    p.add_argument("--config", help="key=value file with family, n, nl, d")
    p.add_argument("--out", help="output path prefix (default under ZFNETS_OUT_DIR)")
    p.add_argument("--format", choices=("dot", "edgelist", "all"), default="all",
                   help="restrict outputs (default: edge list + DOT + layout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check ZFS, unique process, and maximality")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--leaders", required=True, help="comma-separated leader ids")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="Laplacian spectrum and robustness metrics")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--eigenvalues", action="store_true", help="print the full spectrum")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="family comparison table at fixed N (CSV)")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--families", default="g1bar,g2bar,g3bar",
                   help="comma-separated families")
    p.add_argument("--leaders", default="2-10", help="leader counts, e.g. 2-10 or 2,3,5")
    p.add_argument("--g3-diameter", type=int, help="fixed g3bar diameter (default: range midpoint)")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("grammar", help="run a distributed grammar to fixpoint")
    p.add_argument("--rules", choices=GRAMMARS, required=True)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--leaders", type=int, required=True)
    p.add_argument("--diameter", type=int, help="optional: N/leaders for r1, 2 for r2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefer-pi2", action="store_true",
                   help="always take an edge-maximizing match when one exists")
    p.add_argument("--frames", help="directory for per-step DOT frames")
    p.add_argument("--out", help="output path prefix for trace and final DOT")
    p.set_defaults(func=cmd_grammar)

    p = sub.add_parser("oracle", help="randomized controllability cross-check")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--leaders", required=True, help="comma-separated leader ids")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="per-trial CSV output path")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return EXIT_INFEASIBLE
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except cons.InfeasibleSpecError as exc:
        print(f"error: infeasible spec: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except cons.ConstructionMismatchError as exc:
        print(f"error: construction self-check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except NonConvergenceError as exc:
        print(f"error: did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())

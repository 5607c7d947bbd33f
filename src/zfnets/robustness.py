"""Laplacian spectra and robustness metrics (algebraic connectivity, Kirchhoff
index), plus the family sweep that produces the comparison tables.

Eigenvalues come from LAPACK via numpy.linalg.eigvalsh.  The tests
cross-check them against two independent oracles in tests/oracles.py: a
cyclic Jacobi iteration and LDL^T inertia bisection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from . import constructions as cons
from .graph import Graph


class ConvergenceError(RuntimeError):
    """The eigensolver failed to converge on a Laplacian."""


@dataclass(frozen=True)
class SpectrumReport:
    """Laplacian spectrum of one graph with the derived robustness metrics."""

    eigenvalues: tuple[float, ...]
    lambda2: float
    kirchhoff: float
    n: int


def spectrum(g: Graph) -> SpectrumReport:
    """Full Laplacian spectrum plus algebraic connectivity and Kirchhoff index.

    kirchhoff is n times the sum of reciprocal nonzero-index eigenvalues for
    connected graphs and +inf otherwise.  A disconnected graph reports lambda2
    as exactly 0.0, not the LAPACK value, which may be a tiny positive
    number; eigenvalues stay as LAPACK gives them.  The one-node graph is
    trivially connected; its lambda2 is reported as +inf so that "lambda2 > 0
    iff connected" holds uniformly.  Raises ConvergenceError if LAPACK does
    not converge.
    """
    import numpy as np

    if g.n < 1:
        raise ValueError("need at least one node")
    try:
        ev = np.linalg.eigvalsh(g.laplacian())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Laplacian eigensolver failed: {exc}") from exc
    if g.n == 1:
        return SpectrumReport((float(ev[0]),), math.inf, 0.0, 1)
    if g.is_connected():
        lambda2, kirchhoff = float(ev[1]), float(g.n * np.sum(1.0 / ev[1:]))
    else:
        lambda2, kirchhoff = 0.0, math.inf
    return SpectrumReport(tuple(ev.tolist()), lambda2, kirchhoff, g.n)


@dataclass(frozen=True)
class SweepRow:
    family: str
    n: int
    n_leaders: int
    d: int  # measured diameter
    edges: int
    lambda2: float
    kirchhoff: float


CSV_HEADER = "family,N,NL,D,edges,lambda2,kirchhoff"


def sweep(
    n: int,
    families: Iterable[str] = (cons.G1_BAR, cons.G2_BAR, cons.G3_BAR),
    leader_values: Iterable[int] = range(2, 11),
    g3_d: int | None = None,
) -> tuple[list[SweepRow], list[str]]:
    """Metrics for every feasible (family, n_leaders) point at fixed n.

    Only g3bar is given a diameter: g3_d, or else the midpoint
    cons.default_g3_diameter; ConstructionSpec fills in the others.  Points
    it rejects (e.g. non-divisor leader counts for the layered family) are
    skipped and described in the returned notes list.  A family (under any
    alias) or a leader count named again adds no second row.
    """
    families = list(dict.fromkeys(map(cons.normalize_family, families)))
    rows: list[SweepRow] = []
    notes: list[str] = []
    for k in dict.fromkeys(leader_values):
        for family in families:
            d = None
            if family == cons.G3_BAR and k >= 1:  # the midpoint divides by 2k
                d = g3_d if g3_d is not None else cons.default_g3_diameter(n, k)
            try:
                net = cons.build(cons.ConstructionSpec(family, n, k, d))
            except cons.InfeasibleSpecError as exc:
                notes.append(f"skip family={family} n={n} nl={k}: {exc}")
                continue
            rep = spectrum(net.graph)
            rows.append(
                SweepRow(
                    family=family,
                    n=n,
                    n_leaders=k,
                    d=net.diameter,
                    edges=net.graph.edge_count(),
                    lambda2=rep.lambda2,
                    kirchhoff=rep.kirchhoff,
                )
            )
    return rows, notes


def sweep_csv(rows: Iterable[SweepRow]) -> str:
    """CSV text for sweep rows (floats at 9 significant digits)."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.family},{r.n},{r.n_leaders},{r.d},{r.edges},"
            f"{r.lambda2:.9g},{r.kirchhoff:.9g}"
        )
    return "\n".join(lines) + "\n"

"""Randomized strong-structural-controllability oracle.

Independent cross-check for the zero-forcing certificates: sample weighted
system matrices compatible with the graph structure (off-diagonal entry
nonzero exactly on edges, free diagonal), build the Kalman controllability
matrix for the leader-input pattern, and test its rank.  A leader set that
is a zero forcing set must pass every sampled realization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .graph import Graph, LeaderSet

DEFAULT_TOL = 1e-7
# Verdict band: smallest pivot >= 10x the rank threshold is a firm full-rank,
# <= 0.1x is a firm deficiency, anything between is indeterminate noise.
BAND = 10.0


class IndeterminateVerdict(RuntimeError):
    """Rank decision fell inside the numerical tolerance band."""


@dataclass(frozen=True)
class SystemRealization:
    """One sampled (M, B) pair plus the seed that generated it."""

    m_matrix: np.ndarray
    b_matrix: np.ndarray
    seed: int


def sample_realization(g: Graph, leaders: LeaderSet, seed: int) -> SystemRealization:
    """Sample M with edge weights in +/-[0.5, 2.0] and diagonal in [-1, 1].

    Magnitudes are bounded away from zero so the sample certifiably has the
    graph's exact sparsity pattern.  B has one column per leader with a
    single 1 in that leader's row.
    """
    leaders.validate_for(g)
    rng = np.random.default_rng(seed)
    n = g.n
    m = np.zeros((n, n))
    for u, v in g.edges():
        w = rng.uniform(0.5, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        m[u, v] = w
        m[v, u] = w
    diag = rng.uniform(-1.0, 1.0, size=n)
    m[np.arange(n), np.arange(n)] = diag
    b = np.zeros((n, len(leaders)))
    for col, leader in enumerate(leaders):
        b[leader, col] = 1.0
    return SystemRealization(m, b, seed)


def controllability_report(r: SystemRealization, tol: float = DEFAULT_TOL) -> tuple[int, str]:
    """(numerical rank, verdict) for the Kalman matrix [B, MB, ..., M^(n-1)B].

    Rank comes from the pivot magnitudes of a column-pivoted QR; each power
    block is max-normalized before stacking to keep the matrix conditioned.
    Verdict is one of "controllable", "uncontrollable", "indeterminate".
    """
    n = r.m_matrix.shape[0]
    blocks = []
    block = np.array(r.b_matrix, dtype=float)
    for _ in range(n):
        blocks.append(block)
        block = r.m_matrix @ block
        peak = np.max(np.abs(block))
        if peak > 0.0:
            block = block / peak
    kalman = np.hstack(blocks)
    r_factor = scipy.linalg.qr(kalman, mode="r", pivoting=True)[0]
    pivots = np.abs(np.diag(r_factor))[:n]
    if pivots.size == 0 or pivots[0] == 0.0:
        return 0, "uncontrollable"
    thresh = tol * pivots[0]
    rank = int(np.sum(pivots > thresh))
    smallest = float(np.min(pivots))
    if smallest >= BAND * thresh:
        return rank, "controllable"
    if smallest <= thresh / BAND:
        return rank, "uncontrollable"
    return rank, "indeterminate"


def is_controllable_pair(r: SystemRealization, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Kalman matrix has full rank n; borderline cases raise."""
    rank, verdict = controllability_report(r, tol)
    if verdict == "indeterminate":
        raise IndeterminateVerdict(
            f"rank {rank} of {r.m_matrix.shape[0]} is within the tolerance band; resample"
        )
    return verdict == "controllable"


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    rank: int
    verdict: str


@dataclass(frozen=True)
class SSCReport:
    n: int
    n_leaders: int
    trials: int
    pass_count: int
    fail_count: int
    indeterminate_count: int
    records: tuple[TrialRecord, ...]

    def summary(self) -> str:
        return (
            f"{self.pass_count}/{self.trials} trials controllable "
            f"({self.fail_count} uncontrollable, "
            f"{self.indeterminate_count} indeterminate)"
        )

    def to_csv(self) -> str:
        lines = ["trial,seed,rank,verdict"]
        lines.extend(
            f"{t.trial},{t.seed},{t.rank},{t.verdict}" for t in self.records
        )
        return "\n".join(lines) + "\n"


def randomized_ssc_check(
    g: Graph,
    leaders: LeaderSet,
    trials: int = 50,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_resamples: int = 3,
) -> SSCReport:
    """Run `trials` independent realizations and tally the verdicts.

    Indeterminate verdicts are resampled up to max_resamples times before
    being recorded as indeterminate.  Identical seeds give identical reports;
    each record stores the realization seed actually used, so any trial can
    be replayed with sample_realization.  tol must lie in (0, 1/BAND): from
    1/BAND up no trial can be controllable, as QR pivots never increase.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 < tol < 1.0 / BAND:
        raise ValueError(f"tol must lie in (0, {1.0 / BAND:g}), got {tol}")
    leaders.validate_for(g)
    master = np.random.default_rng(seed)
    per_trial = max_resamples + 1
    all_seeds = master.integers(0, 2**63 - 1, size=trials * per_trial)
    records: list[TrialRecord] = []
    counts = {"controllable": 0, "uncontrollable": 0, "indeterminate": 0}
    for t in range(trials):
        rank, verdict, used = 0, "indeterminate", 0
        for attempt in range(per_trial):
            used = int(all_seeds[t * per_trial + attempt])
            realization = sample_realization(g, leaders, used)
            rank, verdict = controllability_report(realization, tol)
            if verdict != "indeterminate":
                break
        counts[verdict] += 1
        records.append(TrialRecord(t, used, rank, verdict))
    return SSCReport(
        n=g.n,
        n_leaders=len(leaders),
        trials=trials,
        pass_count=counts["controllable"],
        fail_count=counts["uncontrollable"],
        indeterminate_count=counts["indeterminate"],
        records=tuple(records),
    )

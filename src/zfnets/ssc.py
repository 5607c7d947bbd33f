"""Randomized strong-structural-controllability oracle, exact over GF(PRIME).

Cross-check for the zero-forcing certificates: sample integer matrices M
with the graph's pattern (nonzero exactly on edges, free diagonal), put one
input column on each leader, and compute the rank of the Kalman matrix
[B, MB, ..., M^(n-1)B] exactly mod PRIME.  No tolerance is involved.

"controllable" certifies the integer realization over Q, since a Kalman
minor that is nonzero mod PRIME is nonzero.  A zero forcing set (ZFS) of
leaders is never "uncontrollable": the zero-forcing/PBH argument works over
any field.  A rank deficit gives an eigenvector x of M^T (over the algebraic
closure) orthogonal to the M-invariant Krylov space, so x is zero on the
leaders.  If x is zero on v and on every neighbour of v but u, entry v of
x^T (M - lambda I) = 0 reads x_u M[u, v] = 0, so x_u = 0: a force.  Forcing
from a ZFS zeroes all of x, a contradiction.  This needs only M[u, v] != 0
mod PRIME on edges, which holds for weights in +/-[1, MAX_WEIGHT].  On other
leaders "uncontrollable" is exact over GF(PRIME).  The weights are uniform
there, so if some realization of the pattern is controllable over GF(PRIME),
a trial is falsely uncontrollable over Q with probability at most
n(n-1)/(PRIME-1), the degree bound of a Kalman minor (Schwartz, J. ACM 1980).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, LeaderSet

PRIME = 33_554_393  # largest prime below 2**25
# [-MAX_WEIGHT, MAX_WEIGHT] holds every residue mod PRIME exactly once.
MAX_WEIGHT = (PRIME - 1) // 2
# Largest n with n * PRIME**2 < 2**63: a dot product of n residues fits int64.
MAX_N = (2**63 - 1) // PRIME**2


def _check_size(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"the exact oracle handles at most {MAX_N} nodes, got {n}")


@dataclass(frozen=True)
class SystemRealization:
    """One sampled integer (M, B) pair plus the seed that generated it."""

    m_matrix: np.ndarray
    b_matrix: np.ndarray
    seed: int


def sample_realization(g: Graph, leaders: LeaderSet, seed: int) -> SystemRealization:
    """Sample int64 M with edge weights in +/-[1, MAX_WEIGHT], diagonal in
    [-MAX_WEIGHT, MAX_WEIGHT], and B with a single 1 per leader column."""
    leaders.validate_for(g)
    n = g.n
    _check_size(n)
    rng = np.random.default_rng(seed)
    u, v = np.array(g.edges(), dtype=np.int64).reshape(-1, 2).T
    w = rng.integers(-MAX_WEIGHT, MAX_WEIGHT, size=u.size)
    w[w >= 0] += 1  # [-W, W) -> +/-[1, W]
    m = np.zeros((n, n), dtype=np.int64)
    m[u, v] = w
    m[v, u] = w
    np.fill_diagonal(m, rng.integers(-MAX_WEIGHT, MAX_WEIGHT + 1, size=n))
    b = np.zeros((n, len(leaders)), dtype=np.int64)
    b[list(leaders), np.arange(len(leaders))] = 1
    return SystemRealization(m, b, seed)


def controllability_report(r: SystemRealization) -> tuple[int, str]:
    """(rank mod PRIME, "controllable" iff rank == n else "uncontrollable").

    Block Krylov elimination on row vectors: basis rows stay fully reduced
    (1 at their pivot, 0 at every other pivot), so one int64 matmul reduces a
    new block against all of them.  Only the vectors the last block added are
    multiplied by M; it stops at rank n or when a block adds nothing.
    """
    m, b = r.m_matrix, r.b_matrix
    n = m.shape[0]
    _check_size(n)
    if m.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise ValueError("a realization must hold integer matrices")
    m_t = m.T.astype(np.int64) % PRIME
    basis = np.zeros((0, n), dtype=np.int64)
    pivots: list[int] = []
    block = b.T.astype(np.int64) % PRIME
    while len(block) and len(pivots) < n:
        if pivots:
            block = (block - block[:, pivots] @ basis) % PRIME
        added, new_pivots = [], []
        for i in range(len(block)):  # Gauss-Jordan on what the basis missed
            nonzero = np.flatnonzero(block[i])
            if not nonzero.size:
                continue
            p = int(nonzero[0])
            block[i] = block[i] * pow(int(block[i, p]), -1, PRIME) % PRIME
            col = block[:, p].copy()
            col[i] = 0
            block = (block - np.outer(col, block[i])) % PRIME
            added.append(i)
            new_pivots.append(p)
        if not added:
            break
        block = block[added]
        basis = np.vstack([(basis - basis[:, new_pivots] @ block) % PRIME, block])
        pivots += new_pivots
        block = block @ m_t % PRIME
    rank = len(pivots)
    return rank, "controllable" if rank == n else "uncontrollable"


def is_controllable_pair(r: SystemRealization) -> bool:
    """True iff the Kalman matrix has rank n mod PRIME."""
    return controllability_report(r)[0] == r.m_matrix.shape[0]


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
    indeterminate_count: int  # always 0: the rank is exact
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
) -> SSCReport:
    """Run `trials` independent realizations and tally the verdicts.

    Identical seeds give identical reports; each record stores its
    realization seed, so any trial can be replayed with sample_realization.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    leaders.validate_for(g)
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)
    records = []
    for t, trial_seed in enumerate(seeds.tolist()):
        rank, verdict = controllability_report(sample_realization(g, leaders, trial_seed))
        records.append(TrialRecord(t, trial_seed, rank, verdict))
    passed = sum(rec.verdict == "controllable" for rec in records)
    return SSCReport(
        n=g.n,
        n_leaders=len(leaders),
        trials=trials,
        pass_count=passed,
        fail_count=trials - passed,
        indeterminate_count=0,
        records=tuple(records),
    )

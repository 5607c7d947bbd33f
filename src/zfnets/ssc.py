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

The rank is exact in float64 BLAS (Dumas, Giorgi & Pernet, ACM TOMS 35(3),
2008).  Residues r have |r| <= 2**24 - 16, so 32 products plus a residue stay
below 2**53 - 2**24: every partial sum is an exact integer, in any order, with
or without FMA.  Longer products split a factor into lo + 4096 hi, |lo| <=
2**11 and |hi| <= 2**12, and each half sums to below 2**13 * 2**36 = 2**49 for
n <= MAX_N.  _reduce maps an integer |x| <= 2**53 - 2**24 to r = x - PRIME *
rint(x * fl(1/PRIME)): the quotient is off by under 2**-23, so |r| <= (PRIME -
1)/2 + 4 = 2**24 - 16, x - r is exact, and r == 0 exactly when PRIME divides x.
Trials run in lock-step batches of at most _BATCH_ELEMENTS operator entries,
a fixed working-set budget: one batch holds the 20 trials of a check at
N=120, and 9 trials at N=240.  Each realization is drawn straight into the
batch's float operator stack, since its weights are already residues, and
_ranks takes every elimination step for the whole batch at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, LeaderSet

PRIME = 33_554_393  # largest prime below 2**25
# [-MAX_WEIGHT, MAX_WEIGHT] holds every residue mod PRIME exactly once.
MAX_WEIGHT = (PRIME - 1) // 2
MAX_N = 2**13  # the split products are exact up to here
_BATCH_ELEMENTS = 2**19


def _check_size(n: int) -> None:
    if n > MAX_N:
        raise ValueError(f"the exact oracle handles at most {MAX_N} nodes, got {n}")


@dataclass(frozen=True)
class SystemRealization:
    """One sampled integer (M, B) pair plus the seed that generated it."""

    m_matrix: np.ndarray
    b_matrix: np.ndarray
    seed: int


def _draw(m: np.ndarray, seed: int, u: np.ndarray, v: np.ndarray) -> None:
    """Edge weights in +/-[1, MAX_WEIGHT] into m[u, v] and m[v, u], diagonal in [-W, W]."""
    rng = np.random.default_rng(seed)
    w = rng.integers(-MAX_WEIGHT, MAX_WEIGHT, size=u.size)
    w[w >= 0] += 1  # [-W, W) -> +/-[1, W]
    m[u, v] = m[v, u] = w
    np.fill_diagonal(m, rng.integers(-MAX_WEIGHT, MAX_WEIGHT + 1, size=len(m)))


def sample_realization(g: Graph, leaders: LeaderSet, seed: int) -> SystemRealization:
    """Sample int64 M with edge weights in +/-[1, MAX_WEIGHT], diagonal in
    [-MAX_WEIGHT, MAX_WEIGHT], and B with a single 1 per leader column."""
    leaders.validate_for(g)
    _check_size(g.n)
    m = np.zeros((g.n, g.n), dtype=np.int64)
    _draw(m, seed, *np.array(g.edges(), dtype=np.intp).reshape(-1, 2).T)
    b = (np.arange(g.n)[:, None] == np.array(leaders.ids)).astype(np.int64)
    return SystemRealization(m, b, seed)


def _reduce(x: np.ndarray) -> np.ndarray:
    """x - PRIME * rint(x / PRIME), in place."""
    q = x * (1.0 / PRIME)
    return np.subtract(x, np.multiply(np.rint(q, out=q), PRIME, out=q), out=x)


def _submul(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c - a @ b mod PRIME, in place on c, for stacks of residues."""
    if a.shape[-1] > 32:  # split a into 12-bit halves
        hi = np.rint(a * (1.0 / 4096))
        c -= 4096 * _reduce(hi @ b)
        a = a - 4096 * hi
    return _reduce(np.subtract(c, a @ b, out=c))


def _ranks(a: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Rank mod PRIME of [B, MB, ..., M^(n-1)B] for each trial of a batch.

    Block Krylov elimination on the rows of a[t] = M^T (residues |r| <=
    MAX_WEIGHT, overwritten) and block[t] = B^T.  With E the fully reduced
    basis on its pivot rows, y (I - E) is y reduced, so a trial keeps
    A = M^T (I - E): its next block X A comes out reduced, and new rows X
    with pivots C make A - A[:, C] X, 0 on the pivot columns.

    The updates are delayed: A = A0 - U V.  A step appends A[:, C] =
    A0[:, C] - U V[:, C] to the panel U and X to V, and the next block is
    -X A0 + (X U) V, so it touches O(n w) entries of A0 per row of X, not
    all of A.  U V[:, C] and (X U) V sum at most 32 products, the panel's
    width, and need no split; X A0 and X U sum over the n coordinates and
    split X.  A block wider than 32 fills a panel alone, and _submul splits
    its products too.  When the next block would overfill the panel, every
    trial moves the same number of its pivot coordinates (the fewest any
    trial has) to the end and cuts them off, since A and the block are 0
    there and so is every later X, and U V is folded into A0 with one
    product.  A trial stops at rank n or when a block adds nothing.
    """
    trials, width, n = block.shape
    ranks = np.zeros(trials, dtype=np.intp)
    if not (n and width):
        return ranks
    ids, rows, rank, block = np.arange(trials), np.arange(width), ranks.copy(), _reduce(block * 1.0)
    cap, used = max(32, width), 0
    ut, v = np.empty((trials, cap, n)), np.empty((trials, cap, n))  # U^T and V
    pivots = np.zeros((trials, n), dtype=bool)
    while True:
        at, cols = np.arange(ids.size), np.empty((ids.size, width), dtype=np.intp)
        for i in rows:  # fraction-free Gauss-Jordan
            row = block[:, i]
            cols[:, i] = col = (row != 0).argmax(1)
            f = block[at, :, col]
            head = np.where(f[:, i], f[:, i], 1)[:, None, None]
            f[:, i] = 0
            _reduce(np.subtract(block * head, f[:, :, None] * row[:, None, :], out=block))
        heads = block[at[:, None], rows, cols]
        block *= np.reshape([pow(int(h), -1, PRIME) if h else 0 for h in heads.ravel().tolist()], (-1, width, 1))
        _reduce(block)
        found = heads != 0
        rank += found.sum(1)
        keep = found.any(1) & (rank < n)
        if not keep.all():
            ranks[ids] = rank
            if not keep.any():
                return ranks
            ids, a, ut, v, pivots, block, rank, cols, found = (
                x[keep] for x in (ids, a, ut, v, pivots, block, rank, cols, found))
            at = at[:ids.size]
        pivots[np.nonzero(found)[0], cols[found]] = True
        # A[:, C]^T = A0[:, C]^T - V[:, C]^T U^T
        ut[:, used:used + width] = _submul(a[at[:, None], :, cols], v[:, :used][at[:, None], :, cols], ut[:, :used])
        v[:, used:used + width] = block
        used += width
        xu = _submul(np.zeros((ids.size, width, used)), block, ut[:, :used].transpose(0, 2, 1))  # -X U
        block = _submul(_submul(np.zeros(block.shape), block, a), xu, v[:, :used])
        if used + width > cap:  # cut pivot coordinates, then fold the panel into A0
            spare = pivots.sum(1).min()
            drop, m = pivots & (np.cumsum(pivots, 1) <= spare), pivots.shape[1] - spare
            dest = np.nonzero(drop)[1].reshape(-1, spare)  # the first are below m
            source = m + np.argsort(drop[:, m:], axis=1, kind="stable")  # kept tail coordinates first
            for x in (a, ut, v, block, pivots):
                x[at[:, None], ..., dest] = x[at[:, None], ..., source]
            a[at[:, None], dest] = a[at[:, None], source]
            a, ut, v, block, pivots = a[:, :m, :m], ut[..., :m], v[..., :m], block[..., :m], pivots[:, :m]
            _submul(a, ut[:, :used].transpose(0, 2, 1), v[:, :used])
            used = 0


def controllability_report(r: SystemRealization) -> tuple[int, str]:
    """(rank mod PRIME, "controllable" iff rank == n else "uncontrollable")."""
    m, b, n = r.m_matrix, r.b_matrix, len(r.m_matrix)
    _check_size(n)
    if m.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise ValueError("a realization must hold integer matrices")
    rank = int(_ranks(*(_reduce(x.T[None].astype(np.int64) % PRIME * 1.0) for x in (m, b)))[0])
    return rank, "controllable" if rank == n else "uncontrollable"


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
    _check_size(g.n)
    n, (u, v) = g.n, np.array(g.edges(), dtype=np.intp).reshape(-1, 2).T
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials).tolist()
    batch = min(trials, max(1, _BATCH_ELEMENTS // max(1, n * n)))
    bt = np.broadcast_to(np.arange(n) == np.array(leaders.ids)[:, None], (batch, len(leaders), n))
    ranks: list[int] = []
    for start in range(0, trials, batch):
        chunk = seeds[start:start + batch]
        a = np.zeros((len(chunk), n, n))
        for t, trial_seed in enumerate(chunk):
            _draw(a[t], trial_seed, u, v)  # M is symmetric, so this is M^T, in residues
        ranks += _ranks(a, bt[:len(chunk)]).tolist()
    records = tuple(TrialRecord(t, s, r, "controllable" if r == n else "uncontrollable")
                    for t, (s, r) in enumerate(zip(seeds, ranks)))
    passed = ranks.count(n)
    return SSCReport(n=n, n_leaders=len(leaders), trials=trials, pass_count=passed,
                     fail_count=trials - passed, indeterminate_count=0, records=records)

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
With a free diagonal the generic rank is the size of the leaders' components
(Lin, IEEE TAC 19(3), 1974), so a tally speaks for almost every realization;
only verify's ZFS verdict speaks for all (Mayeda & Yamada, SICON 17(1), 1979).

The rank is exact in float64 BLAS (Dumas, Giorgi & Pernet, ACM TOMS 35(3),
2008).  Residues r have |r| <= 2**24 - 16, so 32 products plus a residue stay
below 2**53 - 2**24: every partial sum is an exact integer, in any order, with
or without FMA.  Longer products split a factor into lo + 4096 hi, |lo| <=
2**11 and |hi| <= 2**12, and each half sums to below 2**13 * 2**36 = 2**49 for
n <= MAX_N.  The halves are stacked as one operand [hi; lo], so a split
product is one BLAS call that streams the other factor once, and the block
of a Krylov step is split once for both of its products.  _reduce maps an
integer |x| <= 2**53 - 2**24 to r = x - PRIME * rint(x * fl(1/PRIME)): the
quotient is off by under 2**-23, so |r| <= (PRIME - 1)/2 + 4 = 2**24 - 16,
x - r is exact, and r == 0 exactly when PRIME divides x.

Gauss-Jordan elimination scales each pivot row to head 1 as soon as its head
is found, in the same pass that clears the head's column from the other rows:
that pass subtracts 1 - 1/head times the pivot row from itself, with 1/head
in [0, PRIME), so |1 - 1/head| < 2**25 keeps those products below 2**49
too.  The reduced row echelon form is unique for the chosen pivot columns,
and each column is chosen from a row's nonzero pattern, which no nonzero
scale changes, so the ranks are those of fraction-free elimination.  A
row's heads across the batch are inverted together by Montgomery's batch
inversion (Math. Comp. 48, 1987): one pow per batch of heads and three
multiplications per head.

Trials run in lock-step batches of at most _BATCH_ELEMENTS operator entries,
a fixed working-set budget: one batch holds the 20 trials of a check at
N=120, and 9 trials at N=240.  Each trial draws from its own
default_rng(seed) stream, so any record replays through sample_realization,
and a batch's weights, already residues, go straight into its float operator
stack with three flat-index writes.  _ranks takes every elimination step for
the whole batch at once.
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


def _invert(heads: list[int]) -> list[int]:
    """pow(h, -1, PRIME) for each h, 0 for h == 0, with a single pow.

    Montgomery's batch inversion (Math. Comp. 48, 1987): prefix products of
    the nonzero heads, one inverse of the last, then a backward pass peels
    each inverse off it, three multiplications per head.
    """
    prefix, p = [], 1
    for h in heads:
        prefix.append(p)
        if h:
            p = p * h % PRIME
    inv, out = pow(p, -1, PRIME), [0] * len(heads)
    for i in range(len(heads) - 1, -1, -1):
        if heads[i]:
            out[i], inv = inv * prefix[i] % PRIME, inv * heads[i] % PRIME
    return out


def _realize(out: np.ndarray, seeds: list[int], u: np.ndarray, v: np.ndarray) -> None:
    """Draw trial t's M from default_rng(seeds[t]) into the zeroed out[t]:
    edge weights in +/-[1, MAX_WEIGHT] at (u, v) and (v, u), diagonal in
    [-MAX_WEIGHT, MAX_WEIGHT].  M is symmetric, so out[t] is M^T too."""
    trials, n = len(seeds), out.shape[-1]
    w, d = np.empty((trials, u.size), dtype=np.int64), np.empty((trials, n), dtype=np.int64)
    for t, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        w[t] = rng.integers(-MAX_WEIGHT, MAX_WEIGHT, size=u.size)
        d[t] = rng.integers(-MAX_WEIGHT, MAX_WEIGHT + 1, size=n)
    w += w >= 0  # [-W, W) -> +/-[1, W]
    base, flat = np.arange(trials)[:, None] * (n * n), out.reshape(-1)
    flat[base + u * n + v] = flat[base + v * n + u] = w
    flat[base + np.arange(n) * (n + 1)] = d


def sample_realization(g: Graph, leaders: LeaderSet, seed: int) -> SystemRealization:
    """Sample int64 M with edge weights in +/-[1, MAX_WEIGHT], diagonal in
    [-MAX_WEIGHT, MAX_WEIGHT], and B with a single 1 per leader column."""
    leaders.validate_for(g)
    _check_size(g.n)
    m = np.zeros((1, g.n, g.n), dtype=np.int64)
    _realize(m, [seed], *np.array(g.edges(), dtype=np.intp).reshape(-1, 2).T)
    b = (np.arange(g.n)[:, None] == np.array(leaders)).astype(np.int64)
    return SystemRealization(m[0], b, seed)


def _reduce(x: np.ndarray, copy: bool = False) -> np.ndarray:
    """x - PRIME * rint(x / PRIME), in place unless copy is set."""
    q = x * (1.0 / PRIME)
    return np.add(x, np.multiply(np.rint(q, out=q), -PRIME, out=q), out=q if copy else x)


def _split(x: np.ndarray) -> np.ndarray:
    """x = lo + 4096 hi, |lo| <= 2**11 and |hi| <= 2**12, stacked as [hi; lo]."""
    hi = np.rint(x * (1.0 / 4096))
    return np.concatenate((hi, x - 4096 * hi), axis=-2)


def _negmul(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """-(x @ b) mod PRIME from x's stacked split s = _split(x): one product."""
    p = s @ b
    h = p.shape[-2] // 2
    hi = _reduce(p[..., :h, :], copy=True)  # contiguous, unlike p's halves
    return _reduce(np.subtract(np.multiply(hi, -4096, out=hi), p[..., h:, :], out=hi))


def _submul(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c - a @ b mod PRIME, in place on c, for stacks of residues."""
    if a.shape[-1] > 32:
        return _reduce(np.add(c, _negmul(_split(a), b), out=c))
    return _reduce(np.subtract(c, a @ b, out=c))


def _next_block(x: np.ndarray, a0: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """-X A0 + (X U) V mod PRIME, splitting X once for both of its products."""
    s = _split(x)
    return _submul(_negmul(s, a0), _negmul(s, u), v)


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
    share one split of X (_next_block).  A block wider than 32 fills a panel
    alone, and _submul splits its products too.  When the next block would
    overfill the panel, every trial moves the same number of its pivot
    coordinates (the fewest any trial has) to the end and cuts them off,
    since A and the block are 0 there and so is every later X, and U V is
    folded into A0 with one product.  A trial at rank n, or whose block adds
    nothing, keeps a zero block, so its rank stops growing; the batch stops
    when no trial below rank n adds a row.
    """
    trials, width, n = block.shape
    rank = np.zeros(trials, dtype=np.intp)
    if not (n and width):
        return rank
    at, rows, block = np.arange(trials), np.arange(width), _reduce(block * 1.0)
    cap, used = max(32, width), 0
    ut, v = np.empty((trials, cap, n)), np.empty((trials, cap, n))  # U^T and V
    pivots = np.zeros((trials, n), dtype=bool)
    cols, found = np.empty((trials, width), dtype=np.intp), np.empty((trials, width), dtype=bool)
    while True:
        for i in rows:  # Gauss-Jordan, each pivot row scaled to head 1 when found
            row = block[:, i]
            cols[:, i] = col = (row != 0).argmax(1)
            f = block[at, :, col]
            found[:, i] = f[:, i] != 0
            inv = np.array(_invert(f[:, i].astype(np.int64).tolist()), dtype=float)
            f = _reduce(np.multiply(f, inv[:, None], out=f))
            f[:, i] = 1 - inv  # row i - (1 - inv) row i = inv row i
            _reduce(np.subtract(block, f[:, :, None] * row[:, None, :], out=block))
        rank += found.sum(1)
        if not (found.any(1) & (rank < n)).any():
            return rank
        pivots[np.nonzero(found)[0], cols[found]] = True
        # A[:, C]^T = A0[:, C]^T - V[:, C]^T U^T
        ut[:, used:used + width] = _submul(a[at[:, None], :, cols], v[:, :used][at[:, None], :, cols], ut[:, :used])
        v[:, used:used + width] = block
        used += width
        block = _next_block(block, a, ut[:, :used].transpose(0, 2, 1), v[:, :used])
        if used + width > cap:  # cut pivot coordinates, then fold the panel into A0
            spare = pivots.sum(1).min()
            drop, m = pivots & (np.cumsum(pivots, 1) <= spare), pivots.shape[1] - spare
            dest = np.nonzero(drop)[1].reshape(trials, spare)  # the first are below m
            source = m + np.argsort(drop[:, m:], axis=1, kind="stable")  # kept tail coordinates first
            for x in (a, ut, v, block, pivots):
                x[at[:, None], ..., dest] = x[at[:, None], ..., source]
            a[at[:, None], dest] = a[at[:, None], source]
            a, ut, v, block, pivots = a[:, :m, :m], ut[..., :m], v[..., :m], block[..., :m], pivots[:, :m]
            _submul(a, ut[:, :used].transpose(0, 2, 1), v[:, :used])
            used = 0


def controllability_report(r: SystemRealization) -> tuple[int, str]:
    """(rank mod PRIME, "controllable" iff rank == n else "uncontrollable")."""
    m, b = r.m_matrix, r.b_matrix
    if m.ndim != 2 or b.ndim != 2 or not m.shape[0] == m.shape[1] == b.shape[0]:
        raise ValueError(f"a realization needs a square M and a B with M's row count,"
                         f" got shapes {m.shape} and {b.shape}")
    n = len(m)
    _check_size(n)
    if m.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise ValueError("a realization must hold integer matrices")
    # widen within the input's kind, so that no entry wraps, then reduce mod PRIME
    residues = (x.T[None].astype(np.uint64 if x.dtype.kind == "u" else np.int64) % PRIME for x in (m, b))
    rank = int(_ranks(*(_reduce(x * 1.0) for x in residues))[0])
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
    bt = np.broadcast_to(np.arange(n) == np.array(leaders)[:, None], (batch, len(leaders), n))
    ranks: list[int] = []
    for start in range(0, trials, batch):
        chunk = seeds[start:start + batch]
        a = np.zeros((len(chunk), n, n))
        _realize(a, chunk, u, v)  # M^T in residues
        ranks += _ranks(a, bt[:len(chunk)]).tolist()
    records = tuple(TrialRecord(t, s, r, "controllable" if r == n else "uncontrollable")
                    for t, (s, r) in enumerate(zip(seeds, ranks)))
    passed = ranks.count(n)
    return SSCReport(n=n, n_leaders=len(leaders), trials=trials, pass_count=passed,
                     fail_count=trials - passed, indeterminate_count=0, records=records)

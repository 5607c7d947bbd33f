"""Independent oracles used to cross-check the package implementations.

Each oracle takes a deliberately different route from the code under test:
eigenvalues via a cyclic Jacobi iteration and via LDL^T inertia counts +
bisection (vs. LAPACK's eigvalsh in the package), zero-forcing closure,
traces and uniqueness via naive rescanning (vs. the heap-ordered worklist),
addable edges by rerunning that rescan on every G + uv (vs. the edge bound
and the resumed forcing record), grammar matches by checking every binding
of every rule (vs. the incremental match index), and Kalman rank over Q via Fraction
elimination on the exact integer powers and mod a prime via Python-int
elimination of the explicit Kalman matrix (vs. lock-step block Krylov
elimination in float64 BLAS).

It also holds the small helpers only the tests need: the per-family edge
terms of the closed-form count, the edge list of a forcing word, BFS
distances from one source (the per-source reference for Graph.diameter),
the forcing-candidate rescan and the boolean form of the controllability
report.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np
import scipy.linalg

from zfnets.grammar import LabeledGraph, Match, Rule
from zfnets.graph import Graph
from zfnets.ssc import SystemRealization, controllability_report
from zfnets.zero_forcing import ForcingTrace


def edge_terms_g1(n_leaders: int, d: int) -> tuple[int, int]:
    """(clique edges across the d layers, inter-layer edges) for G1_BAR."""
    k = n_leaders
    e1 = d * (k * (k - 1) // 2)
    e2 = (d - 1) * (k * (k + 1) // 2)
    return e1, e2


def edge_terms_g2(n: int, n_leaders: int) -> tuple[int, int, int]:
    """(bipartite leader-follower edges, path edges, leader clique edges) for G2_BAR."""
    k = n_leaders
    return (n - k) * (k - 1), n - k, k * (k - 1) // 2


def word_edges(k: int, word) -> list[tuple[int, int]]:
    """Edges of build_word(k, word), listed one by one from its definition."""
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
    active = list(range(k))
    for t, slot in enumerate(word):
        edges.extend((a, k + t) for a in active)
        active[slot] = k + t
    return edges


def bfs_distances(g: Graph, source: int) -> list[int | None]:
    """BFS distances from source; None marks unreachable vertices."""
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if dist[y] is None:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def is_controllable_pair(r: SystemRealization) -> bool:
    """True iff the Kalman matrix has rank n mod PRIME."""
    return controllability_report(r)[0] == r.m_matrix.shape[0]


class JacobiNonConvergence(RuntimeError):
    """The Jacobi oracle did not reach its tolerance within the sweep cap."""

    def __init__(self, sweeps: int, off_norm: float, target: float):
        super().__init__(
            f"no convergence after {sweeps} sweeps: off-diagonal norm "
            f"{off_norm:.3e} > target {target:.3e}"
        )
        self.sweeps = sweeps
        self.off_norm = off_norm
        self.target = target


def jacobi_eigenvalues(a, tol: float = 1e-10, max_sweeps: int = 100) -> np.ndarray:
    """All eigenvalues of a real symmetric matrix, ascending.

    Cyclic Jacobi: sweep the upper triangle, rotating each (p, q) plane to
    annihilate a[p, q]; stop once the off-diagonal Frobenius mass drops below
    tol times the matrix norm.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + np.max(np.abs(a)))):
        raise ValueError("matrix is not symmetric")
    a = (a + a.T) / 2.0
    norm = float(np.sqrt(np.sum(a * a)))
    if n == 1 or norm == 0.0:
        return np.sort(np.diag(a).copy())
    target = tol * norm
    # Entries below this floor cannot push the off-norm above target, so
    # rotating them away is wasted work.
    floor = target / (n * n)
    off = _off_norm(a)
    sweeps = 0
    while off > target:
        if sweeps >= max_sweeps:
            raise JacobiNonConvergence(sweeps, off, target)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= floor:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
        sweeps += 1
        off = _off_norm(a)
    return np.sort(np.diag(a).copy())


def _off_norm(a: np.ndarray) -> float:
    # Summing the off-diagonal squares directly avoids the catastrophic
    # cancellation of ||A||^2 - ||diag||^2 once the off mass is tiny.
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.sqrt(np.sum(off * off)))


def _inertia_negatives(d: np.ndarray, tiny: float) -> int | None:
    """Count negative eigenvalues of an LDL^T block-diagonal factor.

    Returns None when a block is numerically singular (the shift hit an
    eigenvalue) so the caller can nudge and retry.
    """
    n = d.shape[0]
    neg = 0
    i = 0
    while i < n:
        if i + 1 < n and d[i, i + 1] != 0.0:
            dii, djj, dij = d[i, i], d[i + 1, i + 1], d[i, i + 1]
            det = dii * djj - dij * dij
            trace = dii + djj
            if abs(det) <= tiny * tiny:
                return None
            if det < 0.0:
                neg += 1
            elif trace < 0.0:
                neg += 2
            i += 2
        else:
            if abs(d[i, i]) <= tiny:
                return None
            if d[i, i] < 0.0:
                neg += 1
            i += 1
    return neg


def bisection_eigenvalues(a: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by inertia bisection, ascending."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return np.zeros(0)
    radii = np.sum(np.abs(a), axis=1) - np.abs(np.diag(a))
    lo = float(np.min(np.diag(a) - radii)) - 1.0
    hi = float(np.max(np.diag(a) + radii)) + 1.0
    scale = max(abs(lo), abs(hi), 1.0)
    tiny = 1e-14 * scale

    def count_below(x: float) -> int:
        shift = 0.0
        for _ in range(40):
            _, d, _ = scipy.linalg.ldl(a - (x + shift) * np.eye(n))
            neg = _inertia_negatives(d, tiny)
            if neg is not None:
                return neg
            shift += 3.7e-12 * scale  # retreat off the exact eigenvalue
        raise RuntimeError(f"inertia count kept hitting singular shifts at {x}")

    out = np.empty(n)
    for k in range(n):
        a_lo, a_hi = lo, hi
        while a_hi - a_lo > tol * scale:
            mid = 0.5 * (a_lo + a_hi)
            if count_below(mid) >= k + 1:
                a_hi = mid
            else:
                a_lo = mid
        out[k] = 0.5 * (a_lo + a_hi)
    return out


def closure_bruteforce(g: Graph, black: set[int]) -> frozenset[int]:
    """Zero-forcing closure by repeatedly rescanning every black node."""
    black = set(black)
    changed = True
    while changed:
        changed = False
        for v in sorted(black):
            white = [u for u in g.neighbors(v) if u not in black]
            if len(white) == 1:
                black.add(white[0])
                changed = True
    return frozenset(black)


def addable_edges_exhaustive(g: Graph, black: set[int]) -> list[tuple[int, int]]:
    """Every non-edge uv, in lexicographic order, such that black forces all of G + uv."""
    out = []
    for u, v in g.non_edges():
        h = g.copy()
        h.add_edge(u, v)
        if len(closure_bruteforce(h, black)) == g.n:
            out.append((u, v))
    return out


def forcing_candidates(g: Graph, black) -> list[tuple[int, int]]:
    """All (forcer, forced) moves available right now, sorted by forcer id.

    A forcer is a black node with exactly one white neighbor, so each forcer
    appears at most once.
    """
    black_set = set(black)
    for v in black_set:
        if not 0 <= v < g.n:
            raise ValueError(f"black vertex {v} out of range for graph on {g.n} nodes")
    out: list[tuple[int, int]] = []
    for v in sorted(black_set):
        white = [u for u in g.neighbors(v) if u not in black_set]
        if len(white) == 1:
            out.append((v, white[0]))
    return out


def derived_set_rescan(g: Graph, black: set[int]) -> ForcingTrace:
    """Forcing trace that rescans every black node before each step.

    Applies the candidate with the smallest forcer id, the documented order
    of zfnets.zero_forcing.derived_set.
    """
    black_set = set(black)
    initial = frozenset(black_set)
    steps: list[tuple[int, int]] = []
    while True:
        cands = forcing_candidates(g, black_set)
        if not cands:
            break
        v, u = cands[0]
        steps.append((v, u))
        black_set.add(u)
    return ForcingTrace(initial, tuple(steps), frozenset(black_set))


def is_unique_rescan(g: Graph, black: set[int]) -> bool:
    """True iff every rescan finds exactly one distinct node to force."""
    black_set = set(black)
    while True:
        cands = forcing_candidates(g, black_set)
        if not cands:
            return True
        forced = {u for _, u in cands}
        if len(forced) > 1:
            return False
        black_set.add(next(iter(forced)))


def applicable_matches_rescan(state: LabeledGraph, rules: list[Rule]) -> list[Match]:
    """Listed matches by checking every left x right binding of every rule.

    Rules in list order, bindings in (v, u) order, and only the first binding
    of each (rule, effect) key, the documented order of
    zfnets.grammar._MatchIndex.matches.  A binding passes when its labels
    have the rule's kinds, its guard holds and, for a connect rule, its edge
    is absent; its effect is the sorted edge plus the relabels sorted by node.
    Both are written here, not taken from zfnets.grammar, so the oracle
    shares no predicate with the index it grades.
    """
    labels, g = state.labels, state.graph
    out: list[Match] = []
    seen: set = set()
    for rule in rules:
        lefts = [v for v in range(g.n) if labels[v].kind == rule.left]
        if rule.right is None:
            candidates = [(v,) for v in lefts]
        else:
            candidates = [(v, u) for v in lefts for u in range(g.n)
                          if u != v and labels[u].kind == rule.right]
        for nodes in candidates:
            la = labels[nodes[0]]
            lb = labels[nodes[1]] if len(nodes) == 2 else None
            if not rule.guard(la, lb) or (rule.connect and g.has_edge(*nodes)):
                continue
            relabels = sorted(
                (node, relabel(la, lb))
                for node, relabel in zip(nodes, (rule.relabel_left, rule.relabel_right))
                if relabel is not None)
            key = (rule.name, tuple(sorted(nodes)) if rule.connect else None, tuple(relabels))
            if key not in seen:
                seen.add(key)
                out.append(Match(rule, nodes))
    return out


def kalman_rank_exact(m, b) -> int:
    """Rank over Q of [B, MB, ..., M^(n-1)B] for integer M and B.

    Builds every power with Python integers, then runs Gaussian elimination
    on Fractions, so nothing is rounded or reduced mod a prime.
    """
    n = len(m)
    m = [[int(x) for x in row] for row in m]
    block = [[int(x) for x in col] for col in np.asarray(b).T]
    columns = []
    for _ in range(n):
        columns.extend(block)
        block = [[sum(m[i][j] * c[j] for j in range(n)) for i in range(n)] for c in block]
    rows = [[Fraction(c[i]) for c in columns] for i in range(n)]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def kalman_rank_mod_p(m, b, p: int) -> int:
    """Rank mod p of [B, MB, ..., M^(n-1)B] for integer M and B.

    Builds every power with Python integers reduced mod p, then runs plain
    Gaussian elimination on the rows of the explicit Kalman matrix, so no
    float and no Krylov shortcut is involved.
    """
    n = len(m)
    m = [[int(x) % p for x in row] for row in m]
    block = [[int(x) % p for x in col] for col in np.asarray(b).T]
    columns = []
    for _ in range(n):
        columns.extend(block)
        block = [[sum(m[i][j] * c[j] for j in range(n)) % p for i in range(n)] for c in block]
    rows = [[c[i] for c in columns] for i in range(n)]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, n):
            factor = rows[r][col] * inv % p
            rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank

"""Independent oracles used to cross-check the package implementations.

Each oracle takes a deliberately different route from the code under test:
eigenvalues via a cyclic Jacobi iteration and via LDL^T inertia counts +
bisection (vs. LAPACK's eigvalsh in the package), zero-forcing closure,
traces and uniqueness via naive rescanning (vs. the heap-ordered worklist),
addable edges by rerunning that rescan on every G + uv (vs. the edge bound
and the resumed forcing record), grammar matches by checking every binding
of every rule (vs. the incremental match index), every schedule of a grammar
by a breadth-first search over its states (vs. seeded random runs), vertex
connectivity by removing every small node set, and Kalman rank over Q via Fraction
elimination on the exact integer powers and mod a prime via Python-int
elimination of the explicit Kalman matrix (vs. lock-step block Krylov
elimination in float64 BLAS).

It also holds the small helpers only the tests need: the per-family edge
terms of the closed-form count, the edge list of a forcing word, BFS
distances from one source (the per-source reference for Graph.diameter),
the forcing-candidate rescan, the boolean form of the controllability
report, an uncontrollable realization of a leader set that is no ZFS, and
the check that every build carries its forcing word.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations

import numpy as np

from zfnets.constructions import FAMILIES, G1, G3_BAR, ConstructionSpec, InfeasibleSpecError, build
from zfnets.grammar import (ALPHA, LabeledGraph, Match, Rule, Schedule, initial_state,
                            label_isomorphic, replay)
from zfnets.graph import Graph
from zfnets.ssc import SystemRealization, controllability_report
from zfnets.zero_forcing import ForcingTrace, build_word, certify, word_of


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


def vertex_connectivity(g: Graph) -> int:
    """The fewest nodes whose removal leaves g disconnected or with one node,
    found by trying every node set in order of size."""
    for size in range(g.n - 1):
        for cut in combinations(range(g.n), size):
            rest = set(range(g.n)) - set(cut)
            start = min(rest)
            seen, stack = {start}, [start]
            while stack:
                for y in g.neighbors(stack.pop()):
                    if y in rest and y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) < len(rest):
                return size
    return max(g.n - 1, 0)


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
    import scipy.linalg  # here, so that this module imports without scipy

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
    have the rule's kinds, their join keys (if the rule has a join) are
    equal, its guard holds and, for a connect rule, its edge is absent; its
    effect is the sorted edge plus the relabels sorted by node.  Both are
    written here, not taken from zfnets.grammar, so the oracle shares no
    predicate with the index it grades.
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
            if rule.join is not None and rule.join[0](la) != rule.join[1](lb):
                continue
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


def state_key(state: LabeledGraph):
    """A labeled state up to renaming its nodes: the label multiset plus the
    edges as label pairs.

    The key is exact (two states share it iff one is the other renamed) when
    no two non-alpha nodes share a label and alpha nodes have no edges.  Both
    are asserted here, so no key is taken for a state that breaks them.
    """
    labels, g = state.labels, state.graph
    named = [lab for lab in labels if lab.kind != ALPHA]
    assert len(set(named)) == len(named), f"two non-alpha nodes share a label: {labels}"
    assert all(not g.neighbors(v) for v, lab in enumerate(labels) if lab.kind == ALPHA), \
        f"an alpha node has an edge: {labels}"
    return (frozenset(Counter(labels).items()),
            frozenset(frozenset((labels[u], labels[v])) for u, v in g.edges()))


def explore(n: int, rules: list[Rule]) -> tuple[dict, dict]:
    """Every state the rules reach from initial_state(n), breadth first.

    A state's successors are its matches from applicable_matches_rescan, each
    applied by a one-step zfnets.grammar.replay, so the search shares no
    listing code with the match index.  Returns (successors, states):
    successors maps each state_key to the set of keys one step away, and
    states maps it to the first state found with that key.
    """
    start = initial_state(n)
    first = state_key(start)
    successors: dict = {}
    states = {first: start}
    queue = deque([first])
    while queue:
        key = queue.popleft()
        state = states[key]
        successors[key] = set()
        for match in applicable_matches_rescan(state, rules):
            step = Schedule(seed=0, steps=((match.rule.name, match.nodes),))
            after = replay(state, rules, step)
            nxt = state_key(after)
            successors[key].add(nxt)
            if nxt not in states:
                states[nxt] = after
                queue.append(nxt)
    return successors, states


def assert_every_schedule_ends_at(n: int, rules: list[Rule], target) -> int:
    """Assert that every order of rule application from initial_state(n) ends
    at target: the state graph that explore finds is acyclic, so no schedule
    cycles, and it has one terminal state, which label_isomorphic accepts, so
    none deadlocks or stops elsewhere.  Returns the number of states."""
    successors, states = explore(n, rules)
    indegree = Counter(nxt for after in successors.values() for nxt in after)
    ready = [key for key in successors if not indegree[key]]
    ordered = 0
    while ready:  # Kahn's algorithm orders every state iff the state graph is acyclic
        ordered += 1
        for nxt in successors[ready.pop()]:
            indegree[nxt] -= 1
            if not indegree[nxt]:
                ready.append(nxt)
    assert ordered == len(successors)
    terminals = [key for key, after in successors.items() if not after]
    assert len(terminals) == 1
    assert label_isomorphic(states[terminals[0]], target)
    return len(states)


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


def uncontrollable_witness(g: Graph, leaders) -> tuple[list[list[int]], list[list[int]]]:
    """An integer realization (M, B) of (g, leaders) that is not controllable,
    for leaders that are no ZFS (Monshizadeh, Zhang & Camlibel, IEEE TAC
    59(9), 2014).

    W is the white set where the rescanned closure stalls, so no black node
    has exactly one white neighbor.  The m white neighbors of a black node
    get edge weights 1, ..., 1, -(m-1) in id order, every other edge weight
    1; a white node's diagonal entry is minus the sum of its white-edge
    weights, a black node's is 0.  Asserted here: every edge has a nonzero
    weight, and x = 1 on W has Mx = 0 and x^T B = 0, so by the PBH test the
    Kalman rank is below n.
    """
    n = g.n
    white = set(range(n)) - closure_bruteforce(g, set(leaders))
    assert white, "the leaders are a ZFS, so every realization is controllable"
    m = [[0] * n for _ in range(n)]
    for u, v in g.edges():
        m[u][v] = m[v][u] = 1
    for b in set(range(n)) - white:
        ws = sorted(g.neighbors(b) & white)
        if ws:
            m[b][ws[-1]] = m[ws[-1]][b] = 1 - len(ws)
    for w in white:
        m[w][w] = -sum(m[w][u] for u in g.neighbors(w) & white)
    b = [[int(v == leader) for leader in sorted(leaders)] for v in range(n)]
    assert all(m[u][v] for u, v in g.edges())
    assert all(sum(row[w] for w in white) == 0 for row in m)
    assert all(b[w] == [0] * len(b[w]) for w in white)
    return m, b


def assert_leader_subsets_have_witnesses(max_n: int) -> tuple[int, int]:
    """Check every construction on at most max_n nodes with k >= 2 leaders
    and a follower: certify calls its leaders a ZFS, calls each (k-1)-subset
    of them none, and each subset's witness has exact Kalman rank below n.
    Returns (constructions, subsets).  With no follower a construction is
    K_k, which k-1 leaders force, so it is left out.
    """
    nets = subsets = 0
    for n in range(3, max_n + 1):
        for k in range(2, n):
            for family in FAMILIES:
                for d in range(2, n // k + 1) if family == G3_BAR else [None]:
                    try:
                        net = build(ConstructionSpec(family, n, k, d))
                    except InfeasibleSpecError:
                        continue
                    assert certify(net.graph, net.leaders).violations is not None, net.spec
                    for sub in combinations(net.leaders, k - 1):
                        assert certify(net.graph, sub).violations is None, (net.spec, sub)
                        m, b = uncontrollable_witness(net.graph, sub)
                        assert kalman_rank_exact(m, b) < n, (net.spec, sub)
                        subsets += 1
                    nets += 1
    return nets, subsets


def assert_builds_carry_their_words(sizes, max_k: int = 12) -> tuple[int, int]:
    """Check every feasible build on n in sizes nodes with k <= max_k
    leaders, at every g3bar d: a g1 build carries no word, and any other
    carries word_of(graph, leaders), whose build_word is the graph.
    Returns (builds, g1 builds).
    """
    nets = g1s = 0
    for n in sizes:
        for k in range(1, min(n, max_k) + 1):
            for family in FAMILIES:
                for d in range(2, n // k + 1) if family == G3_BAR else [None]:
                    try:
                        net = build(ConstructionSpec(family, n, k, d))
                    except InfeasibleSpecError:
                        continue
                    if family == G1:
                        assert net.word is None, net.spec
                        g1s += 1
                    else:
                        assert net.word == word_of(net.graph, net.leaders), net.spec
                        assert build_word(k, net.word) == net.graph, net.spec
                    nets += 1
    return nets, g1s

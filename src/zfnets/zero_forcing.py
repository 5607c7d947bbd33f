"""Zero forcing: one engine for closure, traces and uniqueness; maximality.

A black node with exactly one white neighbor forces that neighbor black.
A set whose closure is the whole vertex set is a zero forcing set (ZFS);
for leader-follower consensus dynamics this is exactly strong structural
controllability of the pair (graph, leaders).  Only _run applies forces;
derived_set, closure and is_unique_process each read one run of it, and
_verify reads the ZFS, uniqueness and maximality verdicts off one run.
is_maximal_for_zfs answers from the edge bound kn - k(k+1)/2 when the graph
meets it, and otherwise resumes the recorded forcing order, with one _run
per forcer that an added edge can stall.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable

from .constructions import expected_edges
from .graph import Graph, LeaderSet


@dataclass(frozen=True)
class ForcingTrace:
    """A full record of one forcing process.

    steps is the chronological (forcer, forced) sequence; derived is the
    closure reached from initial_black.
    """

    initial_black: frozenset[int]
    steps: tuple[tuple[int, int], ...]
    derived: frozenset[int]

    def to_text(self) -> str:
        """One 'FORCE forcer forced' line per step (golden-file friendly)."""
        return "".join(f"FORCE {v} {u}\n" for v, u in self.steps)


def _as_black_set(g: Graph, black: Iterable[int]) -> set[int]:
    s = set(black)
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"black vertex {v} out of range for graph on {g.n} nodes")
    return s


def _run(g: Graph, black: Iterable[int]) -> tuple[ForcingTrace, bool]:
    """Force to exhaustion, smallest forcer id first; return (trace, unique).

    white[v] counts v's white neighbors.  A black node turns forcer once, when
    white[v] reaches 1, and enters the heap with its one white neighbor; the
    entry goes stale when that neighbor turns black.  pending holds the nodes
    some forcer can force: the process is unique iff it never holds two.
    """
    black_set = _as_black_set(g, black)
    initial = frozenset(black_set)
    nbrs = [g.neighbors(v) for v in range(g.n)]
    white = [len(a) - len(a & black_set) for a in nbrs]
    heap = [(v, min(nbrs[v] - black_set)) for v in sorted(black_set) if white[v] == 1]
    pending = {u for _, u in heap}
    steps: list[tuple[int, int]] = []
    unique = True
    while heap:
        v, u = heappop(heap)
        if u in black_set:
            continue
        if len(pending) > 1:
            unique = False
        steps.append((v, u))
        black_set.add(u)
        pending.discard(u)
        for w in nbrs[u]:
            white[w] -= 1
        for w in (u, *nbrs[u]):
            if white[w] == 1 and w in black_set:
                x = min(nbrs[w] - black_set)
                heappush(heap, (w, x))
                pending.add(x)
    return ForcingTrace(initial, tuple(steps), frozenset(black_set)), unique


def derived_set(g: Graph, black: Iterable[int]) -> ForcingTrace:
    """Run the forcing process to exhaustion and record a trace.

    At each step the candidate with the smallest forcer id is applied, which
    makes the trace deterministic.  The closure itself is order-independent.
    """
    return _run(g, black)[0]


def closure(g: Graph, black: Iterable[int]) -> frozenset[int]:
    """The derived set alone."""
    return _run(g, black)[0].derived


def is_zfs(g: Graph, leaders: LeaderSet) -> bool:
    """True iff the leaders force the entire vertex set black."""
    leaders.validate_for(g)
    return len(closure(g, leaders)) == g.n


def is_unique_process(g: Graph, black: Iterable[int]) -> bool:
    """True iff at every step exactly one *node* can be forced next.

    Several black nodes may be able to force the same white node; that still
    counts as a single available move.  Returns True vacuously once no move
    is available, so the result is meaningful mainly for forcing sets.
    """
    return _run(g, black)[1]


def validate_trace(g: Graph, trace: ForcingTrace) -> None:
    """Replay a trace, raising ValueError at the first illegal step."""
    black_set = set(trace.initial_black)
    for idx, (v, u) in enumerate(trace.steps):
        if v not in black_set:
            raise ValueError(f"step {idx}: forcer {v} is not black")
        if u in black_set:
            raise ValueError(f"step {idx}: node {u} is already black")
        white = [w for w in g.neighbors(v) if w not in black_set]
        if white != [u]:
            raise ValueError(
                f"step {idx}: {v} cannot force {u} (white neighbors {sorted(white)})"
            )
        black_set.add(u)
    if black_set != set(trace.derived):
        raise ValueError("trace does not reach its recorded derived set")


def is_maximal_for_zfs(
    g: Graph, leaders: LeaderSet
) -> tuple[bool, list[tuple[int, int]]]:
    """Check that no edge can be added while the leaders stay a ZFS.

    Returns (maximal, violations) where violations lists every non-edge whose
    addition would preserve the ZFS property, in lexicographic order.  Raises
    ValueError when the leaders are not a ZFS of g in the first place.  One
    forcing run of g settles most non-edges; the rest share at most one
    resumed run per forcer.

    Edge bound.  Say k leaders force all n nodes.  A node that has forced has
    no white neighbor from then on, so only the black nodes that have not
    forced yet (the chain ends) can have white neighbors; there are always
    k of them, as each force retires one and adds the node it forces.  When
    y turns black, each neighbor that is already black is therefore a chain
    end: y has at most k earlier neighbors.  Counting each edge at its later
    endpoint, plus at most C(k, 2) edges among the leaders, gives
    |E| <= C(k, 2) + k(n - k) = kn - k(k+1)/2.  Adding an edge to a graph
    at the bound would break it, so such a graph is maximal: an O(m) answer.
    constructions.build_word builds exactly the graphs at the bound.

    Below the bound.  Adding uv changes only the white counts of u and v, so
    the recorded steps stay legal in G + uv up to the first one whose forcer
    is one endpoint while the other is still white.  With no such step the
    whole record is legal and uv is addable.  Otherwise call that forcer x,
    the node it forces w and the other endpoint y; only one endpoint can be
    x, since x turned black before y and y forces only after that.  From the
    black set B before the step, x has two white neighbors in G + uv, w and
    y, so x is stuck, as it is in G with the edge xw cut, and the counts of
    all other black nodes agree: the two graphs force alike until w or y
    turns black.  Let R be the closure of B in G - xw.  Once w is black,
    every count in G - xw is what it is in G, and in G any black set holding
    the leaders forces every node; so if R holds w, R holds y too.  If R
    misses y, G + uv therefore stops at R.  If R holds y, then in G + uv
    y turns black, or w does first and x forces y.  Either way x and y are
    both black, the edge xy changes no count from then on, and G + uv forces
    every node as G does.  So uv is addable iff R holds y, and R depends on
    x alone.
    """
    scan = _verify(g, leaders)[2]
    if scan is None:
        raise ValueError("leaders are not a zero forcing set of the given graph")
    return scan


def _verify(
    g: Graph, leaders: LeaderSet
) -> tuple[bool, bool, tuple[bool, list[tuple[int, int]]] | None]:
    """is_zfs, is_unique_process and is_maximal_for_zfs from one forcing run.

    The third item is None when the leaders are not a ZFS.
    """
    leaders.validate_for(g)
    trace, unique = _run(g, leaders)
    n, k = g.n, len(leaders)
    if len(trace.derived) != n:
        return False, unique, None
    if g.edge_count() == expected_edges(n, k):
        return True, unique, (True, [])
    steps = trace.steps
    turned = [-1] * n  # step at which each node turned black; -1 for leaders
    forced_at = [len(steps)] * n  # step at which each node forced; len(steps) if never
    for i, (x, y) in enumerate(steps):
        forced_at[x] = i
        turned[y] = i
    work = g.copy()
    reached: dict[int, frozenset[int]] = {}

    def addable(x: int, y: int) -> bool:
        """Whether G + xy keeps the ZFS, given that x forces while y is white."""
        if x not in reached:
            i = forced_at[x]
            w = steps[i][1]
            before = trace.initial_black.union(u for _, u in steps[:i])
            work.remove_edge(x, w)
            reached[x] = closure(work, before)
            work.add_edge(x, w)
        return y in reached[x]

    violations: list[tuple[int, int]] = []
    for u, v in g.non_edges():
        if turned[v] > forced_at[u]:
            ok = addable(u, v)
        elif turned[u] > forced_at[v]:
            ok = addable(v, u)
        else:
            ok = True
        if ok:
            violations.append((u, v))
    return True, unique, (not violations, violations)

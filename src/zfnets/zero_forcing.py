"""Zero forcing: the forcing engine, maximality, the edge bound and words.

A black node with exactly one white neighbor forces that neighbor black.
A set whose closure is the whole vertex set is a zero forcing set (ZFS);
for leader-follower consensus dynamics this is exactly strong structural
controllability of the pair (graph, leaders).  derived_set, closure and
is_unique_process each read one run of the engine _run.  certify reads the
trace, uniqueness and the addable edges (None when the leaders are not a
ZFS) off one run, for is_maximal_for_zfs, word_of and the verify command.
At the edge bound no edge is addable; below it, per-node bitsets of the
recorded forces that need each node black, and the forcing rule rerun on
those bitsets, give every forcer's stalled set.

Theorem.  A ZFS graph with k leaders has at most expected_edges(n, k)
edges; the maximal ones, at the bound, are the graphs build_word(k, word).

Edge bound.  Number the nodes in the order they turn black, leaders first,
and let t(u) be the node u forces (n if none).  A node that has forced has
no white neighbor from then on, so when v turns black its earlier
neighbors are chain ends, the black nodes that have not forced yet.  There
are always k of them, as each force retires one and adds one.  Counting
each edge at its later endpoint, plus at most C(k, 2) edges among the
leaders, gives |E| <= kn - k(k+1)/2.  Each edge short of that count leaves
a consistent non-edge uv, u < v <= t(u): two leaders, or v and a chain end
u other than v's forcer.  Adding it keeps every recorded step legal, as v
is black when u forces and u when v does.  So the maximal ZFS graphs are
those at the bound.

Every word graph is at the bound, with C(k, 2) + k*len(word) edges, and
its leaders force it in id order.  A node stays in build_word's active
list A from the step that adds it until the step that replaces it, so its
neighbours above its own id are the nodes added in that span.  Let 0..v-1
be black.  A black node with a white neighbour w > v was in A when w was
added, so also when v was, and v is a second white neighbour: every
available force hits v.  The node v replaces has v as its only neighbour
above v-1, so it forces v.

Every ZFS graph G at the bound is a word graph.  At the bound both counts
of the bound proof are exact: the leaders form a clique, and each follower
y is joined to exactly the k chain ends of the moment it turns black.
When x forces y, y replaces x among the chain ends.  Number the leaders
0..k-1 and the followers in the order they turn black, and let word[t] be
the slot of the chain end that forces follower k+t.  Then the chain ends
are A at every step, and build_word(k, word) is G under that numbering.
word_of reads the word off the forcing run and sets its last symbol to 0:
only the last force may have two forcers, and the last symbol never
changes the graph.
"""
from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress, count, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graph import Graph, LeaderSet


class ForcingTrace(NamedTuple):
    """A full record of one forcing process.

    steps is the chronological (forcer, forced) sequence; derived is the
    closure reached from initial_black.
    """

    initial_black: frozenset[int]
    steps: tuple[tuple[int, int], ...]
    derived: frozenset[int]


_ONE = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask >= 0, ascending: bin(mask) read
    backwards, with each '1' mapped to a true byte."""
    return compress(count(), bin(mask)[:1:-1].encode().translate(_ONE))


def _run(g: Graph, black: Iterable[int]) -> tuple[ForcingTrace, bool]:
    """Force to exhaustion, smallest forcer id first; return (trace, unique).

    white[v] counts v's white neighbors.  A black node turns forcer once, when
    white[v] reaches 1, and enters the heap with its one white neighbor; the
    entry goes stale when that neighbor turns black.  pending holds the nodes
    some forcer can force: the process is unique iff it never holds two.
    """
    black_set = set(black)
    for v in black_set:
        if not 0 <= v < g.n:
            raise ValueError(f"black vertex {v} out of range for graph on {g.n} nodes")
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


def expected_edges(n: int, n_leaders: int) -> int:
    """The edge bound k*(2n-k-1)/2 of the module docstring, met by every
    maximal family; k + (2n-k-1) is odd, so one factor is even."""
    if not n >= n_leaders >= 1:
        raise ValueError(f"need n >= n_leaders >= 1, got n={n}, n_leaders={n_leaders}")
    return n_leaders * (2 * n - n_leaders - 1) // 2


def build_word(k: int, word: Sequence[int]) -> Graph:
    """The graph of a forcing word, a maximal ZFS graph (module docstring).

    Nodes 0..k-1 form a clique and fill the active list A.  Node k+t is
    joined to every node of A and then replaces A[word[t]], the node that
    forces it.  The last symbol of a word never changes the graph.
    """
    g = Graph(k + len(word))
    adj = g._adj  # every edge below is new and in range, so add_edge's checks are skipped
    active = list(range(k))
    for a in active:
        adj[a].update(active)
        adj[a].discard(a)
    for v, slot in enumerate(word, start=k):
        if not 0 <= slot < k:
            raise ValueError(f"word symbol {slot} is not a slot in 0..{k - 1}")
        adj[v].update(active)
        for a in active:
            adj[a].add(v)
        active[slot] = v
    return g


def word_of(g: Graph, leaders: Sequence[int]) -> list[int] | None:
    """The forcing word of g, leader leaders[i] in slot i, last symbol 0:
    build_word(k, word) is g with the followers numbered as they turn black
    (module docstring).  None unless certify's violations are [], that is,
    unless the leaders are a ZFS of g and g is at the edge bound."""
    trace, _, violations = certify(g, leaders)
    if violations != []:
        return None
    slot, word = {v: i for i, v in enumerate(leaders)}, []
    for x, y in trace.steps:
        word.append(slot[x])
        slot[y] = slot.pop(x)
    return word[:-1] + [0] if word else []


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
    forcing run of g answers every non-edge, and at the edge bound, where
    the module docstring proves none addable, the answer is O(m).

    Below the bound.  Adding uv changes only the white counts of u and v, so
    the recorded steps stay legal in G + uv up to the first one whose forcer
    is one endpoint while the other is still white.  With no such step uv is
    consistent.  Otherwise call that forcer x, the node it forces w and the
    other endpoint y.  In G + uv, x has two white neighbors, w and y, so it
    is stuck as it is in G - xw, and the two graphs force alike until w or y
    turns black.  Let R be the closure of the leaders in G - xw.  Once w is
    black, every count in G - xw is what it is in G, where any black set
    holding the leaders forces every node; so if R holds w, R holds every
    node.  If R misses y, G + uv therefore stops at R.  If R holds y, then
    in G + uv y turns black, or w does first and x forces y; the edge xy
    changes no count from then on, and G + uv forces every node.  So uv is
    addable iff R holds y.  To find R, let dep[z] be z plus every node whose
    recorded force needs z black, where the step (a, b) needs N[a] - b; one
    reverse pass over the steps gives every dep.  A recorded step that
    forces a node outside dep[w] needs no node of dep[w], so its forcer is
    neither x nor w and it is legal in G - xw: R contains V - dep[w].  The
    forcing rule run on the white set dep[w] alone, with x counting no white
    neighbor, completes R.  The run is needed: a black node that never
    forced may force into dep[w].
    """
    violations = certify(g, leaders).violations
    if violations is None:
        raise ValueError("leaders are not a zero forcing set of the given graph")
    return not violations, violations


class Certificate(NamedTuple):
    """One forcing run of the leaders: its trace, is_unique_process, and the
    non-edges is_maximal_for_zfs lists, or None when the leaders are not a ZFS."""

    trace: ForcingTrace
    unique: bool
    violations: list[tuple[int, int]] | None


def certify(g: Graph, leaders: Sequence[int]) -> Certificate:
    """The Certificate of distinct leader ids, whose order word_of reads as
    slots.  A repeated id or one that is not a node of g raises ValueError."""
    if len(set(leaders)) != len(leaders):
        raise ValueError(f"repeated leader ids in {list(leaders)}")
    LeaderSet.validate_for(leaders, g)  # any sequence: validate_for only iterates it
    trace, unique = _run(g, leaders)
    n, k = g.n, len(leaders)
    if len(trace.derived) != n:
        return Certificate(trace, unique, None)
    if g.edge_count() == expected_edges(n, k):
        return Certificate(trace, unique, [])
    nbrs = [g.neighbors(v) for v in range(n)]
    adj = [sum(1 << u for u in a) for a in nbrs]
    dep = [1 << v for v in range(n)]  # v and every node whose recorded force needs v black
    near = [a | 1 << v for v, a in enumerate(adj)]  # dep[v] and its neighbors
    for x, z in reversed(trace.steps):
        for a in (x, *nbrs[x]):
            if a != z:
                dep[a] |= dep[z]
                near[a] |= near[z]
    bad = [0] * n  # bad[u]: every v such that G + uv stalls
    for x, w in trace.steps:
        white, not_x = dep[w], ~(1 << x)  # in G - xw, x has no white neighbor
        todo = near[w] & ~white & not_x  # the black nodes that may force
        while todo:
            b = todo.bit_length() - 1
            todo ^= 1 << b
            s = adj[b] & white
            if s and not s & (s - 1):  # b has one white neighbor, and forces it
                white ^= s
                todo |= (adj[s.bit_length() - 1] | s) & ~white & not_x
        white &= ~(1 << w)  # now V - R, less x's neighbor w
        bad[x] |= white
        for y in _bits(white):
            bad[y] |= 1 << x
    violations: list[tuple[int, int]] = []
    for u in range(n):  # row u: the v > u that are neither neighbors nor bad
        violations.extend(zip(repeat(u), _bits(~(adj[u] | bad[u]) & (1 << n) - (2 << u))))
    return Certificate(trace, unique, violations)

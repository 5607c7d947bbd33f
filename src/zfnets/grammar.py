"""Distributed graph-grammar engine: labeled nodes, local rewrite rules,
random serial scheduling, fixpoint detection, and convergence certification.

Two rule sets are provided.  R1 grows the maximal layered family (leader
clique, k follower chains, fan-in/diagonal/layer-clique fill) and R2 grows
the diameter-2 family (leader clique, one follower chain off the first
leader, full leader fan-out).  Rules are data: a pair of label patterns, an
index guard, and an action, so the rule tables are readable in one place and
the engine stays generic.  A one-node rule relabels its node; a two-node rule
connects its pair, relabels both nodes, or does both.  `Rule` rejects any
other shape when it is built.

Every rule is pairwise, as in the graph grammars of Klavins, Ghrist &
Lipsky (IEEE TAC 51(6), 2006): it reads its two labels and whether they
share an edge, never a neighbourhood.  `r2` starts leader i's follower
chain only while the leader's j is None, and relabels it Label(LEADER, i,
0).  That lists the same matches as a test for a neighbour with chain index
(i, 1) would: leader i gets such a neighbour only from its own `r2`, and
that neighbour keeps its edge to the leader while its label moves only
between the two chain-start labels (GAMMA(i,1) -> BETA(i,1) in R1, BETA(1)
-> GAMMA(1) in R2).  So on every state reachable from `initial_state` the
two tests agree, and every seed keeps its schedule.

A run keeps a match index: per rule, one sorted list of keys v * n + u,
one for each listed binding (v, u), so key order is (v, u) order.  Guards
and relabels must be pure functions of the two labels, so whether a binding
passes reads only its nodes' labels and, for a connect rule, whether the
bound pair is an edge; its effect key reads only its nodes and their
labels.  A full scan lists the first binding of each effect key in (v, u)
order.  By the rule shape the key names every bound node, so only the
reverse binding can share it, and whether it does reads the two labels
alone.  So (v, u) with u < v is left out exactly when (u, v) passes and has
the same effect (`_mirrored`), and whether a binding is listed reads only
its own pair.  A rewrite adds at most the edge ab and relabels at most a
and b, so a listing can change only for
- a binding that holds a relabelled node;
- the binding (a, b) or (b, a) of a connect rule, whose edge now exists.
The index drops the new edge's two keys, takes each relabelled node out
of the bindings whose guard admits its old label and puts it into those
whose guard admits its new one (one whose guard admits neither was not
listed and is not), then rebuilds the node's own keys.  A listed binding's
nodes have its rule's kinds, so only the connect rules over the edge's
pre-rewrite end kinds, and only the rules that read a relabelled node's
old or new kind, are visited.  So the keys list the same matches in the
same order as a full scan, and a seed gives the same schedule whichever
way the matches are found.

A rule may name a join key per side, `join = (left_key, right_key)`: its
guard can pass only when `left_key(a) == right_key(b)`.  The index keeps
each keyed side's label groups in buckets by key and, for a label, asks
the guard only about the partner labels in the bucket its key names (the
hashed join of Rete; Forgy, Artificial Intelligence 19(1), 1982).  A rule
without a join reads every label of the partner kind.  The guard stays the
authority, so a join that is too wide costs guard calls and one that is
too narrow loses matches: a `dataclasses.replace` of a keyed rule's guard
must keep its join valid.  R1 keys r6, r7 and r8 by layer, so a new chain
node is tried against one layer's labels instead of every BETA label.

The scheduler draws from `_Pcg64`, zfnets' own PCG64 stream, equal to numpy
2.4.6's `default_rng(seed).integers(total)` draw for draw.  NumPy does not
promise to keep its stream (NEP 19); owning it keeps every seed's `.trace`.
"""
from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, NamedTuple, Optional

from .constructions import ConstructedNetwork
from .graph import Graph

ALPHA = "alpha"
SEED = "seed"
LEADER = "leader"
BETA = "beta"
GAMMA = "gamma"

PI1 = "pi1"
PI2 = "pi2"


class NonConvergenceError(RuntimeError):
    """A run exceeded its step budget or left pre-final labels behind."""


class Label(NamedTuple):
    """Node label: a kind plus up to two integer indices.

    ALPHA carries no indices, SEED/LEADER carry i, chain labels carry i and
    (only in R1) a layer index j.  A leader's j is None until it starts its
    follower chain and 0 from then on, so the leader's own label records
    that its chain has started.  A tuple, so effect keys hash it in C.
    """

    kind: str
    i: int | None = None
    j: int | None = None

    def __str__(self) -> str:
        if self.kind == ALPHA:
            return "a"
        head = {SEED: "S", LEADER: "L", BETA: "b", GAMMA: "g"}[self.kind]
        text = f"{head}{self.i}"
        if self.j is not None:
            text += f",{self.j}"
        return text


class LabeledGraph:
    """A graph plus one label per node."""

    __slots__ = ("graph", "labels")

    def __init__(self, graph: Graph, labels: list[Label]):
        if len(labels) != graph.n:
            raise ValueError("need exactly one label per node")
        self.graph = graph
        self.labels = labels

    def copy(self) -> "LabeledGraph":
        return LabeledGraph(self.graph.copy(), list(self.labels))

    def nodes_with_kind(self, kind: str) -> list[int]:
        return [v for v, lab in enumerate(self.labels) if lab.kind == kind]

    def label_texts(self) -> dict[int, str]:
        return {v: str(lab) for v, lab in enumerate(self.labels)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self.graph == other.graph and self.labels == other.labels

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.graph.n}, m={self.graph.edge_count()})"


Guard = Callable[[Label, Optional[Label]], bool]
Relabel = Callable[[Label, Optional[Label]], Label]
JoinKey = Callable[[Label], Hashable]


@dataclass(frozen=True)
class Rule:
    """One rewrite rule.

    Binds one node of kind `left` (and, if `right` is set, a second node of
    that kind); `guard` sees both labels.  The action adds the edge between
    the bound nodes (when `connect`) and applies the relabel functions.
    A rule sees only its pair: the two labels and whether they share an
    edge, never a neighbourhood.  A one-node rule must set only
    `relabel_left`; a two-node rule must connect or set both relabels, so
    its effect names both nodes.  Other shapes raise ValueError.

    `join = (left_key, right_key)`, read only on a two-node rule, declares a
    necessary condition of the guard: `guard(a, b)` may pass only when
    `left_key(a) == right_key(b)`.  The match index then reads only the
    partner labels whose key equals the bound label's, and the guard still
    decides among them.  A rule without a join reads every label of the
    partner kind.  A `dataclasses.replace` of a keyed rule's guard must
    keep the join valid for the new guard, or matches go missing.
    """

    name: str
    phase: str
    left: str
    right: str | None = None
    guard: Guard = lambda a, b: True
    connect: bool = False
    relabel_left: Relabel | None = None
    relabel_right: Relabel | None = None
    join: tuple[JoinKey, JoinKey] | None = None

    def __post_init__(self) -> None:
        if self.right is None:
            if self.relabel_left is None or self.connect or self.relabel_right is not None:
                raise ValueError(f"rule {self.name!r}: a one-node rule must set relabel_left"
                                 " and neither connect nor relabel_right")
        elif not self.connect and None in (self.relabel_left, self.relabel_right):
            raise ValueError(f"rule {self.name!r}: a two-node rule must connect its pair"
                             " or relabel both nodes")


@dataclass(frozen=True)
class Match:
    rule: Rule
    nodes: tuple[int, ...]


@dataclass(frozen=True)
class Schedule:
    """Reproducible record of one run: the seed and the applied steps."""

    seed: int
    steps: tuple[tuple[str, tuple[int, ...]], ...]

    def to_text(self) -> str:
        lines = []
        for idx, (name, nodes) in enumerate(self.steps, start=1):
            lines.append(f"STEP {idx} RULE {name} NODES {','.join(map(str, nodes))}")
        return "\n".join(lines) + ("\n" if lines else "")


def initial_state(n: int) -> LabeledGraph:
    """Edgeless start state: node 0 is the seed S_1, every other node alpha."""
    if n < 1:
        raise ValueError("need at least one node")
    return LabeledGraph(Graph(n), [Label(SEED, 1)] + [Label(ALPHA)] * (n - 1))


def _leader_rules(k: int) -> tuple[Rule, Rule, Rule]:
    """R1's and R2's r0, r1, r5: seeds recruit k leaders, who form a clique."""
    return (
        Rule("r0", PI1, SEED, ALPHA,
             guard=lambda a, b: 1 <= a.i < k,
             connect=True,
             relabel_left=lambda a, b: Label(LEADER, a.i),
             relabel_right=lambda a, b: Label(SEED, a.i + 1)),
        Rule("r1", PI1, SEED,
             guard=lambda a, b: a.i == k,
             relabel_left=lambda a, b: Label(LEADER, a.i)),
        Rule("r5", PI1, LEADER, LEADER, connect=True),
    )


def grammar_r1(n_leaders: int, d: int) -> list[Rule]:
    """Rule set producing the maximal layered family on n = n_leaders*d nodes."""
    if n_leaders < 1:
        raise ValueError(f"need n_leaders >= 1, got {n_leaders}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    last = d - 1
    r0, r1, r5 = _leader_rules(n_leaders)
    return [
        r0, r1,
        Rule("r2", PI1, LEADER, ALPHA,
             guard=lambda a, b: a.j is None,
             connect=True,
             relabel_left=lambda a, b: Label(LEADER, a.i, 0),
             relabel_right=lambda a, b: Label(GAMMA, a.i, 1)),
        Rule("r3", PI1, GAMMA, ALPHA,
             guard=lambda a, b: 1 <= a.j < last,
             connect=True,
             relabel_left=lambda a, b: Label(BETA, a.i, a.j),
             relabel_right=lambda a, b: Label(GAMMA, a.i, a.j + 1)),
        Rule("r4", PI1, GAMMA,
             guard=lambda a, b: a.j == last,
             relabel_left=lambda a, b: Label(BETA, a.i, a.j)),
        r5,
        Rule("r6", PI2, LEADER, BETA,
             guard=lambda a, b: b.j == 1 and b.i <= a.i,
             connect=True, join=(lambda a: 1, lambda b: b.j)),
        Rule("r7", PI2, BETA, BETA,
             guard=lambda a, b: b.j == a.j + 1 and b.i < a.i,
             connect=True, join=(lambda a: a.j + 1, lambda b: b.j)),
        Rule("r8", PI2, BETA, BETA,
             guard=lambda a, b: b.j == a.j and b.i != a.i,
             connect=True, join=(lambda a: a.j, lambda b: b.j)),
    ]


def grammar_r2(n: int, n_leaders: int) -> list[Rule]:
    """Rule set producing the diameter-2 family on n nodes.

    The final fan-out rule connects every non-first leader to every chain
    node.
    """
    if n_leaders < 2:
        raise ValueError(f"need n_leaders >= 2, got {n_leaders}")
    if n <= n_leaders:
        raise ValueError(f"need n > n_leaders, got n={n}, n_leaders={n_leaders}")
    nf = n - n_leaders
    r0, r1, r5 = _leader_rules(n_leaders)
    return [
        r0, r1,
        Rule("r2", PI1, LEADER, ALPHA,
             guard=lambda a, b: a.i == 1 and a.j is None,
             connect=True,
             relabel_left=lambda a, b: Label(LEADER, a.i, 0),
             relabel_right=lambda a, b: Label(BETA, 1)),
        Rule("r3", PI1, BETA, ALPHA,
             guard=lambda a, b: 1 <= a.i < nf,
             connect=True,
             relabel_left=lambda a, b: Label(GAMMA, a.i),
             relabel_right=lambda a, b: Label(BETA, a.i + 1)),
        Rule("r4", PI1, BETA,
             guard=lambda a, b: a.i == nf,
             relabel_left=lambda a, b: Label(GAMMA, a.i)),
        r5,
        Rule("r6", PI2, LEADER, GAMMA, guard=lambda a, b: a.i != 1, connect=True),
    ]


def _match_effect(state: LabeledGraph, rule: Rule, nodes: tuple[int, ...]):
    """Canonical description of what applying the match would change."""
    edge = None
    if rule.connect:
        u, v = nodes
        edge = (u, v) if u < v else (v, u)
    relabels = []
    la = state.labels[nodes[0]]
    lb = state.labels[nodes[1]] if len(nodes) == 2 else None
    if rule.relabel_left is not None:
        relabels.append((nodes[0], rule.relabel_left(la, lb)))
    if rule.relabel_right is not None:
        relabels.append((nodes[1], rule.relabel_right(la, lb)))
        if len(relabels) == 2 and nodes[1] < nodes[0]:
            relabels.reverse()
    return edge, tuple(relabels)


def _binding_ok(state: LabeledGraph, rule: Rule, nodes: tuple[int, ...]) -> bool:
    """Whether `rule` applies to a binding of its arity with distinct nodes."""
    la = state.labels[nodes[0]]
    lb = None if rule.right is None else state.labels[nodes[1]]
    if la.kind != rule.left or (lb is not None and lb.kind != rule.right):
        return False
    return rule.guard(la, lb) and not (
        rule.connect and nodes[1] in state.graph.neighbors(nodes[0]))


def _positions(rules: list[Rule]) -> dict[str, int]:
    """Index of each rule by name; a name used twice raises ValueError."""
    position: dict[str, int] = {}
    for r, rule in enumerate(rules):
        if position.setdefault(rule.name, r) != r:
            raise ValueError(f"duplicate rule name {rule.name!r}")
    return position


def _mirrored(rule: Rule, la: Label, lb: Label) -> bool:
    """Whether the reverse of a binding labelled (la, lb) passes its kinds
    and guard and has the same effect (the edge and relabels are symmetric)."""
    if (lb.kind, la.kind) != (rule.left, rule.right) or not rule.guard(lb, la):
        return False
    rl, rr = rule.relabel_left, rule.relabel_right
    if rl is None and rr is None:
        return True
    return (rl is not None and rr is not None
            and rl(la, lb) == rr(lb, la) and rr(la, lb) == rl(lb, la))


def _whole_kind(lab: Label) -> None:
    """The join key of a rule without a join: every label shares it."""
    return None


class _MatchIndex:
    """Listed bindings of every rule, kept current as one run rewrites.

    Per rule, `keys[r]` is one sorted list holding v * n + u for each
    listed binding (v, u), or v * n + v for a listed one-node binding; as
    u < n, key order is (v, u) order, the full scan's listing.  Nodes are
    kept by kind and then by label in sorted lists (`kinds`).  Each side of
    a two-node rule reads those groups through its buckets, join key ->
    {label: group}, so a node's keys are built with one guard call per label
    in the bucket its own label's key names.  A keyed side's buckets hold
    the same group lists as `kinds` and change only when a group is created
    or emptied; a side without a join has the one bucket None, the kind's
    own label dict, so it reads every label of the kind.  A binding whose
    reverse comes first with the same effect is left out by the two labels
    alone (`_mirrored`), so a binding's listing reads only its pair, and
    `apply` rewrites the state and updates only the keys the rewrite can
    change (the module docstring has the argument).  Rule names must be
    unique within the rule list; `_positions` checks that here and in
    `replay`.
    """

    def __init__(self, state: LabeledGraph, rules: Iterable[Rule]):
        self.state = state
        self.rules = list(rules)
        _positions(self.rules)
        self.n = n = state.graph.n
        self.kinds: dict[str, dict[Label, list[int]]] = {
            kind: {} for rule in self.rules for kind in (rule.left, rule.right) if kind}
        for v, lab in enumerate(state.labels):
            self.kinds.setdefault(lab.kind, {}).setdefault(lab, []).append(v)
        # kind -> (join key, buckets) of every keyed rule side of that kind
        self.keyed: dict[str, list[tuple[JoinKey, dict]]] = {}
        # per two-node rule: (left key, left buckets, right key, right buckets)
        self.sides: list[tuple | None] = []
        # kind -> rules reading it; the kinds of a new edge's ends -> connect rules
        self.reading: dict[str, list[int]] = {}
        self.joining: dict[frozenset, list[int]] = {}
        self.pools: dict[str, list[int]] = {}
        for r, rule in enumerate(self.rules):
            self.pools.setdefault(rule.phase, []).append(r)
            for kind in {rule.left, rule.right} - {None}:
                self.reading.setdefault(kind, []).append(r)
            if rule.connect:
                self.joining.setdefault(frozenset((rule.left, rule.right)), []).append(r)
            left_key, right_key = rule.join or (None, None)
            self.sides.append(None if rule.right is None else
                              (*self._side(rule.left, left_key), *self._side(rule.right, right_key)))
        self.keys = [[key for v in range(n) for key in self._row(r, v)]
                     for r in range(len(self.rules))]

    def _side(self, kind: str, key: JoinKey | None) -> tuple[JoinKey, dict]:
        """A rule side's join key and buckets, registered for upkeep if keyed."""
        if key is None:
            return _whole_kind, {None: self.kinds[kind]}
        buckets: dict = {}
        for lab, group in self.kinds[kind].items():
            buckets.setdefault(key(lab), {})[lab] = group
        self.keyed.setdefault(kind, []).append((key, buckets))
        return key, buckets

    def _row(self, r: int, v: int) -> list[int]:
        """Keys, sorted, of v's bindings (v, u) that pass kinds, guard and
        edge test, less those whose reverse comes first with their effect."""
        rule, lv, base = self.rules[r], self.state.labels[v], v * self.n
        if lv.kind != rule.left:
            return []
        if rule.right is None:
            return [base + v] if rule.guard(lv, None) else []
        left_key, _, _, rights = self.sides[r]
        near = self.state.graph.neighbors(v) if rule.connect else ()
        row: list[int] = []
        for lb, group in rights.get(left_key(lv), {}).items():
            if rule.guard(lv, lb):
                start = bisect_right(group, v) if _mirrored(rule, lv, lb) else 0
                row += [base + u for u in group[start:] if u != v and u not in near]
        row.sort()
        return row

    def _drop(self, r: int, key: int) -> None:
        keys = self.keys[r]
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            del keys[i]

    def _move_partner(self, r: int, w: int, old: Label) -> None:
        """Take relabelled node w out of the bindings whose guard admits its
        old label, and put it into those whose guard admits its new one."""
        rule, new, n = self.rules[r], self.state.labels[w], self.n
        if rule.right not in (old.kind, new.kind):
            return
        _, lefts, right_key, _ = self.sides[r]
        if old.kind == rule.right:
            for la, group in lefts.get(right_key(old), {}).items():
                if rule.guard(la, old):
                    for v in group:
                        if v != w:
                            self._drop(r, v * n + w)
        if new.kind == rule.right:
            near = self.state.graph.neighbors(w) if rule.connect else ()
            for la, group in lefts.get(right_key(new), {}).items():
                if rule.guard(la, new):
                    above = _mirrored(rule, la, new)  # then (v, w) is listed only for v < w
                    for v in group:
                        if v != w and v not in near and not (above and w < v):
                            insort(self.keys[r], v * n + w)

    def _regroup(self, v: int, old: Label) -> None:
        """Move v from its old label's group to its new one's, and put a
        created group into, or take an emptied one out of, its buckets (an
        emptied bucket stays, empty)."""
        new, labels = self.state.labels[v], self.kinds[old.kind]
        group = labels[old]
        del group[bisect_left(group, v)]
        if not group:
            del labels[old]
            for key, buckets in self.keyed.get(old.kind, ()):
                del buckets[key(old)][old]
        labels = self.kinds.setdefault(new.kind, {})
        if new not in labels:
            labels[new] = []
            for key, buckets in self.keyed.get(new.kind, ()):
                buckets.setdefault(key(new), {})[new] = labels[new]
        insort(labels[new], v)

    def _match(self, r: int, v: int, u: int) -> Match:
        rule = self.rules[r]
        return Match(rule, (v,) if rule.right is None else (v, u))

    def matches(self) -> list[Match]:
        """Every currently applicable match in deterministic order.

        Edge-adding matches whose edge already exists are excluded.  Of a
        binding and its reverse that pass with the same effect (both
        orientations of one edge), only the one that comes first is listed,
        so random scheduling stays unbiased.  Rules come in list order and
        each rule's bindings in (v, u) order.
        """
        return [self._match(r, *divmod(key, self.n))
                for r, keys in enumerate(self.keys) for key in keys]

    def draw(self, rng: _Pcg64, prefer_phase: str | None) -> Match | None:
        """One uniformly random listed match (of prefer_phase when it has one)."""
        pool = range(len(self.rules))
        preferred = self.pools.get(prefer_phase, ())
        if any(self.keys[r] for r in preferred):
            pool = preferred
        total = sum(len(self.keys[r]) for r in pool)
        if total == 0:
            return None
        i = rng.integers(total)
        for r in pool:
            if i < len(self.keys[r]):
                return self._match(r, *divmod(self.keys[r][i], self.n))
            i -= len(self.keys[r])

    def apply(self, match: Match) -> None:
        """Rewrite the state by a listed match and update the keys it can change.

        A listed binding's nodes have its rule's kinds, so only the connect
        rules over the new edge's pre-rewrite end kinds can list its keys,
        and only the rules reading a relabelled node's old or new kind can
        change with it."""
        state, n = self.state, self.n
        edge, relabels = effect = _match_effect(state, match.rule, match.nodes)
        if edge is not None:
            ends = frozenset(state.labels[v].kind for v in edge)
            for r in self.joining.get(ends, ()):
                for a, b in (edge, edge[::-1]):
                    self._drop(r, a * n + b)
        moved = {v: state.labels[v] for v, lab in relabels if lab != state.labels[v]}
        _rewrite(state, effect)
        touched: set[int] = set()
        for v, old in moved.items():
            self._regroup(v, old)
            touched.update(self.reading.get(old.kind, ()), self.reading.get(state.labels[v].kind, ()))
        for r in touched:
            for w, old in moved.items():
                self._move_partner(r, w, old)
            keys = self.keys[r]
            for v in moved:  # overwrites what the partner edits put in v's range
                keys[bisect_left(keys, v * n):bisect_left(keys, v * n + n)] = self._row(r, v)


def _rewrite(state: LabeledGraph, effect) -> None:
    edge, relabels = effect
    if edge is not None:
        state.graph.add_edge(*edge)
    for v, lab in relabels:
        state.labels[v] = lab


def _applicable(state: LabeledGraph, rule: Rule, nodes: tuple[int, ...]) -> bool:
    """`_binding_ok` for a binding from outside the engine, whose shape and ids may be wrong."""
    return (len(nodes) == (1 if rule.right is None else 2) == len(set(nodes))
            and all(0 <= v < state.graph.n for v in nodes) and _binding_ok(state, rule, nodes))


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Pcg64:
    """SeedSequence(seed) -> PCG64 -> Generator.integers, as numpy does them.

    The seed's 32-bit words are hashed into a 4-word pool, which hashes out
    the 128-bit state and increment.  A step is an LCG mod 2**128 with an
    XSL-RR output; a 32-bit draw is the low half of a 64-bit one and keeps
    the high half for the next 32-bit draw.  `integers` is Lemire's method.
    """

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words = [seed >> s & _M32 for s in range(0, seed.bit_length() or 1, 32)]
        const = 0x43B0D7E5

        def hashmix(v: int, mult: int = 0x931E8875) -> int:
            nonlocal const
            v ^= const
            const = const * mult & _M32
            v = v * const & _M32
            return v ^ v >> 16

        def mix(dst: int, v: int) -> None:
            r = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(v)) & _M32
            pool[dst] = r ^ r >> 16

        pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
        for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
            mix(dst, pool[src])
        for w in words[4:]:
            for dst in range(4):
                mix(dst, w)
        const = 0x8B51F9DD
        out = [hashmix(pool[i % 4], 0x58F38DED) for i in range(8)]
        w = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
        self.inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
        self.state = ((self.inc + (w[0] << 64 | w[1])) * _PCG_MULT + self.inc) & _M128
        self.half: int | None = None

    def next64(self) -> int:
        s = self.state = (self.state * _PCG_MULT + self.inc) & _M128
        v, r = (s >> 64 ^ s) & _M64, s >> 122
        return (v >> r | v << 64 - r) & _M64

    def next32(self) -> int:
        if self.half is not None:
            v, self.half = self.half, None
            return v
        v = self.next64()
        self.half = v >> 32
        return v & _M32

    def integers(self, total: int) -> int:
        """A uniform draw from range(total), for 1 <= total <= 2**63."""
        if total == 1:  # numpy draws nothing here, and neither may we
            return 0
        bits, draw = (32, self.next32) if total <= 1 << 32 else (64, self.next64)
        m, mask = draw() * total, (1 << bits) - 1
        while (m & mask) < (1 << bits) % total:  # lows below it would bias the draw
            m = draw() * total
        return m >> bits


def run_to_fixpoint(
    initial: LabeledGraph,
    rules: list[Rule],
    seed: int = 0,
    prefer_phase: str | None = None,
    on_step: Callable[[int, LabeledGraph, Match], None] | None = None,
) -> tuple[LabeledGraph, Schedule]:
    """Repeatedly apply a uniformly random applicable match until none remain.

    prefer_phase biases scheduling: matches of that phase are taken whenever
    any is available (still uniformly among them).  The step budget,
    4 n^2 + 8 n + 32 on n nodes, guards against rule-encoding bugs; both
    grammars are monotone, so legitimate runs stay well under it.
    `on_step` sees the live state after each step and must treat it as
    read-only: the match index is kept in step with the state only through
    the rewrites the run applies itself.
    """
    state = initial.copy()
    rng = _Pcg64(seed)
    n = state.graph.n
    budget = 4 * n * n + 8 * n + 32
    trace: list[tuple[str, tuple[int, ...]]] = []
    index = _MatchIndex(state, rules)
    while True:
        match = index.draw(rng, prefer_phase)
        if match is None:
            break
        if len(trace) == budget:
            raise NonConvergenceError(f"no fixpoint after {budget} steps (n={n})")
        index.apply(match)
        trace.append((match.rule.name, match.nodes))
        if on_step is not None:
            on_step(len(trace), state, match)
    return state, Schedule(seed=seed, steps=tuple(trace))


def replay(initial: LabeledGraph, rules: Iterable[Rule], schedule: Schedule) -> LabeledGraph:
    """Re-run a recorded schedule; returns the (identical) final state."""
    rules = list(rules)
    by_name = {name: rules[r] for name, r in _positions(rules).items()}
    state = initial.copy()
    for idx, (name, nodes) in enumerate(schedule.steps, start=1):
        rule = by_name.get(name)
        if rule is None:
            raise ValueError(f"step {idx}: unknown rule {name!r}")
        if not _applicable(state, rule, nodes):
            raise ValueError(f"step {idx}: binding {nodes} for {name} is not applicable")
        _rewrite(state, _match_effect(state, rule, nodes))
    return state


def _role_tag(lab: Label) -> str | None:
    if lab.kind == LEADER:
        return f"L{lab.i}"
    if lab.kind == BETA and lab.j is not None:
        return f"u_{lab.i},{lab.j}"
    if lab.kind == GAMMA and lab.j is None:
        return f"u_{lab.i}"
    return None


def label_isomorphic(state: LabeledGraph, target: ConstructedNetwork) -> bool:
    """True iff the final labels map the state's edges exactly onto target's.

    Chain labels carry their intended position, so the comparison is a direct
    role-tag lookup — no isomorphism search.  Raises NonConvergenceError if
    alpha or seed labels remain.
    """
    stuck = [v for v, lab in enumerate(state.labels) if lab.kind in (ALPHA, SEED)]
    if stuck:
        raise NonConvergenceError(
            f"state is not converged: nodes {stuck} still labeled alpha/seed"
        )
    if state.graph.n != target.graph.n:
        return False
    mapping: dict[int, str] = {}
    for v, lab in enumerate(state.labels):
        role = _role_tag(lab)
        if role is None:
            return False
        mapping[v] = role
    target_ids = {role: v for v, role in target.layout.items()}
    if sorted(mapping.values()) != sorted(target_ids):
        return False
    to_target = {v: target_ids[role] for v, role in mapping.items()}
    mapped = {
        (min(to_target[u], to_target[v]), max(to_target[u], to_target[v]))
        for u, v in state.graph.edges()
    }
    return mapped == set(target.graph.edges())

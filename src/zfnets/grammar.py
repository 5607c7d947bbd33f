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

A run keeps a match index: per rule, one sorted list of keys v * n + u, one
for each listed binding (v, u), so key order is (v, u) order.  Join keys,
guards and relabels must be pure functions of the labels, so whether a
binding passes reads only its nodes' labels and, for a connect rule,
whether the bound pair is an edge; its effect key reads only its nodes and
their labels.  A full scan lists the first binding of each effect key in
(v, u) order.  By the rule shape the key names every bound node, so only
the reverse binding can share it, and whether it does reads the two labels
alone.  So (v, u) with u < v is left out exactly when (u, v) passes and has
the same effect (`_mirrored`), and whether a binding is listed reads only
its own pair.  A rewrite adds at most the edge ab and relabels at most a
and b, so a listing can change only for
- a binding that holds a relabelled node;
- the binding (a, b) or (b, a) of a connect rule, whose edge now exists.
The index drops the new edge's two keys, takes each relabelled node out of
the bindings whose join and guard admit its old label and puts it into
those that admit its new one (one that admits neither was not listed and is
not), then rebuilds the node's own keys.  A listed binding's nodes have its
rule's kinds, so only the connect rules over the edge's pre-rewrite end
kinds, and only the rules that read a relabelled node's old or new kind,
are visited.  So the keys list the same matches in the same order as a full
scan, and a seed gives the same schedule whichever way the matches are
found.

A two-node rule may name a join key per side, `join = (left_key,
right_key)`, as part of its condition: a binding labelled (a, b) passes
only when `left_key(a) == right_key(b)`, and its guard is asked only then.
The index keeps each keyed side's label groups in buckets by key and, for
a label, asks the guard only about the partner labels in the bucket its
key names (the hashed join of Rete; Forgy, Artificial Intelligence 19(1),
1982).  A rule without a join reads every label of the partner kind.  R1
keys r6, r7 and r8 by layer, so a new chain node is tried against one
layer's labels instead of every BETA label.

The scheduler draws from `_Pcg64`, zfnets' own PCG64 stream, equal to numpy
2.4.6's `default_rng(seed).integers(total)` draw for draw.  NumPy does not
promise to keep its stream (NEP 19); owning it keeps every seed's `.trace`.
"""
from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, NamedTuple, Optional

from .constructions import G1_BAR, G2_BAR, ConstructedNetwork, ConstructionSpec
from .graph import Graph, NonConvergenceError
from .zero_forcing import word_of

ALPHA = "alpha"
SEED = "seed"
LEADER = "leader"
BETA = "beta"
GAMMA = "gamma"

PI1 = "pi1"
PI2 = "pi2"


class Label(NamedTuple):
    """Node label: a kind plus up to two integer indices.

    ALPHA carries no indices, SEED/LEADER carry i, chain labels carry i and
    (only in R1) a layer index j.  A leader's j is None until it starts its
    follower chain and 0 from then on, so the leader's own label records
    that its chain has started.  A tuple, so label dicts hash it in C.
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


class LabeledGraph(NamedTuple):
    """A graph plus one label per node.  copy() checks the count, so a
    state from outside is checked where run_to_fixpoint and replay take it."""

    graph: Graph
    labels: list[Label]

    def copy(self) -> "LabeledGraph":
        if len(self.labels) != self.graph.n:
            raise ValueError("need exactly one label per node")
        return LabeledGraph(self.graph.copy(), list(self.labels))

    def nodes_with_kind(self, kind: str) -> list[int]:
        return [v for v, lab in enumerate(self.labels) if lab.kind == kind]


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

    `join = (left_key, right_key)`, on a two-node rule only, is part of its
    condition: a binding labelled (a, b) passes only when `left_key(a) ==
    right_key(b)` and `guard(a, b)` holds.  The guard is asked only when the
    keys agree, and the match index reads only the partner labels whose key
    equals the bound label's; without a join it reads the whole kind.
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
            if (self.relabel_left is None or self.connect
                    or self.relabel_right is not None or self.join is not None):
                raise ValueError(f"rule {self.name!r}: a one-node rule must set relabel_left"
                                 " and none of connect, relabel_right and join")
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
    """Rule set producing g1bar on n = n_leaders*d nodes.  With d = 1 no
    chain has a layer to grow, so r2 is off and the leaders are K_k."""
    ConstructionSpec(G1_BAR, n_leaders * d, n_leaders, d)  # raises what g1bar rejects
    last = d - 1
    r0, r1, r5 = _leader_rules(n_leaders)
    return [
        r0, r1,
        Rule("r2", PI1, LEADER, ALPHA,
             guard=lambda a, b: a.j is None and last > 0,
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
             guard=lambda a, b: b.i <= a.i,
             connect=True, join=(lambda a: 1, lambda b: b.j)),
        Rule("r7", PI2, BETA, BETA,
             guard=lambda a, b: b.i < a.i,
             connect=True, join=(lambda a: a.j + 1, lambda b: b.j)),
        Rule("r8", PI2, BETA, BETA,
             guard=lambda a, b: b.i != a.i,
             connect=True, join=(lambda a: a.j, lambda b: b.j)),
    ]


def grammar_r2(n: int, n_leaders: int) -> list[Rule]:
    """Rule set producing the diameter-2 family g2bar on n nodes.

    The final fan-out rule connects every non-first leader to every chain
    node.
    """
    ConstructionSpec(G2_BAR, n, n_leaders)  # raises what g2bar rejects
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
    """The edge the match adds (or None) and its (node, label) relabels."""
    relabels = []
    la = state.labels[nodes[0]]
    lb = state.labels[nodes[1]] if len(nodes) == 2 else None
    if rule.relabel_left is not None:
        relabels.append((nodes[0], rule.relabel_left(la, lb)))
    if rule.relabel_right is not None:
        relabels.append((nodes[1], rule.relabel_right(la, lb)))
    return (nodes if rule.connect else None), tuple(relabels)


def _passes(rule: Rule, la: Label, lb: Label | None = None) -> bool:
    """Whether labels (la, lb) have the rule's kinds, then its join keys
    agree, then its guard holds; a connect rule's edge test is the caller's."""
    if la.kind != rule.left or (lb is not None and lb.kind != rule.right):
        return False
    return (rule.join is None or rule.join[0](la) == rule.join[1](lb)) and rule.guard(la, lb)


def _binding_ok(state: LabeledGraph, rule: Rule, nodes: tuple[int, ...]) -> bool:
    """Whether `rule` applies to `nodes`, a binding from anywhere: distinct
    ids of the graph, as many as it binds, whose labels pass it, unjoined."""
    return (len(nodes) == (1 if rule.right is None else 2) == len(set(nodes))
            and all(0 <= v < state.graph.n for v in nodes)
            and _passes(rule, *(state.labels[v] for v in nodes))
            and not (rule.connect and nodes[1] in state.graph.neighbors(nodes[0])))


def _positions(rules: list[Rule]) -> dict[str, int]:
    """Index of each rule by name; a name used twice raises ValueError."""
    position: dict[str, int] = {}
    for r, rule in enumerate(rules):
        if position.setdefault(rule.name, r) != r:
            raise ValueError(f"duplicate rule name {rule.name!r}")
    return position


def _mirrored(rule: Rule, la: Label, lb: Label) -> bool:
    """Whether the reverse of a binding labelled (la, lb) passes the rule
    and has the same effect (the edge and relabels are symmetric)."""
    if not _passes(rule, lb, la):
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
    listed binding (v, u), or v * n + v for a listed one-node binding.
    Nodes are kept by kind and then by label in sorted lists (`kinds`).
    Each side of a two-node rule reads those groups through its buckets,
    join key -> {label: group}, so a node's keys are built with one guard
    call per label in the bucket its own label's key names.  A keyed side's
    buckets hold the same group lists as `kinds` and change only when a
    group is created or emptied; a side without a join has the one bucket
    None, the kind's own label dict, so it reads every label of the kind.
    The module docstring argues that the keys list a full scan's matches in
    its order.  Rule names must be unique within the rule list; `_positions`
    checks that here and in `replay`.
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
        """Keys, sorted, of v's bindings (v, u) that pass kinds, join, guard
        and edge test, less those whose reverse comes first with their effect."""
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
        """Rewrite the state by a listed match and update the keys it can
        change (the module docstring says which)."""
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
        if not _binding_ok(state, rule, nodes):
            raise ValueError(f"step {idx}: binding {nodes} for {name} is not applicable")
        _rewrite(state, _match_effect(state, rule, nodes))
    return state


def label_isomorphic(state: LabeledGraph, target: ConstructedNetwork) -> bool:
    """True iff the state has target's leader count and forcing word
    (zero_forcing.word_of) with leader Li in slot i-1: then its graph is
    target's, Li at target's leader i-1.  Follower labels are not compared,
    and a target below the edge bound has no word, so nothing matches it.
    Raises NonConvergenceError if alpha or seed labels remain."""
    stuck = [v for v, lab in enumerate(state.labels) if lab.kind in (ALPHA, SEED)]
    if stuck:
        raise NonConvergenceError(f"state is not converged: nodes {stuck} still labeled alpha/seed")
    leaders = sorted(state.nodes_with_kind(LEADER), key=lambda v: state.labels[v].i)
    if len(leaders) != len(target.leaders):
        return False
    word = word_of(state.graph, leaders)
    return word is not None and word == word_of(target.graph, target.leaders)

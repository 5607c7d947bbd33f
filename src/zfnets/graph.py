"""Simple undirected graphs on vertex set {0, ..., n-1}, plus leader bookkeeping."""
from __future__ import annotations

from itertools import chain, combinations
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np


class GraphDisconnectedError(ValueError):
    """Raised when an operation needs a connected graph and the graph is not."""


class NonConvergenceError(RuntimeError):
    """An eigensolver failed, or a grammar run ran out of steps or left pre-final labels."""


class Graph:
    """Undirected simple graph backed by adjacency sets.

    Vertices are the integers 0..n-1.  Self-loops and parallel edges are
    rejected.  Equality compares vertex count and edge sets.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        self.n = n
        self._adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            self.add_edge(u, v)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for graph on {self.n} nodes")

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge {u, v}; return True if it was new, False if already present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        return True

    def remove_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if v not in self._adj[u]:
            raise ValueError(f"edge ({u}, {v}) not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def neighbors(self, v: int) -> set[int]:
        self._check_vertex(v)
        return self._adj[v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    def non_edges(self) -> list[tuple[int, int]]:
        """All vertex pairs (u < v) that are not edges, in lexicographic order."""
        return [
            (u, v)
            for u, v in combinations(range(self.n), 2)
            if v not in self._adj[u]
        ]

    def copy(self) -> "Graph":
        g = Graph(self.n)
        g._adj = [set(a) for a in self._adj]
        return g

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen, frontier = {0}, {0}
        while frontier:
            frontier = set().union(*map(self._adj.__getitem__, frontier)) - seen
            seen |= frontier
        return len(seen) == self.n

    def diameter(self) -> int:
        """Largest shortest-path distance D; raises GraphDisconnectedError.

        Work is on int bitsets.  nbr[v] is v's closed neighbourhood, and
        levels(s), a BFS that ORs one nbr mask per node (n bit steps), gives
        one mask per distance from s, so ecc(s) = len(levels(s)) - 1.

        Exactness (Takes and Kosters, 2011).  lb is the largest eccentricity
        measured, so lb <= D.  For a measured root r, ecc(w) <= ecc(r) +
        d(r, w), so every w within lb - ecc(r) of r has ecc(w) <= lb and is
        decided.  The first roots are node 0, a node a farthest from it, a
        node b farthest from a, and a highest-degree node halfway along a
        shortest a-b path.  Each node still undecided is then measured, which
        may raise lb and decides the nodes near it.  At the end every node is
        measured or has ecc <= lb, so D = lb.

        Cost.  Each BFS is n bit steps.  On the 6,994 family builds with
        N <= 60 (every k and d) or N in {96, 120, 180, 240} and k <= 12,
        2,735 end at the one-node or dominating-node exit with no BFS, 4,061
        take only the four root BFS, and 198 take 5 to 31 (the most on g1 at
        N = 60, k = 30, D = 3).
        """
        n = self.n
        if n == 0:
            raise GraphDisconnectedError("diameter of the empty graph is undefined")
        full = (1 << n) - 1
        bit = [1 << v for v in range(n)]
        nbr = []
        for v, adj in enumerate(self._adj):
            mask = bit[v]
            for u in adj:
                mask |= bit[u]
            nbr.append(mask)
        if n == 1:
            return 0
        if full in nbr:  # a dominating node
            return 1 if nbr.count(full) == n else 2

        def levels(s: int) -> list[int]:
            seen = frontier = bit[s]
            out = []
            while frontier:
                out.append(frontier)
                grown = 0
                while frontier:
                    v = frontier.bit_length() - 1
                    grown |= nbr[v]
                    frontier ^= bit[v]
                frontier = grown & ~seen
                seen |= frontier
            if seen != full:
                raise GraphDisconnectedError("diameter undefined: graph is disconnected")
            return out

        # a mask's highest node id stands for "a node" of it throughout
        from_0 = levels(0)
        from_a = levels(from_0[-1].bit_length() - 1)
        d_ab = len(from_a) - 1
        from_b = levels(from_a[-1].bit_length() - 1)
        mid = from_a[d_ab // 2] & from_b[d_ab - d_ab // 2]
        roots = [from_0, from_a, from_b, levels(max(
            (v for v in range(n) if mid >> v & 1), key=lambda v: len(self._adj[v])))]
        lb = max(map(len, roots)) - 1
        undecided = full
        for lv in roots:  # levels are disjoint, so a sum of them is their union
            undecided &= ~sum(lv[:lb - len(lv) + 2])
        while undecided:
            lv = levels(undecided.bit_length() - 1)
            lb = max(lb, len(lv) - 1)
            undecided &= ~sum(lv[:lb - len(lv) + 2])
        return lb

    def laplacian(self) -> np.ndarray:
        """Combinatorial Laplacian L = D - A as a dense float array."""
        import numpy as np

        n, adj = self.n, self._adj
        deg = np.fromiter(map(len, adj), dtype=np.intp, count=n)
        lap = np.zeros((n, n), dtype=float)
        lap[np.repeat(np.arange(n), deg),
            np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=int(deg.sum()))] = -1.0
        lap.flat[::n + 1] = deg
        return lap

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


class LeaderSet(tuple):
    """Distinguished input nodes: the sorted, duplicate-free tuple of their ids."""

    __slots__ = ()

    def __new__(cls, ids: Iterable[int]):
        ids = tuple(ids)
        if len(ids) == 0:
            raise ValueError("a leader set must contain at least one node")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate leader ids: {ids}")
        if any(i < 0 for i in ids):
            raise ValueError(f"negative leader id in {ids}")
        return super().__new__(cls, sorted(ids))

    def validate_for(self, g: Graph) -> None:
        for i in self:
            if i >= g.n:
                raise ValueError(f"leader id {i} out of range for graph on {g.n} nodes")


def to_edge_list_text(g: Graph) -> str:
    """Serialize as one 'u v' line per edge, preceded by a '# n=<count>' header.

    The header keeps isolated trailing vertices from being lost on re-read.
    """
    lines = [f"# n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    """Parse the format written by to_edge_list_text.

    Blank lines are skipped.  A '# n=<count>' header, n in either case and
    spaces around n and the count, fixes the vertex count, else it is max
    id + 1, never below 0; other comments are ignored.  A bad line, a
    negative count or id, a second header or an edge given twice, in either
    orientation, raises ValueError('line <k>: ...').
    """
    edges: list[tuple[int, int, int]] = []
    g: Graph | None = None
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq and key.strip().lower() == "n":
                    if g is not None:
                        raise ValueError(f"repeated '# n=' header (first on line {header_line})")
                    g, header_line = Graph(int(value)), lineno
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"expected 'u v', got {raw!r}")
            edges.append((int(parts[0]), int(parts[1]), lineno))
        if g is None:
            g = Graph(max(0, 1 + max((max(u, v) for u, v, _ in edges), default=-1)))
        for u, v, lineno in edges:
            if not g.add_edge(u, v):
                first = next(j for a, b, j in edges if {a, b} == {u, v})
                raise ValueError(f"repeated edge {u} {v} (first on line {first})")
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return g


def export_dot(g: Graph, leaders: LeaderSet | None = None,
               labels: dict[int, object] | None = None) -> str:
    """Render as Graphviz source; leaders are drawn as filled boxes, and a
    node in labels is labelled str(labels[v])."""
    if leaders is not None:
        leaders.validate_for(g)
    out = ["graph G {"]
    for v in range(g.n):
        attrs = []
        if labels and v in labels:
            attrs.append(f'label="{labels[v]}"')
        if leaders is not None and v in leaders:
            attrs.append('shape=box style=filled fillcolor="gray80"')
        out.append(f"  {v}" + (f" [{' '.join(attrs)}]" if attrs else "") + ";")
    for u, v in g.edges():
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"

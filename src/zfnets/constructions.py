"""Builders for the three maximal-robustness controllable network families.

Families (k leaders, n nodes total):

* G1      — leader clique plus k disjoint follower paths of d-1 nodes each
            (n = k*d); the sparse skeleton, not edge-maximal.
* G1_BAR  — G1 plus all edges that keep the leaders a zero forcing set:
            leader-to-first-layer fan-in, forward diagonals between
            consecutive layers, and a clique inside every follower layer.
* G2_BAR  — diameter-2 variant: leader clique, a single follower path
            hanging off the first leader, and all remaining leaders
            connected to every follower.
* G3_BAR  — interpolates between the two for any requested diameter d in
            [2, n/k]: a G1_BAR-style prefix whose last layer acts as the
            pseudo-leader set of a G2_BAR-style tail.

All four have exactly k*(2n-k-1)/2 edges (for G1 the formula with its own
layer structure), identical leader ids 0..k-1, and deterministic id layouts,
so repeated builds are byte-for-byte identical.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .graph import Graph, LeaderSet

G1 = "g1"
G1_BAR = "g1bar"
G2_BAR = "g2bar"
G3_BAR = "g3bar"
FAMILIES = (G1, G1_BAR, G2_BAR, G3_BAR)

_FAMILY_ALIASES = {
    "g1": G1,
    "g1bar": G1_BAR,
    "g1_bar": G1_BAR,
    "g2bar": G2_BAR,
    "g2_bar": G2_BAR,
    "g2": G2_BAR,
    "g3bar": G3_BAR,
    "g3_bar": G3_BAR,
    "g3": G3_BAR,
}


class InfeasibleSpecError(ValueError):
    """Requested (family, n, n_leaders, d) violates a construction constraint."""


class ConstructionMismatchError(RuntimeError):
    """A built graph failed its own post-construction check (e.g. diameter)."""


def normalize_family(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    if key not in _FAMILY_ALIASES:
        raise InfeasibleSpecError(
            f"unknown family {name!r}; expected one of {', '.join(FAMILIES)}"
        )
    return _FAMILY_ALIASES[key]


@dataclass(frozen=True)
class ConstructionSpec:
    """Validated parameters for one network build.

    d is required for g1/g1bar/g3bar and fixed at 2 for g2bar (a supplied
    value other than 2 is rejected rather than ignored).
    """

    family: str
    n: int
    n_leaders: int
    d: int | None = None

    def __post_init__(self):
        family = normalize_family(self.family)
        object.__setattr__(self, "family", family)
        n, k, d = self.n, self.n_leaders, self.d
        if k < 1:
            raise InfeasibleSpecError(f"need at least one leader, got n_leaders={k}")
        if n < k:
            raise InfeasibleSpecError(
                f"total nodes must be at least the leader count (n={n}, n_leaders={k})"
            )
        if family in (G1, G1_BAR):
            if d is None:
                raise InfeasibleSpecError(f"family {family} requires a diameter d")
            if d < 1:
                raise InfeasibleSpecError(f"diameter must be positive, got d={d}")
            if n != k * d:
                raise InfeasibleSpecError(
                    f"family {family} requires n = n_leaders * d "
                    f"(got n={n}, n_leaders={k}, d={d}, product {k * d})"
                )
        elif family == G2_BAR:
            if k < 2:
                raise InfeasibleSpecError(
                    f"family g2bar requires at least 2 leaders, got {k}"
                )
            if n - k < 2:
                raise InfeasibleSpecError(
                    "family g2bar requires at least 2 followers "
                    f"(n - n_leaders = {n - k}); with fewer the graph is complete "
                    "and its diameter drops below 2"
                )
            if d is None:
                object.__setattr__(self, "d", 2)
            elif d != 2:
                raise InfeasibleSpecError(
                    f"family g2bar has diameter 2 by construction; got d={d}"
                )
        elif family == G3_BAR:
            if k < 2:
                raise InfeasibleSpecError(
                    f"family g3bar requires at least 2 leaders, got {k}"
                )
            if d is None:
                raise InfeasibleSpecError("family g3bar requires a diameter d")
            if d < 2 or k * d > n:
                raise InfeasibleSpecError(
                    f"family g3bar requires 2 <= d <= n/n_leaders "
                    f"(got d={d}, n/n_leaders = {n}/{k})"
                )
            t = n - k * (self.d - 1)
            if t < 2:
                raise InfeasibleSpecError(
                    f"family g3bar tail would have {t} < 2 nodes for "
                    f"(n={n}, n_leaders={k}, d={d})"
                )

    @classmethod
    def from_mapping(cls, data: dict[str, str]) -> "ConstructionSpec":
        """Build from a key=value mapping with keys family, n, nl, d (d optional)."""
        norm = {k.strip().lower(): v for k, v in data.items()}
        extra = set(norm) - {"family", "n", "nl", "d"}
        if extra:
            raise InfeasibleSpecError(
                f"config has unknown key(s): {', '.join(sorted(extra))}"
            )
        try:
            family = norm["family"]
            n = int(norm["n"])
            k = int(norm["nl"])
        except KeyError as exc:
            raise InfeasibleSpecError(f"config is missing key {exc.args[0]!r}") from exc
        d = int(norm["d"]) if "d" in norm else None
        return cls(family=family, n=n, n_leaders=k, d=d)


def parse_construction_config(text: str) -> ConstructionSpec:
    """Parse a plain key=value config (one pair per line, # comments allowed)."""
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InfeasibleSpecError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        data[key.strip()] = value.strip()
    return ConstructionSpec.from_mapping(data)


@dataclass(frozen=True)
class ConstructedNetwork:
    """A built graph with its leader set and per-node role tags."""

    spec: ConstructionSpec
    graph: Graph
    leaders: LeaderSet
    layout: dict[int, str] = field(compare=False)

    def __post_init__(self):
        if len(self.leaders) != self.spec.n_leaders:
            raise ValueError("leader count does not match spec")
        if sorted(self.layout) != list(range(self.graph.n)):
            raise ValueError("layout must cover every node exactly once")

    @property
    def family(self) -> str:
        return self.spec.family


def expected_edges(n: int, n_leaders: int) -> int:
    """Closed-form edge count k*(2n-k-1)/2 shared by all maximal families."""
    if not n >= n_leaders >= 1:
        raise ValueError(f"need n >= n_leaders >= 1, got n={n}, n_leaders={n_leaders}")
    product = n_leaders * (2 * n - n_leaders - 1)
    assert product % 2 == 0, (n, n_leaders)
    return product // 2


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


def default_g3_diameter(n: int, n_leaders: int) -> int:
    """Midpoint of the feasible diameter range [2, n/k], rounded up."""
    k = n_leaders
    mid = -(-(2 * k + n) // (2 * k))  # ceil((2 + n/k) / 2) in integers
    return min(max(mid, 2), n // k)


def default_d(family: str, n: int, n_leaders: int) -> int | None:
    """Diameter to request when none is given: n/k layers for g1/g1bar, 2 for
    g2bar, the range midpoint for g3bar.

    Feasibility is left to ConstructionSpec: a non-divisor leader count for
    g1/g1bar yields a d that the spec rejects, and a leader count below 1
    yields None.
    """
    family = normalize_family(family)
    k = n_leaders
    if k < 1:
        return None
    if family in (G1, G1_BAR):
        return n // k
    if family == G2_BAR:
        return 2
    return default_g3_diameter(n, k)


def _follower_id(k: int, i: int, j: int) -> int:
    """Id of follower u_{i,j} (chain i = 1..k, layer j >= 1) in the G1 layout."""
    return k + (j - 1) * k + (i - 1)


def _leader_layout(k: int) -> dict[int, str]:
    return {i - 1: f"L{i}" for i in range(1, k + 1)}


def build_g1(n: int, n_leaders: int, d: int) -> ConstructedNetwork:
    """Leader clique plus k disjoint follower paths (the sparse skeleton)."""
    spec = ConstructionSpec(family=G1, n=n, n_leaders=n_leaders, d=d)
    k = n_leaders
    g = Graph(n)
    layout = _leader_layout(k)
    for a, b in combinations(range(k), 2):
        g.add_edge(a, b)
    for i in range(1, k + 1):
        if d >= 2:
            g.add_edge(i - 1, _follower_id(k, i, 1))
        for j in range(1, d - 1):
            g.add_edge(_follower_id(k, i, j), _follower_id(k, i, j + 1))
        for j in range(1, d):
            layout[_follower_id(k, i, j)] = f"u_{i},{j}"
    return ConstructedNetwork(spec, g, LeaderSet(tuple(range(k))), layout)


def _augment_g1(g: Graph, k: int, d: int) -> None:
    """Add the fan-in, diagonal and layer-clique edges that make G1 maximal."""
    if d < 2:
        return
    for i in range(1, k + 1):
        for q in range(1, i):
            g.add_edge(i - 1, _follower_id(k, q, 1))
    for j in range(1, d - 1):
        for i in range(1, k + 1):
            for q in range(1, i):
                g.add_edge(_follower_id(k, i, j), _follower_id(k, q, j + 1))
    for j in range(1, d):
        layer = [_follower_id(k, i, j) for i in range(1, k + 1)]
        for a, b in combinations(layer, 2):
            g.add_edge(a, b)


def build_g1_bar(n: int, n_leaders: int, d: int) -> ConstructedNetwork:
    """Edge-maximal variant of G1 (same layout, same leader set)."""
    base = build_g1(n, n_leaders, d)
    spec = ConstructionSpec(family=G1_BAR, n=n, n_leaders=n_leaders, d=d)
    g = base.graph
    _augment_g1(g, n_leaders, d)
    assert g.edge_count() == expected_edges(n, n_leaders)
    return ConstructedNetwork(spec, g, base.leaders, base.layout)


def build_g2_bar(n: int, n_leaders: int) -> ConstructedNetwork:
    """Diameter-2 family: leader clique + follower path off L1 + full fan-out."""
    spec = ConstructionSpec(family=G2_BAR, n=n, n_leaders=n_leaders)
    k = n_leaders
    m = n - k
    g = Graph(n)
    layout = _leader_layout(k)
    for a, b in combinations(range(k), 2):
        g.add_edge(a, b)
    g.add_edge(0, k)
    for j in range(1, m):
        g.add_edge(k + j - 1, k + j)
    for i in range(2, k + 1):
        for j in range(1, m + 1):
            g.add_edge(i - 1, k + j - 1)
    for j in range(1, m + 1):
        layout[k + j - 1] = f"u_{j}"
    assert g.edge_count() == expected_edges(n, n_leaders)
    return ConstructedNetwork(spec, g, LeaderSet(tuple(range(k))), layout)


def build_g3_bar(n: int, n_leaders: int, d: int) -> ConstructedNetwork:
    """Any-diameter family: G1_BAR-style prefix feeding a G2_BAR-style tail.

    The prefix occupies layers 0..d-2 (k*(d-1) nodes); its last layer plays
    the leader role of the tail, whose first node extends chain 1.  At the
    range boundaries the edge set coincides exactly with the corresponding
    pure family: d = 2 reproduces build_g2_bar, and d = n/k (for d > 2)
    returns the build_g1_bar edge set verbatim.
    """
    spec = ConstructionSpec(family=G3_BAR, n=n, n_leaders=n_leaders, d=d)
    k = n_leaders
    if d > 2 and k * d == n:
        bar = build_g1_bar(n, k, d)
        net = ConstructedNetwork(spec, bar.graph, bar.leaders, bar.layout)
        _check_diameter(net, d)
        return net

    g = Graph(n)
    layout = _leader_layout(k)

    def layer(j: int) -> list[int]:
        if j == 0:
            return list(range(k))
        return [_follower_id(k, i, j) for i in range(1, k + 1)]

    for a, b in combinations(layer(0), 2):
        g.add_edge(a, b)
    for j in range(0, d - 2):
        lower, upper = layer(j), layer(j + 1)
        for i in range(k):
            g.add_edge(lower[i], upper[i])
            for q in range(i):
                g.add_edge(lower[i], upper[q])
    for j in range(1, d - 1):
        for a, b in combinations(layer(j), 2):
            g.add_edge(a, b)
    for j in range(1, d - 1):
        for i in range(1, k + 1):
            layout[_follower_id(k, i, j)] = f"u_{i},{j}"

    t = n - k * (d - 1)
    pseudo = layer(d - 2)
    tail = [k * (d - 1) + jj for jj in range(t)]
    g.add_edge(pseudo[0], tail[0])
    for jj in range(t - 1):
        g.add_edge(tail[jj], tail[jj + 1])
    for p in pseudo[1:]:
        for v in tail:
            g.add_edge(p, v)
    for jj, v in enumerate(tail, start=1):
        layout[v] = f"v_{jj}"

    assert g.edge_count() == expected_edges(n, n_leaders)
    net = ConstructedNetwork(spec, g, LeaderSet(tuple(range(k))), layout)
    _check_diameter(net, d)
    return net


def _check_diameter(net: ConstructedNetwork, d: int) -> None:
    measured = net.graph.diameter()
    if measured != d:
        raise ConstructionMismatchError(
            f"built {net.family} graph has diameter {measured}, expected {d}"
        )


def build(spec: ConstructionSpec) -> ConstructedNetwork:
    """Dispatch a validated spec to its family builder."""
    if spec.family == G1:
        return build_g1(spec.n, spec.n_leaders, spec.d)
    if spec.family == G1_BAR:
        return build_g1_bar(spec.n, spec.n_leaders, spec.d)
    if spec.family == G2_BAR:
        return build_g2_bar(spec.n, spec.n_leaders)
    if spec.family == G3_BAR:
        return build_g3_bar(spec.n, spec.n_leaders, spec.d)
    raise InfeasibleSpecError(f"unknown family {spec.family!r}")

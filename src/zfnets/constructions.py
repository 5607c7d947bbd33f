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

Each bar family is the graph build_word(k, word) of a forcing word, so it
is maximal, at the edge bound kn - k(k+1)/2, by the theorem in the
zero_forcing docstring.  The word is (0..k-1)^L 0^(n-k(L+1)): L complete
layers, then a tail chained off slot 0.  L = d - 1 for g1bar and for g3bar
at d = n/k > 2, else d - 2, so g2bar's word is 0^(n-k).  G1 has C(k, 2) +
k(d-1) edges, below the bound.  build(spec) builds all four; they put the
leaders at ids 0..k-1 and use deterministic id layouts, so repeated builds
are byte-for-byte identical.  In its layout g1bar is the k-th power of the
path 0..n-1: u ~ v iff 1 <= |u - v| <= k.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from typing import NamedTuple

from .graph import Graph, LeaderSet
from .zero_forcing import build_word

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


class ConstructionSpec(namedtuple("ConstructionSpec", "family n n_leaders d")):
    """Validated parameters for one network build, a tuple as LeaderSet is;
    `_replace` validates its result too.

    d is asked for only where it is a choice: g3bar requires it.  Where n
    and k fix it, an omitted d is filled in: n // k layers for g1/g1bar
    (g1's measured diameter is 2n/k - 1 when k >= 2) and 2 for g2bar.  A
    supplied d must agree, and g1/g1bar reject a k that does not divide n.
    """

    __slots__ = ()

    def __new__(cls, family: str, n: int, n_leaders: int, d: int | None = None):
        family, k = normalize_family(family), n_leaders
        if k < 1:
            raise InfeasibleSpecError(f"need at least one leader, got n_leaders={k}")
        if n < k:
            raise InfeasibleSpecError(
                f"total nodes must be at least the leader count (n={n}, n_leaders={k})"
            )
        if family in (G2_BAR, G3_BAR) and k < 2:
            raise InfeasibleSpecError(f"family {family} requires at least 2 leaders, got {k}")
        if family in (G1, G1_BAR):
            d = n // k if d is None else d
            if d < 1:
                raise InfeasibleSpecError(f"diameter must be positive, got d={d}")
            if n != k * d:
                raise InfeasibleSpecError(
                    f"family {family} requires n = n_leaders * d "
                    f"(got n={n}, n_leaders={k}, d={d}, product {k * d})"
                )
        elif family == G2_BAR:
            if n - k < 2:
                raise InfeasibleSpecError(
                    "family g2bar requires at least 2 followers "
                    f"(n - n_leaders = {n - k}); with fewer the graph is complete "
                    "and its diameter drops below 2"
                )
            if d is None:
                d = 2
            elif d != 2:
                raise InfeasibleSpecError(
                    f"family g2bar has diameter 2 by construction; got d={d}"
                )
        elif family == G3_BAR:
            if d is None:
                raise InfeasibleSpecError("family g3bar requires a diameter d")
            if d < 2 or k * d > n:
                raise InfeasibleSpecError(
                    f"family g3bar requires 2 <= d <= n/n_leaders "
                    f"(got d={d}, n/n_leaders = {n}/{k})"
                )
        return super().__new__(cls, family, n, k, d)

    @classmethod
    def _make(cls, iterable) -> "ConstructionSpec":
        """Build through __new__, so `_replace` checks the spec too."""
        return cls(*iterable)


def parse_construction_config(text: str) -> ConstructionSpec:
    """Parse a plain key=value config: keys family, n, nl and optional d, in
    any case, one pair per line, # comments allowed, no key twice."""
    data: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InfeasibleSpecError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in line_of:
            raise InfeasibleSpecError(
                f"config key {key!r} is set twice (lines {line_of[key]} and {lineno})"
            )
        data[key], line_of[key] = value.strip(), lineno
    extra = set(data) - {"family", "n", "nl", "d"}
    if extra:
        raise InfeasibleSpecError(f"config has unknown key(s): {', '.join(sorted(extra))}")

    def integer(key: str) -> int:
        try:
            return int(data[key])
        except ValueError:
            raise InfeasibleSpecError(f"config line {line_of[key]}: {key} must be an integer,"
                                      f" got {data[key]!r}") from None

    try:
        family, n, k = data["family"], integer("n"), integer("nl")
    except KeyError as exc:
        raise InfeasibleSpecError(f"config is missing key {exc.args[0]!r}") from exc
    d = integer("d") if "d" in data else None
    return ConstructionSpec(family=family, n=n, n_leaders=k, d=d)


class ConstructedNetwork(NamedTuple):
    """A built graph with its measured diameter, per-node role tags and
    forcing word_of(graph, leaders), None for g1; leaders are ids 0..k-1."""

    spec: ConstructionSpec
    graph: Graph
    diameter: int
    layout: dict[int, str]
    word: list[int] | None

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def leaders(self) -> LeaderSet:
        return LeaderSet(range(self.spec.n_leaders))


def default_g3_diameter(n: int, n_leaders: int) -> int:
    """Midpoint of the feasible diameter range [2, n/k], rounded up."""
    k = n_leaders
    mid = -(-(2 * k + n) // (2 * k))  # ceil((2 + n/k) / 2) in integers
    return min(max(mid, 2), n // k)


def build(spec: ConstructionSpec) -> ConstructedNetwork:
    """The network of a validated spec; every family is built here.

    The bar families are the word of the module docstring, kept with its
    last symbol 0 as word_of reads it; g1, the leader clique plus k paths,
    keeps None.  Leaders are tagged L<i>, node jk + i-1 of layer j <= L is
    u_<i>,<j>, and tail node k(L+1) + m-1 is u_<m> in g2bar and v_<m> in
    g3bar.  The diameter is measured here, once per build, and a g3bar
    build must measure its requested diameter.
    """
    family, n, k, d = spec.family, spec.n, spec.n_leaders, spec.d
    layers = d - 1 if k * d == n and (d > 2 or family in (G1, G1_BAR)) else d - 2
    start = k * (layers + 1)
    if family == G1:
        g, word = Graph(n, combinations(range(k), 2)), None
        for c in range(k):  # chain c is c, c + k, ..., c + (d-1)k
            for v in range(c, n - k, k):
                g.add_edge(v, v + k)
    else:
        word = list(range(k)) * layers + [0] * (n - start)
        g = build_word(k, word)
        word[-1:] = word[-1:] and [0]  # word_of's form; the last symbol never changes the graph
    tail = "u" if family == G2_BAR else "v"
    layout = {v: f"L{v + 1}" if v < k else f"u_{v % k + 1},{v // k}" if v < start
              else f"{tail}_{v - start + 1}" for v in range(n)}
    measured = g.diameter()
    if family == G3_BAR and measured != d:
        raise ConstructionMismatchError(
            f"built {family} graph has diameter {measured}, expected {d}"
        )
    return ConstructedNetwork(spec, g, measured, layout, word)


# Shorthands for build(ConstructionSpec(...)).
def build_g1(n: int, n_leaders: int, d: int | None = None) -> ConstructedNetwork:
    return build(ConstructionSpec(G1, n, n_leaders, d))


def build_g1_bar(n: int, n_leaders: int, d: int | None = None) -> ConstructedNetwork:
    return build(ConstructionSpec(G1_BAR, n, n_leaders, d))


def build_g2_bar(n: int, n_leaders: int) -> ConstructedNetwork:
    return build(ConstructionSpec(G2_BAR, n, n_leaders))


def build_g3_bar(n: int, n_leaders: int, d: int) -> ConstructedNetwork:
    return build(ConstructionSpec(G3_BAR, n, n_leaders, d))

"""Shared helpers: the (N, N_L) parameter grids, the path and complete
graphs, random-graph generators and the leader paths of the g1 skeleton."""
from __future__ import annotations

from itertools import combinations

import numpy as np

from zfnets.constructions import G3_BAR, ConstructionSpec, default_g3_diameter
from zfnets.graph import Graph


def grid_points(max_n: int = 60) -> list[tuple[int, int]]:
    """The (n, n_leaders) comparison grid: n in 6..max_n step 6, leaders 1..6."""
    return [(n, k) for n in range(6, max_n + 1, 6) for k in range(1, 7)]


def g1_feasible(n: int, k: int) -> bool:
    return n % k == 0


def g2_feasible(n: int, k: int) -> bool:
    return k >= 2 and n - k >= 2


def g3_diameters(n: int, k: int) -> range:
    """Feasible requested diameters for the interpolating family."""
    if k < 2 or n - k < 2:
        return range(0)
    return range(2, n // k + 1)


def sweep_spec(family: str, n: int, k: int) -> ConstructionSpec:
    """The spec robustness.sweep builds at (n, k): g3bar at its midpoint
    diameter, every other family at the d its spec fills in."""
    return ConstructionSpec(family, n, k, default_g3_diameter(n, k) if family == G3_BAR else None)


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def random_connected_graph(rng: np.random.Generator, n: int, extra_edges: int) -> Graph:
    """Random tree (each node attaches to a random earlier one) plus extras."""
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(v, int(rng.integers(0, v)))
    non_edges = g.non_edges()
    if non_edges and extra_edges > 0:
        take = min(extra_edges, len(non_edges))
        for idx in rng.choice(len(non_edges), size=take, replace=False):
            g.add_edge(*non_edges[idx])
    return g


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi-style graph; may be disconnected."""
    g = Graph(n)
    for u, v in combinations(range(n), 2):
        if rng.uniform() < p:
            g.add_edge(u, v)
    return g


def cross_path_non_edges(g: Graph, leaders) -> list[tuple[int, int]]:
    """Non-edges whose ends lie on different leader paths, lexicographic.

    A node's path is the leader it reaches without passing another leader,
    which for the g1 skeleton is its own chain.
    """
    owner = {v: v for v in leaders}
    for leader in leaders:
        stack = [leader]
        while stack:
            x = stack.pop()
            for y in g.neighbors(x):
                if y not in owner:
                    owner[y] = leader
                    stack.append(y)
    return [(u, v) for u, v in g.non_edges() if owner[u] != owner[v]]

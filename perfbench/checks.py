"""Independent references and result checkers.

Nothing here asks zfnets for the value it checks.  Spectra come from
numpy's LAPACK `eigvalsh` on a Laplacian built from the edge list,
diameters from scipy's BFS, zero forcing from a parallel-round closure
written here, grammar results from this file's own label-to-role mapping.
The truth for oracle verdicts is structural: when the leaders are a zero
forcing set, every realization is controllable (Monshizadeh, Zhang &
Camlibel, IEEE TAC 59(9), 2014).

Every checker returns {result name: ok}.  One entry is one checked result;
run.py counts them into `attempted`/`failed`.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

# The CLI prints floats at 9 significant digits (relative error <= 5e-9);
# the in-process Jacobi values agree with eigvalsh to ~1e-12.
REL_TOL = 1e-8


def expected_edges(n: int, k: int) -> int:
    """The paper's edge count k(2n-k-1)/2 for a maximal family."""
    return k * (2 * n - k - 1) // 2


def adjacency(n: int, edges) -> scipy.sparse.csr_array:
    e = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    return scipy.sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def diameter(n: int, edges) -> int:
    """Largest BFS distance; -1 when the graph is disconnected."""
    dist = scipy.sparse.csgraph.shortest_path(adjacency(n, edges), unweighted=True)
    return -1 if np.isinf(dist).any() else int(dist.max())


def laplacian_eigenvalues(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u, v] = lap[v, u] = -1.0
    lap[np.arange(n), np.arange(n)] = -lap.sum(axis=1)
    return np.linalg.eigvalsh(lap)


def lambda2_kirchhoff(n: int, edges) -> tuple[float, float]:
    ev = laplacian_eigenvalues(n, edges)
    return float(ev[1]), float(n * np.sum(1.0 / ev[1:]))


def close(value: float, ref: float) -> bool:
    """Equal up to REL_TOL, with an absolute floor of REL_TOL for values near 0."""
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def closure_batch(n: int, edges, black, extra=None) -> tuple[np.ndarray, bool]:
    """Zero-forcing closure of `black` in G + e for each extra edge e.

    Each round every black node with exactly one white neighbor forces it;
    the derived set does not depend on the order of forces.  Returns the
    final black mask, one row per extra edge (one row when extra is None),
    and whether every round of the first row had exactly one forceable node
    (the unique-process property, meaningful for extra=None).
    """
    adj = adjacency(n, edges)
    extra = np.zeros((0, 2), dtype=np.int64) if extra is None else np.asarray(extra, dtype=np.int64)
    rows = max(len(extra), 1)
    mask = np.zeros((rows, n), dtype=bool)
    mask[:, sorted(int(v) for v in black)] = True
    return _rounds(adj, mask, extra)


def _rounds(adj, black: np.ndarray, extra: np.ndarray) -> tuple[np.ndarray, bool]:
    index = np.arange(black.shape[1], dtype=float)
    active = np.arange(black.shape[0])
    unique = True
    while active.size:
        b = black[active]
        white = (~b).astype(float)
        count = white @ adj
        which = (white * index) @ adj
        if len(extra):
            r = np.arange(active.size)
            u, v = extra[active, 0], extra[active, 1]
            count[r, u] += white[r, v]
            count[r, v] += white[r, u]
            which[r, u] += white[r, v] * v
            which[r, v] += white[r, u] * u
        forcer = b & (count == 1)
        row, node = np.nonzero(forcer)
        if row.size == 0:
            break
        target = np.rint(which[row, node]).astype(np.int64)
        if active[0] == 0 and len(set(target[row == 0].tolist())) > 1:
            unique = False
        black[active[row], target] = True
        active = active[np.unique(row)]
    return black, unique


def zfs_and_unique(n: int, edges, leaders) -> tuple[bool, bool]:
    black, unique = closure_batch(n, edges, leaders)
    return bool(black.all()), unique


def skeleton_edges(n: int, k: int) -> int:
    """Edges of the sparse skeleton g1: a leader clique and k paths of n/k - 1 followers."""
    return k * (k - 1) // 2 + n - k


def check_construction(n: int, want_edges: int, edges, leaders, want_d: int) -> dict[str, bool]:
    edges = list(edges)
    zfs, _ = zfs_and_unique(n, edges, leaders)
    return {
        "edges": len(edges) == want_edges,
        "diameter": diameter(n, edges) == want_d,
        "zfs": zfs,
    }


def check_sweep_row(row, family: str, n: int, k: int, want_d: int, edges, leaders) -> dict[str, bool]:
    """A SweepRow against the graph it describes, analyzed independently."""
    edges = list(edges)
    ref = check_construction(n, expected_edges(n, k), edges, leaders, want_d)
    lam, kir = lambda2_kirchhoff(n, edges)
    return {
        "row.key": (row.family, row.n, row.n_leaders) == (family, n, k),
        "row.edges": ref["edges"] and row.edges == len(edges),
        "row.diameter": ref["diameter"] and row.d == want_d,
        "row.zfs": ref["zfs"],
        "row.lambda2": math.isclose(row.lambda2, lam, rel_tol=REL_TOL),
        "row.kirchhoff": math.isclose(row.kirchhoff, kir, rel_tol=REL_TOL),
    }


def check_trace(n: int, edges, leaders, steps, derived) -> bool:
    """Replay a forcing trace with this file's adjacency; True iff every force is legal and all nodes end black."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    black = set(leaders)
    for forcer, forced in steps:
        if forcer not in black or forced in black:
            return False
        if {w for w in nbrs[forcer] if w not in black} != {forced}:
            return False
        black.add(forced)
    return black == set(derived) == set(range(n))


def addable_edges(n: int, edges, leaders) -> set[tuple[int, int]]:
    """Every non-edge uv such that the leaders still force all of G + uv."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
    addable = set()
    # Chunks keep the benchmark's own memory small next to the program's,
    # which peak_rss_mb measures in the same process.
    for lo in range(0, len(non_edges), 512):
        chunk = non_edges[lo:lo + 512]
        black, _ = closure_batch(n, edges, leaders, chunk)
        addable.update(e for e, full in zip(chunk, black.all(axis=1)) if full)
    return addable


def check_maximality(maximal: bool, violations, addable: set[tuple[int, int]]) -> dict[str, bool]:
    """The reported addable edges must be exactly the reference set `addable`."""
    viol = [(min(u, v), max(u, v)) for u, v in violations]
    return {
        "maximality.verdict": maximal == (not addable),
        "maximality.violations": len(set(viol)) == len(viol) and set(viol) == addable,
    }


def oracle_verdicts(report) -> tuple[dict[str, bool], int, int, int]:
    """Split a randomized_ssc_check report on ZFS-certified leaders.

    Returns (consistency results, correct, wrong, indeterminate).  Every
    realization of a ZFS leader set is controllable, so "uncontrollable" is
    wrong; "indeterminate" is an explicit non-answer, neither right nor wrong.
    """
    verdicts = [r.verdict for r in report.records]
    correct = verdicts.count("controllable")
    wrong = verdicts.count("uncontrollable")
    indet = verdicts.count("indeterminate")
    consistent = (
        len(verdicts) == report.trials == correct + wrong + indet
        and (report.pass_count, report.fail_count, report.indeterminate_count) == (correct, wrong, indet)
    )
    return {"oracle.tally": consistent}, correct, wrong, indet


def role_of(label) -> str | None:
    """Layout role a final grammar label stands for (the layout tags of constructions)."""
    if label.kind == "leader":
        return f"L{label.i}"
    if label.kind == "beta" and label.j is not None:
        return f"u_{label.i},{label.j}"
    if label.kind == "gamma" and label.j is None:
        return f"u_{label.i}"
    return None


def same_state(a, b) -> bool:
    return a.graph.edges() == b.graph.edges() and list(a.labels) == list(b.labels)


def check_grammar(final, replayed, steps: int, target_edges, target_layout, n: int, k: int,
                  extra_steps: int, program_iso: bool) -> dict[str, bool]:
    """A grammar run against its target construction, through role tags.

    A run has one step per edge plus `extra_steps` relabel-only steps.
    """
    roles = [role_of(lab) for lab in final.labels]
    by_role = {role: v for v, role in target_layout.items()}
    iso = None not in roles and sorted(roles) == sorted(by_role)
    if iso:
        mapped = {tuple(sorted((by_role[roles[u]], by_role[roles[v]]))) for u, v in final.graph.edges()}
        iso = mapped == {tuple(sorted(e)) for e in target_edges}
    edge_count = final.graph.edge_count()
    return {
        "grammar.iso": iso and program_iso,
        "grammar.replay": same_state(final, replayed),
        "grammar.edges": edge_count == expected_edges(n, k),
        "grammar.steps": steps == edge_count + extra_steps,
    }

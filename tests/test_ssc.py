"""Randomized structural controllability checks against an exact rank oracle."""
from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_connected_graph
from oracles import is_controllable_pair, kalman_rank_exact, kalman_rank_mod_p
from zfnets import ssc
from zfnets.constructions import (
    FAMILIES,
    ConstructionSpec,
    build,
    build_g1_bar,
    build_g2_bar,
    build_g3_bar,
    default_d,
)
from zfnets.graph import Graph, LeaderSet, complete_graph, path_graph
from zfnets.ssc import (
    MAX_N,
    MAX_WEIGHT,
    PRIME,
    SSCReport,
    _invert,
    _ranks,
    _reduce,
    _submul,
    SystemRealization,
    controllability_report,
    randomized_ssc_check,
    sample_realization,
)


def test_sample_realization_structure():
    g = path_graph(2)
    real = sample_realization(g, LeaderSet((0,)), seed=11)
    m = real.m_matrix
    assert m.shape == (2, 2)
    assert m[0, 1] == pytest.approx(m[1, 0])  # symmetric off-diagonals
    assert m.dtype == np.int64
    assert 1 <= abs(m[0, 1]) <= MAX_WEIGHT
    assert -MAX_WEIGHT <= m[0, 0] <= MAX_WEIGHT and -MAX_WEIGHT <= m[1, 1] <= MAX_WEIGHT
    assert real.b_matrix.tolist() == [[1.0], [0.0]]


def test_sample_realization_respects_sparsity():
    g = Graph(4, [(0, 1), (2, 3)])
    real = sample_realization(g, LeaderSet((0, 2)), seed=3)
    m = real.m_matrix
    for u in range(4):
        for v in range(u + 1, 4):
            if g.has_edge(u, v):
                assert m[u, v] != 0.0
            else:
                assert m[u, v] == 0.0
    assert real.b_matrix.shape == (4, 2)
    assert real.b_matrix[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert real.b_matrix[:, 1].tolist() == [0.0, 0.0, 1.0, 0.0]


def test_sample_realization_deterministic_per_seed():
    g = complete_graph(4)
    a = sample_realization(g, LeaderSet((0,)), seed=55)
    b = sample_realization(g, LeaderSet((0,)), seed=55)
    c = sample_realization(g, LeaderSet((0,)), seed=56)
    assert np.array_equal(a.m_matrix, b.m_matrix)
    assert not np.array_equal(a.m_matrix, c.m_matrix)


def test_edgeless_graph_realization_is_diagonal():
    g = Graph(3)
    real = sample_realization(g, LeaderSet((1,)), seed=9)
    off = real.m_matrix - np.diag(np.diag(real.m_matrix))
    assert np.all(off == 0.0)


def test_path_with_end_leader_is_controllable():
    g = path_graph(3)
    real = sample_realization(g, LeaderSet((0,)), seed=2)
    rank, verdict = controllability_report(real)
    assert rank == 3 and verdict == "controllable"
    assert is_controllable_pair(real)


def test_symmetric_weights_defeat_single_leader_on_k3():
    # hand-built realization: equal couplings make two followers indistinguishable
    n = 3
    m = np.array([[2, 1, 1], [1, -4, 1], [1, 1, -4]])
    b = np.array([[1], [0], [0]])
    real = SystemRealization(m_matrix=m, b_matrix=b, seed=0)
    rank, verdict = controllability_report(real)
    assert rank < n and verdict == "uncontrollable"
    assert not is_controllable_pair(real)


def test_all_leaders_always_controllable():
    g = complete_graph(5)
    real = sample_realization(g, LeaderSet(tuple(range(5))), seed=1)
    rank, verdict = controllability_report(real)
    assert rank == 5 and verdict == "controllable"


@given(st.integers(0, 2**31 - 1), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_verdict_agrees_with_exact_rank_oracle(seed, n):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 3)))
    leaders = LeaderSet(tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())))
    real = sample_realization(g, leaders, seed=seed)
    rank, verdict = controllability_report(real)
    exact = kalman_rank_exact(real.m_matrix, real.b_matrix)
    assert (verdict == "controllable") == (exact == n)
    assert rank == exact


def test_randomized_check_on_constructions():
    for net in (build_g2_bar(10, 2), build_g1_bar(8, 2, 4)):
        report = randomized_ssc_check(net.graph, net.leaders, trials=50, seed=17)
        assert report.pass_count == 50
        assert report.fail_count == 0 and report.indeterminate_count == 0


def test_randomized_check_flags_deficient_leaderings():
    # a single leader on K3 cannot force the other two symmetric nodes,
    # but random weights still make almost every realization controllable
    report = randomized_ssc_check(complete_graph(3), LeaderSet((0,)), trials=20, seed=5)
    assert report.pass_count + report.fail_count + report.indeterminate_count == 20


def test_report_is_deterministic_and_serializable():
    g = build_g2_bar(8, 2).graph
    leaders = LeaderSet((0, 1))
    a = randomized_ssc_check(g, leaders, trials=10, seed=42)
    b = randomized_ssc_check(g, leaders, trials=10, seed=42)
    assert a.records == b.records
    assert isinstance(a, SSCReport)
    assert a.n == 8 and a.n_leaders == 2 and a.trials == 10
    summary = a.summary()
    assert "10" in summary and "controllable" in summary
    csv_text = a.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "trial,seed,rank,verdict"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] in ("controllable", "uncontrollable", "indeterminate")


def test_trial_count_validation():
    g = path_graph(2)
    with pytest.raises(ValueError):
        randomized_ssc_check(g, LeaderSet((0,)), trials=0, seed=1)


@given(st.integers(0, 2**31 - 1), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_rank_is_exact_where_small_weights_lose_rank(seed, n):
    # weights in [-2, 2] on a general (not symmetric) M often lose rank
    rng = np.random.default_rng(seed)
    m = rng.integers(-2, 3, size=(n, n))
    b = rng.integers(-1, 2, size=(n, int(rng.integers(1, 3))))
    rank, verdict = controllability_report(SystemRealization(m, b, seed))
    exact = kalman_rank_exact(m, b)
    assert rank == exact and (verdict == "controllable") == (exact == n)


def test_zfs_constructions_are_certified_at_large_n():
    # the float rank called nearly every one of these trials uncontrollable
    specs = [ConstructionSpec(f, n, 4, default_d(f, n, 4)) for f in FAMILIES for n in (60, 120)]
    specs.append(ConstructionSpec("g1bar", 240, 4, 60))
    for spec in specs:
        net = build(spec)
        report = randomized_ssc_check(net.graph, net.leaders, trials=5, seed=spec.n)
        assert report.pass_count == report.trials, (spec, report.summary())


def test_size_and_dtype_limits():
    with pytest.raises(ValueError, match=str(MAX_N)):
        sample_realization(Graph(MAX_N + 1), LeaderSet((0,)), seed=0)
    too_big = np.broadcast_to(np.int64(0), (MAX_N + 1, MAX_N + 1))
    with pytest.raises(ValueError, match=str(MAX_N)):
        controllability_report(SystemRealization(too_big, too_big[:, :1], seed=0))
    for m, b in ((np.eye(3, dtype=np.int64), np.ones((4, 1), dtype=np.int64)),
                 (np.ones((2, 3), dtype=np.int64), np.ones((2, 1), dtype=np.int64)),
                 (np.eye(3, dtype=np.int64), np.ones(3, dtype=np.int64)),
                 (np.ones(3, dtype=np.int64), np.ones((3, 1), dtype=np.int64)),
                 (np.ones((2, 2, 2), dtype=np.int64), np.ones((2, 1), dtype=np.int64))):
        shapes = re.escape(f"got shapes {m.shape} and {b.shape}")
        with pytest.raises(ValueError, match=f"^a realization needs a square M .*, {shapes}$"):
            controllability_report(SystemRealization(m, b, seed=0))
    floats = SystemRealization(np.eye(2), np.ones((2, 1)), seed=0)
    with pytest.raises(ValueError, match="integer"):
        controllability_report(floats)
    small = SystemRealization(np.array([[0, 1], [1, 0]], dtype=np.uint8), np.eye(2, 1, dtype=np.uint8), seed=0)
    assert controllability_report(small) == (2, "controllable")
    # an unsigned entry at or above 2**63 must not wrap before it is reduced
    c = 2**64 - PRIME
    wide = SystemRealization(np.array([[0, c], [c, 0]], dtype=np.uint64), np.eye(2, 1, dtype=np.uint64), seed=0)
    same = SystemRealization(np.array([[0, c % PRIME], [c % PRIME, 0]]), np.eye(2, 1, dtype=np.int64), seed=0)
    assert controllability_report(wide) == controllability_report(same) == (2, "controllable")


def test_batch_inversion_matches_pow():
    rng = np.random.default_rng(4)
    cases = [[], [0], [0, 0], [1], [-1], [MAX_WEIGHT], [-MAX_WEIGHT], [PRIME - 1],
             [1, -1, MAX_WEIGHT, -MAX_WEIGHT], [0, 5, 0, 0, -7, 0], [3, 0, 0, MAX_WEIGHT, 0]]
    for size in (1, 2, 20, 97):
        heads = rng.integers(-MAX_WEIGHT, MAX_WEIGHT + 1, size=size)
        heads[rng.random(size) < 0.3] = 0  # zeros between nonzero heads
        cases.append(heads.tolist())
    for heads in cases:
        assert _invert(heads) == [pow(h, -1, PRIME) if h % PRIME else 0 for h in heads], heads


@pytest.mark.parametrize("elements, batches", [(ssc._BATCH_ELEMENTS, [8]), (3 * 30**2, [3, 3, 2])])
def test_batched_draw_matches_sample_realization(elements, batches, monkeypatch):
    # every trial's slice of the float stack is that trial's M^T in residues
    kernel, stacks = ssc._ranks, []

    def capturing(a, block):
        stacks.append(a.copy())
        return kernel(a, block)

    monkeypatch.setattr(ssc, "_ranks", capturing)
    monkeypatch.setattr(ssc, "_BATCH_ELEMENTS", elements)
    rng = np.random.default_rng(elements)
    g = random_connected_graph(rng, 30, extra_edges=20)
    leaders = LeaderSet((0, 7))
    report = randomized_ssc_check(g, leaders, trials=8, seed=21)
    assert [len(a) for a in stacks] == batches
    drawn = np.concatenate(stacks)
    for rec, a in zip(report.records, drawn):
        m = sample_realization(g, leaders, rec.seed).m_matrix
        assert np.array_equal(a.astype(np.int64) % PRIME, m.T % PRIME)
        # the stream a record replays: edge weights in edge order, then the diagonal
        rng = np.random.default_rng(rec.seed)
        weights = rng.integers(-MAX_WEIGHT, MAX_WEIGHT, size=len(g.edges())).tolist()
        expected = np.diag(rng.integers(-MAX_WEIGHT, MAX_WEIGHT + 1, size=g.n))
        for (x, y), w in zip(g.edges(), weights):
            expected[x, y] = expected[y, x] = w + (w >= 0)
        assert np.array_equal(a, expected)


def _batch(realizations):
    """Kernel input for a batch: every M^T and B^T as residues mod PRIME."""
    return (_reduce(np.stack([r.m_matrix.T % PRIME for r in realizations]) * 1.0),
            np.stack([r.b_matrix.T % PRIME for r in realizations]))


def _two_components(rng, n, width):
    """A connected graph on the first half plus a path on the rest, with
    every leader in the first half."""
    half = n // 2
    edges = random_connected_graph(rng, half, extra_edges=int(rng.integers(0, 3))).edges()
    edges += [(v, v + 1) for v in range(half, n - 1)]
    leaders = rng.choice(half, size=width, replace=False).tolist()
    return Graph(n, edges), LeaderSet(tuple(leaders))


@given(st.integers(0, 2**31 - 1), st.integers(4, 8), st.integers(1, 2))
@settings(max_examples=40, deadline=None)
def test_ragged_batch_ranks_match_exact_rank_and_batch_of_one(seed, n, width):
    # trials of one batch reach different ranks and drop out at different blocks
    rng = np.random.default_rng(seed)
    batch = []
    for kind in rng.integers(0, 3, size=6).tolist():
        if kind == 0:  # small weights on a general M often lose rank
            m = rng.integers(-2, 3, size=(n, n))
            b = rng.integers(-1, 2, size=(n, width))
            batch.append(SystemRealization(m, b, seed))
        elif kind == 1:
            batch.append(sample_realization(*_two_components(rng, n, width), int(rng.integers(2**31))))
        else:  # inputs that reach nothing
            m = rng.integers(-MAX_WEIGHT, MAX_WEIGHT + 1, size=(n, n))
            batch.append(SystemRealization(m, np.zeros((n, width), dtype=np.int64), seed))
    ranks = _ranks(*_batch(batch))
    for real, rank in zip(batch, ranks.tolist()):
        assert rank == kalman_rank_exact(real.m_matrix, real.b_matrix)
        assert rank == controllability_report(real)[0]


@pytest.mark.parametrize("seed", range(3))
def test_ragged_batch_ranks_where_pivot_columns_are_dropped(seed):
    # at n=40 the batch's operators are large enough to lose their pivot columns
    rng = np.random.default_rng(seed)
    n, width, batch = 40, 2, []
    for kind in (0, 1, 2, 1, 0, 1):
        if kind == 0:
            m = rng.integers(-2, 3, size=(n, n)) * (rng.random((n, n)) < 0.05)
            batch.append(SystemRealization(m, rng.integers(-1, 2, size=(n, width)), seed))
        elif kind == 1:
            batch.append(sample_realization(*_two_components(rng, n, width), int(rng.integers(2**31))))
        else:
            batch.append(SystemRealization(np.eye(n, dtype=np.int64), np.zeros((n, width), dtype=np.int64), 0))
    ranks = _ranks(*_batch(batch)).tolist()
    assert len(set(ranks)) > 1
    for real, rank in zip(batch, ranks):
        assert rank == kalman_rank_mod_p(real.m_matrix, real.b_matrix, PRIME)
        assert rank == controllability_report(real)[0]


@pytest.mark.parametrize("seed", range(8))
def test_extreme_weights_match_python_int_elimination(seed):
    # every entry at +/-MAX_WEIGHT: the largest products the kernel meets
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    batch = []
    for _ in range(4):
        sign = rng.choice([-1, 1], size=(n, n))
        symmetric = np.triu(sign) + np.triu(sign, 1).T
        pattern = rng.random((n, n)) < 0.6
        pattern = pattern | pattern.T | np.eye(n, dtype=bool)
        m = MAX_WEIGHT * symmetric * pattern if rng.random() < 0.5 else MAX_WEIGHT * sign
        b = MAX_WEIGHT * rng.choice([-1, 0, 1], size=(n, 2))
        batch.append(SystemRealization(m.astype(np.int64), b.astype(np.int64), seed))
    ranks = _ranks(*_batch(batch)).tolist()
    for real, rank in zip(batch, ranks):
        expected = kalman_rank_mod_p(real.m_matrix, real.b_matrix, PRIME)
        assert rank == expected
        assert controllability_report(real) == (
            expected, "controllable" if expected == n else "uncontrollable")


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_ragged_batch_ranks_across_panel_folds(width):
    # a path driven at one end gains one pivot per block, so its batch runs
    # n blocks and folds the panel (32 // width blocks) at least twice
    rng = np.random.default_rng(width)
    n = int(rng.integers(33 if width > 1 else 65, 71))
    assert n > 2 * (32 // width)
    path = sample_realization(path_graph(n), LeaderSet((0,)), int(rng.integers(2**31)))
    scales = rng.integers(1, MAX_WEIGHT + 1, size=(1, width)) * rng.choice([-1, 1], size=(1, width))
    batch = [SystemRealization(path.m_matrix, path.b_matrix * scales, 0)]  # 1 pivot of `width`
    batch.append(sample_realization(*_two_components(rng, n, width), int(rng.integers(2**31))))
    sign = rng.choice([-1, 1], size=(n, n))
    extreme = MAX_WEIGHT * (np.triu(sign) + np.triu(sign, 1).T)
    batch.append(SystemRealization(extreme, MAX_WEIGHT * rng.choice([-1, 0, 1], size=(n, width)), 0))
    batch.append(SystemRealization(extreme, np.zeros((n, width), dtype=np.int64), 0))
    m = rng.integers(-2, 3, size=(n, n)) * (rng.random((n, n)) < 0.05)
    batch.append(SystemRealization(m, rng.integers(-1, 2, size=(n, width)), 0))
    ranks = _ranks(*_batch(batch)).tolist()
    assert ranks[0] == n and ranks[3] == 0 and 0 < ranks[1] < n  # and drop out at different blocks
    for real, rank in zip(batch, ranks):
        assert rank == kalman_rank_mod_p(real.m_matrix, real.b_matrix, PRIME)


def test_inputs_wider_than_a_panel():
    # with width > 32 a panel holds one block, and U V needs the split
    rng = np.random.default_rng(33)
    n, width = 36, 33
    path = sample_realization(path_graph(n), LeaderSet((0,)), 5)
    b = np.zeros((n, width), dtype=np.int64)
    b[0] = rng.integers(1, MAX_WEIGHT + 1, size=width)
    b[n // 2, 3] = MAX_WEIGHT
    sign = rng.choice([-1, 1], size=(n, n)) * (rng.random((n, n)) < 0.08)
    sparse = MAX_WEIGHT * rng.choice([-1, 0, 1], size=(n, width)) * (rng.random((n, width)) < 0.03)
    batch = [SystemRealization(path.m_matrix, b, 0), SystemRealization(MAX_WEIGHT * sign, sparse, 0)]
    ranks = _ranks(*_batch(batch)).tolist()
    assert ranks[0] == n  # leader 0 forces the path
    assert ranks[1] == kalman_rank_mod_p(batch[1].m_matrix, batch[1].b_matrix, PRIME)


def test_one_batch_per_check_and_records_replay(monkeypatch):
    kernel, batches = ssc._ranks, []

    def counting(a, block):
        batches.append(len(a))
        return kernel(a, block)

    monkeypatch.setattr(ssc, "_ranks", counting)
    net = build_g2_bar(120, 4)
    randomized_ssc_check(net.graph, net.leaders, trials=20, seed=5)
    assert batches == [20]
    cap, batches[:] = ssc._BATCH_ELEMENTS // net.graph.n**2, []
    report = randomized_ssc_check(net.graph, net.leaders, trials=2 * cap + 1, seed=6)
    assert batches == [cap, cap, 1]
    for rec in report.records:
        replayed = controllability_report(sample_realization(net.graph, net.leaders, rec.seed))
        assert replayed == (rec.rank, rec.verdict)


def test_empty_system_and_inputless_b():
    empty = SystemRealization(np.zeros((0, 0), dtype=np.int64), np.zeros((0, 2), dtype=np.int64), 0)
    assert controllability_report(empty) == (0, "controllable")
    inputless = SystemRealization(np.eye(3, dtype=np.int64), np.zeros((3, 0), dtype=np.int64), 0)
    assert controllability_report(inputless) == (0, "uncontrollable")
    assert not is_controllable_pair(inputless)


def test_records_replay_through_a_batch_of_one_across_batches(monkeypatch):
    monkeypatch.setattr(ssc, "_BATCH_ELEMENTS", 2**15)
    net = build_g1_bar(60, 4, 15)
    trials = 40
    assert trials > ssc._BATCH_ELEMENTS // net.graph.n**2  # the trials span several batches
    report = randomized_ssc_check(net.graph, net.leaders, trials=trials, seed=9)
    for rec in report.records:
        replayed = controllability_report(sample_realization(net.graph, net.leaders, rec.seed))
        assert replayed == (rec.rank, rec.verdict)


def test_reduce_is_exact_on_its_whole_domain():
    top = 2**53 - 2**24
    q = 2**53 // PRIME - 1  # x / PRIME just below a half-integer near the top
    xs = [top, -top, 0, PRIME, -PRIME, q * PRIME + MAX_WEIGHT, -(q * PRIME + MAX_WEIGHT),
          q * PRIME + MAX_WEIGHT + 1, 2**52 + 12345, 2**48 - 1, MAX_WEIGHT, -MAX_WEIGHT]
    r = _reduce(np.array(xs, dtype=float))
    assert np.abs(r).max() <= 2**24 - 16
    assert [int(v) % PRIME for v in r] == [x % PRIME for x in xs]
    assert [v == 0 for v in r] == [x % PRIME == 0 for x in xs]


@pytest.mark.parametrize("inner", [32, 33, MAX_N])
def test_products_are_exact_at_the_extremes(inner):
    # 32 products are summed as they are, longer ones split a factor
    rng = np.random.default_rng(inner)
    a = rng.choice([-MAX_WEIGHT, MAX_WEIGHT], size=(2, 3, inner))
    b = rng.choice([-MAX_WEIGHT, MAX_WEIGHT], size=(2, inner, 4))
    c = rng.choice([-MAX_WEIGHT, MAX_WEIGHT], size=(2, 3, 4))
    a[0], b[0], c[0] = MAX_WEIGHT - 1, MAX_WEIGHT - 1, -MAX_WEIGHT  # the largest odd sum
    got = _submul(c.astype(float), a.astype(float), b.astype(float))
    exact = c.astype(object) - np.matmul(a.astype(object), b.astype(object))
    assert np.abs(got).max() <= 2**24 - 16
    assert (got.astype(np.int64) % PRIME == (exact % PRIME).astype(np.int64)).all()


def _disconnected_40():
    first = build_g1_bar(20, 2, 10).graph.edges()
    cycle = [(20 + i, 20 + (i + 1) % 20) for i in range(20)]
    return Graph(40, first + cycle + [(20, 30)]), LeaderSet((0, 1))


# sha256 of randomized_ssc_check(...).to_csv(), taken from the int64 oracle
# that preceded the float64 kernel; g1bar240 is what `zfnets oracle --out` writes.
PINNED_CSV = [
    ("g1bar240", lambda: (build_g1_bar(240, 4, 60).graph, LeaderSet((0, 1, 2, 3))), 20, 3,
     "1be795227b548d03271d2c0dea8e99ed5230b24c6ebab6f412a445f11d5e05c1"),
    ("g2bar120", lambda: (build_g2_bar(120, 4).graph, LeaderSet((0, 1, 2, 3))), 20, 5,
     "5ae0e44aa2ac017d780a5b3376ae22e74b30eac19961b69161dc5646399b4fa4"),
    ("g3bar60", lambda: (build_g3_bar(60, 4, default_d("g3bar", 60, 4)).graph, LeaderSet((0, 1, 2, 3))),
     20, 7, "2b12de465638fd30627de41fc9f61e37c7c085c905d8819f20503483f798e258"),
    ("disconnected40", _disconnected_40, 200, 11,
     "abba2735f56f5a0a3e07fc731784f42a2b082c21ab613ca3da9ee065d814d3a7"),
    # rank 100 < n in one full 20-trial batch: a 20-node path that no leader reaches;
    # digest from the fraction-free float64 kernel that preceded batch inversion
    ("g1bar100+path20", lambda: (Graph(120, build_g1_bar(100, 4, 25).graph.edges()
                                       + [(v, v + 1) for v in range(100, 119)]), LeaderSet((0, 1, 2, 3))),
     20, 13, "5b042bffb865a2e8562a3d27170d454f80dc02342c9bc48091b38ec0b695865b"),
]


@pytest.mark.parametrize("name, make, trials, seed, digest", PINNED_CSV, ids=[c[0] for c in PINNED_CSV])
def test_report_csv_matches_pinned_digest(name, make, trials, seed, digest, monkeypatch):
    g, leaders = make()
    if name == "disconnected40":
        monkeypatch.setattr(ssc, "_BATCH_ELEMENTS", 2**15)
        assert trials > ssc._BATCH_ELEMENTS // g.n**2  # several batches
    report = randomized_ssc_check(g, leaders, trials=trials, seed=seed)
    if name == "disconnected40":
        assert report.fail_count == trials and {rec.rank for rec in report.records} == {20}
    if name == "g1bar100+path20":
        assert trials <= ssc._BATCH_ELEMENTS // g.n**2  # one batch
        assert report.fail_count == trials and {rec.rank for rec in report.records} == {100}
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == digest

"""Distributed rewrite grammars: matching, scheduling, convergence targets."""
from __future__ import annotations

import dataclasses
import hashlib
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import applicable_matches_rescan, assert_every_schedule_ends_at, explore, state_key
from zfnets import grammar
from zfnets.constructions import (
    G1_BAR,
    G2_BAR,
    ConstructionSpec,
    InfeasibleSpecError,
    build_g1_bar,
    build_g2_bar,
    build_g3_bar,
)
from zfnets.graph import LeaderSet
from zfnets.grammar import (
    ALPHA,
    BETA,
    GAMMA,
    LEADER,
    PI1,
    PI2,
    SEED,
    Label,
    LabeledGraph,
    NonConvergenceError,
    Rule,
    Schedule,
    grammar_r1,
    grammar_r2,
    initial_state,
    label_isomorphic,
    replay,
    run_to_fixpoint,
)
from zfnets.graph import Graph
from zfnets.zero_forcing import expected_edges, is_zfs


def test_labels_are_values():
    assert Label(BETA, 1, 2) == Label(BETA, 1, 2)
    assert hash(Label(BETA, 1, 2)) == hash(Label(BETA, 1, 2))
    assert Label(ALPHA) == Label(ALPHA, None, None)
    assert Label(LEADER, 1) != Label(LEADER, 1, 0)
    assert repr(Label(BETA, 1, 2)) == "Label(kind='beta', i=1, j=2)"
    label = Label(LEADER, 1)
    with pytest.raises(AttributeError):
        label.i = 2
    assert label == Label(LEADER, 1)


def test_label_text_forms():
    assert str(Label(ALPHA)) == "a"
    assert str(Label(SEED, 1)) == "S1"
    assert str(Label(LEADER, 2)) == "L2"
    assert str(Label(BETA, 1, 2)) == "b1,2"
    assert str(Label(GAMMA, 3)) == "g3"


def test_initial_state_shape():
    st = initial_state(12)
    assert st.graph.n == 12 and st.graph.edge_count() == 0
    kinds = [lab.kind for lab in st.labels]
    assert kinds.count(SEED) == 1 and kinds.count(ALPHA) == 11
    assert st.labels[0] == Label(SEED, 1)
    with pytest.raises(ValueError, match="^need at least one node$"):
        initial_state(0)


def test_grammar_parameter_validation():
    # every message is the family spec's
    with pytest.raises(InfeasibleSpecError, match="^need at least one leader, got n_leaders=0$"):
        grammar_r1(0, 4)
    with pytest.raises(InfeasibleSpecError, match="^family g2bar requires at least 2 leaders, got 1$"):
        grammar_r2(6, 1)
    for n, k in ((3, 3), (4, 3), (3, 2)):  # K3 and K4 are not g2bar
        with pytest.raises(InfeasibleSpecError, match="^family g2bar requires at least 2 followers"):
            grammar_r2(n, k)


def test_grammar_rules_accept_what_their_family_spec_accepts():
    def same_verdict(spec_args, make_rules, *args):
        try:
            ConstructionSpec(*spec_args)
        except InfeasibleSpecError as exc:
            with pytest.raises(InfeasibleSpecError, match=f"^{re.escape(str(exc))}$"):
                make_rules(*args)
        else:
            assert make_rules(*args)

    for k in range(-1, 6):
        for d in (1, 2, 3):
            same_verdict((G1_BAR, k * d, k, d), grammar_r1, k, d)
        for n in range(-1, 9):
            same_verdict((G2_BAR, n, k), grammar_r2, n, k)


def test_initial_matches_are_all_seed_recruitments():
    st = initial_state(12)
    matches = grammar._MatchIndex(st, grammar_r1(3, 4)).matches()
    assert len(matches) == 11
    assert all(m.rule.name == "r0" and m.nodes[0] == 0 for m in matches)


def test_applicable_matches_is_deterministic():
    st = initial_state(8)
    rules = grammar_r2(8, 2)
    a = grammar._MatchIndex(st, rules).matches()
    b = grammar._MatchIndex(st, rules).matches()
    assert [(m.rule.name, m.nodes) for m in a] == [(m.rule.name, m.nodes) for m in b]


def test_symmetric_rules_bind_single_orientation():
    # two unconnected leaders: the clique rule must offer one match, not two
    st = initial_state(4)
    st.labels[0] = Label(LEADER, 1)
    st.labels[1] = Label(LEADER, 2)
    rules = grammar_r1(2, 2)
    pair_matches = [m for m in grammar._MatchIndex(st, rules).matches() if m.rule.name == "r5"]
    assert len(pair_matches) == 1


def test_step_returns_new_state_and_rejects_stale():
    st = initial_state(4)
    rules = grammar_r1(2, 2)
    match = grammar._MatchIndex(st, rules).matches()[0]
    once = Schedule(0, ((match.rule.name, match.nodes),))
    before_labels = list(st.labels)
    nxt = replay(st, rules, once)
    assert st.labels == before_labels and st.graph.edge_count() == 0
    assert nxt.graph.edge_count() == 1
    with pytest.raises(ValueError, match=r"^step 1: binding \(0, 1\) for r0 is not applicable$"):
        replay(nxt, rules, once)


def test_recruitment_fires_once_per_leader():
    # after a leader starts its chain, the start rule must not re-fire on it
    st = initial_state(6)
    rules = grammar_r1(2, 3)
    state, schedule = run_to_fixpoint(st, rules, seed=13)
    starts = [name for name, _ in schedule.steps if name == "r2"]
    assert len(starts) == 2  # exactly one chain per leader


def test_deterministic_three_step_run_and_trace_text():
    # n=2, single leader: the schedule is forced at every step
    state, schedule = run_to_fixpoint(initial_state(2), grammar_r1(1, 2), seed=99)
    assert schedule.to_text() == (
        "STEP 1 RULE r1 NODES 0\n"
        "STEP 2 RULE r2 NODES 0,1\n"
        "STEP 3 RULE r4 NODES 1\n"
    )
    assert label_isomorphic(state, build_g1_bar(2, 1, 2))


def test_r1_converges_to_layered_family():
    target = build_g1_bar(12, 3, 4)
    rules = grammar_r1(3, 4)
    for seed in range(12):
        state, schedule = run_to_fixpoint(initial_state(12), rules, seed=seed)
        assert label_isomorphic(state, target)
        # step count identity: one step per edge, plus a relabel per chain end
        # plus the final seed relabel
        assert len(schedule.steps) == expected_edges(12, 3) + 3 + 1


def test_r1_single_leader_builds_a_path():
    state, schedule = run_to_fixpoint(initial_state(12), grammar_r1(1, 12), seed=4)
    assert label_isomorphic(state, build_g1_bar(12, 1, 12))
    degrees = sorted(len(state.graph.neighbors(v)) for v in range(12))
    assert degrees == [1, 1] + [2] * 10
    assert len(schedule.steps) == 11 + 1 + 1


def test_r2_converges_to_diameter_two_family():
    for n, k, seed in ((12, 3, 0), (12, 3, 7), (8, 2, 1), (8, 2, 9)):
        state, schedule = run_to_fixpoint(initial_state(n), grammar_r2(n, k), seed=seed)
        assert label_isomorphic(state, build_g2_bar(n, k))
        # one step per edge, plus the final seed and chain-end relabels
        assert len(schedule.steps) == expected_edges(n, k) + 2


def test_phase_priority_scheduling_reaches_same_target():
    target = build_g1_bar(12, 3, 4)
    state, schedule = run_to_fixpoint(
        initial_state(12), grammar_r1(3, 4), seed=3, prefer_phase=PI2
    )
    assert label_isomorphic(state, target)
    assert len(schedule.steps) == 34


def grammar_r2_narrow(n: int, n_leaders: int) -> list[Rule]:
    """R2 with the paper's literal same-subscript r6: leader i > 1 fans out
    only to the chain node of the same index."""
    *rules, r6 = grammar_r2(n, n_leaders)
    return [*rules, dataclasses.replace(r6, guard=lambda a, b: a.i != 1 and b.i == a.i)]


def test_narrow_fanout_variant_underbuilds():
    rules = grammar_r2_narrow(12, 3)
    state, _ = run_to_fixpoint(initial_state(12), rules, seed=6)
    assert state.graph.edge_count() == 14
    assert not label_isomorphic(state, build_g2_bar(12, 3))


def test_replay_reproduces_the_run():
    rules = grammar_r2(10, 2)
    state, schedule = run_to_fixpoint(initial_state(10), rules, seed=21)
    again = replay(initial_state(10), rules, schedule)
    assert again == state


def test_replay_rejects_tampered_schedules():
    rules = grammar_r2(8, 2)
    state, schedule = run_to_fixpoint(initial_state(8), rules, seed=2)
    name, nodes = schedule.steps[0]
    swapped = ((name, tuple(reversed(nodes))),) + schedule.steps[1:]
    with pytest.raises(ValueError, match="step 1"):
        replay(initial_state(8), rules, Schedule(schedule.seed, swapped))
    with pytest.raises(ValueError, match="unknown rule"):
        replay(initial_state(8), rules, Schedule(0, (("r99", (0, 1)),)))


def _keep(a, b):
    return a


@pytest.mark.parametrize("shape", [
    dict(connect=True, relabel_left=_keep),
    dict(relabel_left=_keep, relabel_right=_keep),
    dict(),
    dict(right=ALPHA, relabel_left=_keep),
    dict(right=ALPHA, relabel_right=_keep),
    dict(right=ALPHA),
    dict(relabel_left=_keep, join=(_keep, _keep)),
], ids=["one-connect", "one-relabel-right", "one-no-relabel",
        "two-relabel-left", "two-relabel-right", "two-no-effect", "one-join"])
def test_rule_rejects_shapes_whose_effect_omits_a_node(shape):
    with pytest.raises(ValueError, match="^rule 'odd': a (one|two)-node rule must "):
        Rule("odd", PI1, LEADER, **shape)


def test_replacing_a_rule_into_a_rejected_shape_raises():
    rules = {rule.name: rule for rule in grammar_r1(2, 4)}
    for name, change in (("r4", dict(connect=True)), ("r1", dict(relabel_left=None)),
                         ("r6", dict(connect=False)),
                         ("r3", dict(connect=False, relabel_right=None))):
        with pytest.raises(ValueError, match=f"^rule '{name}': "):
            dataclasses.replace(rules[name], **change)


def test_duplicate_rule_names_are_rejected():
    rules = grammar_r1(2, 3) + [Rule("r0", PI1, LEADER, LEADER, connect=True)]
    with pytest.raises(ValueError, match="duplicate rule name 'r0'"):
        run_to_fixpoint(initial_state(6), rules, seed=0)
    with pytest.raises(ValueError, match="duplicate rule name 'r0'"):
        grammar._MatchIndex(initial_state(6), rules)
    _, schedule = run_to_fixpoint(initial_state(6), grammar_r1(2, 3), seed=0)
    with pytest.raises(ValueError, match="duplicate rule name 'r0'"):
        replay(initial_state(6), rules, schedule)


def test_label_isomorphic_rejects_unconverged_states():
    with pytest.raises(NonConvergenceError, match="alpha"):
        label_isomorphic(initial_state(4), build_g2_bar(4, 2))


def test_label_isomorphic_discriminates_targets():
    target = build_g1_bar(12, 3, 4)
    state, _ = run_to_fixpoint(initial_state(12), grammar_r1(3, 4), seed=0)
    assert label_isomorphic(state, target)
    assert not label_isomorphic(state, build_g2_bar(12, 3))
    assert not label_isomorphic(state, build_g1_bar(16, 4, 4))
    moved = state.copy()
    moved.graph.remove_edge(*moved.graph.edges()[-1])
    moved.graph.add_edge(*moved.graph.non_edges()[0])
    assert not label_isomorphic(moved, target)
    swapped = state.copy()
    a, b = (next(v for v, lab in enumerate(state.labels) if lab.kind == LEADER and lab.i == i)
            for i in (1, 2))
    swapped.labels[a], swapped.labels[b] = state.labels[b], state.labels[a]
    assert not label_isomorphic(swapped, target)
    # the r2 run and g2bar(13, 4) both have the word 0^9: only k tells them apart
    state, _ = run_to_fixpoint(initial_state(12), grammar_r2(12, 3), seed=0)
    assert label_isomorphic(state, build_g2_bar(12, 3))
    assert not label_isomorphic(state, build_g2_bar(13, 4))


def test_label_isomorphic_judges_a_relabelled_g3bar():
    # no grammar builds g3bar yet: wrap a shuffled build, leader labels on its leaders
    net = build_g3_bar(24, 3, 5)
    perm = [int(v) for v in np.random.default_rng(5).permutation(24)]
    labels = [Label(GAMMA, 1)] * 24
    for i in range(3):
        labels[perm[i]] = Label(LEADER, i + 1, 0)
    state = LabeledGraph(Graph(24, [(perm[u], perm[v]) for u, v in net.graph.edges()]), labels)
    assert label_isomorphic(state, net)
    assert not label_isomorphic(state, build_g3_bar(24, 3, 4))


# Its match stays listed, so only the step budget, 4 n^2 + 8 n + 32, ends a run.
STUCK = [Rule("x", PI1, SEED, relabel_left=_keep)]


def test_step_budget_guards_against_runaway():
    with pytest.raises(NonConvergenceError, match="^no fixpoint after 92 steps \\(n=3\\)$"):
        run_to_fixpoint(initial_state(3), STUCK)


def test_step_budget_applies_no_step_beyond_it():
    seen = []
    with pytest.raises(NonConvergenceError, match="^no fixpoint after 92 steps \\(n=3\\)$"):
        run_to_fixpoint(initial_state(3), STUCK, on_step=lambda i, state, match: seen.append(i))
    assert seen == list(range(1, 93))
    # a run that needs exactly the budget, 44 steps at n=1, reaches its fixpoint
    count = [Rule("x", PI1, SEED, guard=lambda a, b: a.i <= 44,
                  relabel_left=lambda a, b: Label(SEED, a.i + 1))]
    final, schedule = run_to_fixpoint(initial_state(1), count)
    assert len(schedule.steps) == 44 and final.labels == [Label(SEED, 45)]


def test_edge_count_grows_monotonically():
    counts = []
    run_to_fixpoint(
        initial_state(12),
        grammar_r1(3, 4),
        seed=11,
        on_step=lambda i, state, match: counts.append(state.graph.edge_count()),
    )
    assert counts[-1] == 30
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_final_leaders_are_a_forcing_set():
    state, _ = run_to_fixpoint(initial_state(12), grammar_r2(12, 3), seed=8)
    leaders = LeaderSet(tuple(v for v, lab in enumerate(state.labels) if lab.kind == LEADER))
    assert len(leaders) == 3
    assert is_zfs(state.graph, leaders)


def test_state_equality_and_copy():
    st = initial_state(5)
    cp = st.copy()
    assert cp == st
    cp.labels[1] = Label(LEADER, 1)
    assert cp != st


def _listing(matches):
    return [(m.rule.name, m.nodes) for m in matches]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# Digests of Schedule.to_text() taken from the full-rescan engine that
# preceded the incremental match index: every seed must keep its schedule.
CRITERION_7_DIGESTS = [
    (lambda: grammar_r1(3, 4), 12, "9e1b73bd88468342e9a8a657a1de11a4c1ed3887e10b39c6be17f8fbab771657"),
    (lambda: grammar_r1(1, 12), 12, "0a7d8203c1a7ecd03bb83965934007241eb783a1ef016cf8b4b6a9d15489882b"),
    (lambda: grammar_r1(2, 6), 12, "38d25726a20769764734874cdbc289ea4e229ea7c2d79938dc37bdcc5e821f1f"),
    (lambda: grammar_r2(12, 3), 12, "a8a41a0d088fc70e877215d42106148777b81cb34865dbb1b70044e276f80a32"),
    (lambda: grammar_r2(8, 2), 8, "d6b3603a0448f1c39d4a3c6f8a0278fdc677bafadfa7471d29b745cbbb73da7f"),
]

ASSEMBLE_DIGESTS = {
    ("r1", 48): ["33075afb95eab051b7cb12f7cc85a4db6ca84c357585a62df7c7ad4bdfb8b104",
                 "194ecbf48fc4b28169fce938b6ae23e984a205e10955ac521fb43fd2aa47c214",
                 "156b2f901286753fbde9d225d059ae56ffb792abd9b41b6da2dc645a22d29fab",
                 "ce6a30810d0699795cc52f321c88621bd45c03a5657bff13760326955e3fcab3"],
    ("r1", 96): ["ecaf4cbaaae957de153bb064496f36b5e4456bc6535a9bea9e29d587bccebe63",
                 "5b6688ccff5073fb19965d6459f66496c37d4725716a2435af9755807035db76",
                 "b1930da35c05f7ced862cf3db4802591b22c158397728fc88ef12e4ffb82eb51",
                 "261e66f76e89714bcacb31f1ab078d4be4bfd9f352c1692767ef30304b01c4f4"],
    ("r2", 48): ["6bf1bf5945e7f9668d51dced3bec75779d28948ca7e5aba9ad5d234d2d36b823",
                 "3b58a2f84bac4fd3f13ee88fef105c1f10cb1511881f63912f7672df3d9605db",
                 "c56c5352472bae9401cd994065728f7f2f25a5e8376d2b356f15c9592455922c",
                 "82bf9f76648164a78a77bac14753c8114d17fee55d1d8f4306029377d5221603"],
    ("r2", 96): ["b7f86caaa4f52e7f53383f594d5aebe01b8dc7b3dcd1f3de139cf998e1d6d2be",
                 "62341d2950e26192e62ea4e132636d699c0bbc792b748cfbb16707777daeaf26",
                 "b3c52e368ac0acc55c258c65cf25da6ac165c81b22b8586855b753e3b1259056",
                 "a102461513389a8dd6606395f2fc1570a2873637fd4140c4295d9a216a57d00a"],
}


@pytest.mark.parametrize("make_rules, n, digest", CRITERION_7_DIGESTS,
                         ids=["r1-k3-d4", "r1-k1-d12", "r1-k2-d6", "r2-n12-k3", "r2-n8-k2"])
def test_criterion_7_schedules_match_pinned_digests(make_rules, n, digest):
    rules = make_rules()
    joined = hashlib.sha256()
    for seed in range(100):
        _, schedule = run_to_fixpoint(initial_state(n), rules, seed=seed,
                                      prefer_phase=PI2 if seed >= 80 else None)
        joined.update(schedule.to_text().encode())
    assert joined.hexdigest() == digest


# Every branch of Generator.integers(total): no draw (1), 32-bit Lemire
# (below 2**32), a whole 32-bit draw (2**32) and 64-bit Lemire (above), with
# totals whose rejection zone covers about half of the draws.
_RNG_TOTALS = st.one_of(
    st.integers(1, 2**32 - 1),
    st.integers(2**32 + 1, 2**63),
    st.sampled_from([1, 2, 3, 2**31 + 1, 2**32, 2**62 + 1, 2**63 - 1, 2**63]),
)


# A seed of more than four 32-bit words also takes the pool's extra mixing loop.
@settings(max_examples=300, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**128 - 1), st.integers(2**128, 2**320)),
       totals=st.lists(_RNG_TOTALS, min_size=1, max_size=80))
def test_scheduler_rng_equals_numpy_default_rng(seed, totals):
    ours, ref = grammar._Pcg64(seed), np.random.default_rng(seed)
    assert [ours.integers(t) for t in totals] == [int(ref.integers(t)) for t in totals]


def test_scheduler_rng_rejects_negative_seeds_like_numpy():
    for make in (grammar._Pcg64, np.random.default_rng):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            make(-1)


@pytest.mark.parametrize("name, n", sorted(ASSEMBLE_DIGESTS))
def test_assemble_sized_schedules_match_pinned_digests(name, n):
    rules = grammar_r1(4, n // 4) if name == "r1" else grammar_r2(n, 4)
    for seed, digest in enumerate(ASSEMBLE_DIGESTS[name, n]):
        _, schedule = run_to_fixpoint(initial_state(n), rules, seed=seed)
        assert _sha(schedule.to_text()) == digest, seed


def test_r1_at_240_nodes_keeps_its_schedule_and_runs_in_seconds():
    start = time.perf_counter()
    state, schedule = run_to_fixpoint(initial_state(240), grammar_r1(4, 60), seed=7)
    elapsed = time.perf_counter() - start
    assert label_isomorphic(state, build_g1_bar(240, 4, 60))
    assert _sha(schedule.to_text()) == (
        "177fc386277f28ce6ed0fe4ed8d611ee8321525430fcffc5ce0370493d0207d7"
    )
    assert elapsed < 10.0, f"r1 at n=240 took {elapsed:.1f} s"


def test_r1_makes_a_few_guard_calls_per_step():
    # Keyed partner lookup: a new chain node is tried against one layer's
    # BETA labels, not every BETA label (the scan made 116,002 calls here).
    calls = []

    def counted(rule):
        def guard(a, b):
            calls.append(rule.name)
            return rule.guard(a, b)
        return rule if rule.right is None else dataclasses.replace(rule, guard=guard)

    rules = [counted(rule) for rule in grammar_r1(4, 60)]
    _, schedule = run_to_fixpoint(initial_state(240), rules, seed=7)
    assert _sha(schedule.to_text()) == (
        "177fc386277f28ce6ed0fe4ed8d611ee8321525430fcffc5ce0370493d0207d7"
    )
    assert len(calls) <= 8 * len(schedule.steps), (len(calls), len(schedule.steps))


@pytest.mark.parametrize("make_rules, n", [
    (lambda: grammar_r1(3, 4), 12),
    (lambda: grammar_r1(4, 5), 20),
    (lambda: grammar_r1(5, 6), 30),
    (lambda: grammar_r2(12, 3), 12),
    (lambda: grammar_r2(20, 4), 20),
    (lambda: grammar_r2_narrow(12, 3), 12),
], ids=["r1-n12", "r1-n20", "r1-k5", "r2-n12", "r2-n20", "r2-narrow-n12"])
@pytest.mark.parametrize("prefer", [None, PI1, PI2])
def test_match_index_equals_rescan_on_every_step(monkeypatch, make_rules, n, prefer):
    draw = grammar._MatchIndex.draw
    calls = []

    def checked_draw(index, rng, prefer_phase):
        calls.append(1)
        assert _listing(index.matches()) == _listing(
            applicable_matches_rescan(index.state, index.rules))
        return draw(index, rng, prefer_phase)

    monkeypatch.setattr(grammar._MatchIndex, "draw", checked_draw)
    rules = make_rules()
    for seed in (0, 1):
        calls.clear()
        _, schedule = run_to_fixpoint(initial_state(n), rules, seed=seed, prefer_phase=prefer)
        assert len(calls) == len(schedule.steps) + 1


@pytest.mark.parametrize("make_rules", [lambda: grammar_r1(4, 24), lambda: grammar_r2(96, 4)],
                         ids=["r1", "r2"])
def test_match_index_rechecks_few_bindings_that_do_not_change(monkeypatch, make_rules):
    # A rewrite updates rows by label, so no per-binding verdict or effect
    # is recomputed: what remains is the drawn match's own effect.
    calls = []
    for name in ("_binding_ok", "_match_effect"):
        real = getattr(grammar, name)
        monkeypatch.setattr(grammar, name, lambda *args, real=real: calls.append(1) or real(*args))
    _, schedule = run_to_fixpoint(initial_state(96), make_rules(), seed=5)
    assert len(calls) <= 2 * len(schedule.steps), (len(calls), len(schedule.steps))


def _random_labeled_graph(rng, n: int) -> LabeledGraph:
    labels = []
    for _ in range(n):
        kind, i, j = (ALPHA, LEADER, BETA, GAMMA)[int(rng.integers(4))], *rng.integers(1, 4, 2)
        labels.append(Label(ALPHA) if kind == ALPHA else
                      Label(LEADER, int(i), 0 if j == 1 else None) if kind == LEADER else
                      Label(kind, int(i), int(j)))
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < 0.2:
                g.add_edge(u, v)
    return LabeledGraph(g, labels)


# Rules beyond R1's and R2's: relabels that return the label they were given
# (on both nodes in `keep`, on one in `bump` and `tag`), so a rewrite may
# leave its match listed; relabels that move a node to another kind; a guard
# on the right label; a fire-once guard on the left label, which the rule
# itself sets from the right label; connect rules within one kind, whose
# reverse bindings may share an effect; `swap`, which relabels both of its
# nodes without joining them, so its reverse binding is new after it; and
# `hop`, a keyed rule whose join is its whole condition and whose relabels
# move both nodes to other join keys, creating and emptying label groups
# and so buckets; and rules that relabel both nodes of one kind, whose
# reverse binding has the same effect in `meet` and never does in `lead`.
EDGE_CASE_RULES = [
    Rule("bump", PI1, BETA, ALPHA, guard=lambda a, b: a.i < 4,
         relabel_left=lambda a, b: Label(BETA, a.i + 1), relabel_right=lambda a, b: b),
    Rule("keep", PI1, LEADER, ALPHA, relabel_left=lambda a, b: a,
         relabel_right=lambda a, b: b),
    Rule("link", PI2, BETA, BETA, guard=lambda a, b: b.i >= a.i, connect=True,
         relabel_right=lambda a, b: Label(GAMMA, b.i)),
    Rule("reach", PI2, LEADER, BETA, guard=lambda a, b: a.j is None or a.j < b.i,
         connect=True, relabel_left=lambda a, b: Label(LEADER, a.i, b.i)),
    Rule("pair", PI1, GAMMA, GAMMA, connect=True),
    Rule("end", PI1, GAMMA, guard=lambda a, b: a.i == 2,
         relabel_left=lambda a, b: Label(LEADER, 1)),
    Rule("tag", PI1, LEADER, GAMMA, guard=lambda a, b: a.i <= b.i,
         relabel_left=lambda a, b: a, relabel_right=lambda a, b: Label(BETA, a.i)),
    Rule("swap", PI1, GAMMA, BETA, guard=lambda a, b: a.i != b.i,
         relabel_left=lambda a, b: Label(BETA, a.i), relabel_right=lambda a, b: Label(GAMMA, b.i)),
    Rule("hop", PI2, GAMMA, BETA, join=(lambda a: a.i + 1, lambda b: b.i),
         relabel_left=lambda a, b: Label(GAMMA, b.i, a.j),
         relabel_right=lambda a, b: Label(BETA, a.i, b.j)),
    Rule("meet", PI2, BETA, BETA, guard=lambda a, b: a.i != b.i,
         relabel_left=lambda a, b: Label(GAMMA, a.i + b.i),
         relabel_right=lambda a, b: Label(GAMMA, a.i + b.i)),
    Rule("lead", PI2, GAMMA, GAMMA, guard=lambda a, b: a.i < 3,
         relabel_left=lambda a, b: Label(BETA, b.i), relabel_right=lambda a, b: Label(BETA, 3)),
]


def _asked_within_a_layer(a: Label, b: Label) -> bool:
    assert a.j == b.j, f"guard asked about {a} and {b}, whose join keys differ"
    return True


# Keyed rules whose guards do not test their keys: only the join keeps BETA
# nodes of different layers apart in `layer`, whose guard is asked only
# about labels whose keys agree, and only the join tells a `rise` binding
# from its reverse, which has the same effect.
LAYER = Rule("layer", PI2, BETA, BETA, guard=_asked_within_a_layer, connect=True,
             join=(lambda a: a.j, lambda b: b.j))
RISE = Rule("rise", PI2, BETA, BETA, connect=True, join=(lambda a: a.j + 1, lambda b: b.j))


def _index_follows_rescan(state: LabeledGraph, rules: list[Rule], rng, steps: int = 40) -> None:
    index = grammar._MatchIndex(state, rules)
    for _ in range(steps):
        listed = index.matches()
        assert _listing(listed) == _listing(applicable_matches_rescan(state, rules))
        if not listed:
            break
        index.apply(listed[int(rng.integers(len(listed)))])


# One label per seed that 12 of 40 nodes share: a large partner class (the
# alpha pool, a chain label, a leader clique) whose rows must leave out the
# neighbours of their node.
CROWD_LABELS = [Label(ALPHA), Label(BETA, 2, 2), Label(GAMMA, 1, 2), Label(LEADER, 1)]


@pytest.mark.parametrize("seed", range(8))
def test_match_index_tracks_random_rewrites(seed):
    rng = np.random.default_rng(seed)
    rule_sets = (EDGE_CASE_RULES, grammar_r1(2, 6), grammar_r2(12, 2), [LAYER, RISE])
    for rules in rule_sets:
        _index_follows_rescan(_random_labeled_graph(rng, 12), rules, rng)
    rng = np.random.default_rng([seed, 40])
    for rules in rule_sets:
        state = _random_labeled_graph(rng, 40)
        for v in rng.choice(40, 12, replace=False):
            state.labels[int(v)] = CROWD_LABELS[seed % 4]
        _index_follows_rescan(state, rules, rng)


def test_replay_rejects_a_binding_whose_join_keys_differ():
    state = LabeledGraph(Graph(3), [Label(BETA, 1, 1), Label(BETA, 2, 2), Label(BETA, 3, 1)])
    with pytest.raises(ValueError, match=r"^step 1: binding \(0, 1\) for layer is not applicable$"):
        replay(state, [LAYER], Schedule(0, (("layer", (0, 1)),)))
    assert replay(state, [LAYER], Schedule(0, (("layer", (0, 2)),))).graph.has_edge(0, 2)


# Labels a node outside a binding can carry in R1 and R2: every chain-start
# label (GAMMA(i,1), BETA(i,1), BETA(1), GAMMA(1)) and started leaders too.
OUTSIDE_LABELS = [
    Label(ALPHA), Label(SEED, 1), Label(SEED, 2), Label(LEADER, 1), Label(LEADER, 2),
    Label(LEADER, 1, 0), Label(LEADER, 2, 0), Label(GAMMA, 1, 1), Label(GAMMA, 2, 1),
    Label(BETA, 1, 1), Label(BETA, 2, 1), Label(GAMMA, 1, 2), Label(BETA, 2, 2),
    Label(BETA, 1), Label(GAMMA, 1), Label(BETA, 2), Label(GAMMA, 2),
]


@pytest.mark.parametrize("seed", range(6))
def test_rules_read_only_their_bound_pair(seed):
    # Relabelling any node w outside a binding, or joining w to a bound node,
    # must leave the binding's verdict and effect as they were.
    rng = np.random.default_rng(seed)
    for rules in (grammar_r1(2, 6), grammar_r2(12, 2)):
        state = _random_labeled_graph(rng, 10)
        g, n = state.graph, state.graph.n
        for rule in rules:
            lefts = [v for v in range(n) if state.labels[v].kind == rule.left]
            bindings = ([(v,) for v in lefts] if rule.right is None else
                        [(v, u) for v in lefts for u in range(n)
                         if u != v and state.labels[u].kind == rule.right])
            for nodes in bindings:
                seen = (grammar._binding_ok(state, rule, nodes),
                        grammar._match_effect(state, rule, nodes))

                def same() -> bool:
                    return seen == (grammar._binding_ok(state, rule, nodes),
                                    grammar._match_effect(state, rule, nodes))

                for w in set(range(n)) - set(nodes):
                    own = state.labels[w]
                    for lab in OUTSIDE_LABELS:
                        state.labels[w] = lab
                        assert same(), (rule.name, nodes, w, lab)
                        for b in nodes:
                            if not g.has_edge(w, b):
                                g.add_edge(w, b)
                                assert same(), (rule.name, nodes, w, lab, b)
                                g.remove_edge(w, b)
                    state.labels[w] = own


def test_started_leaders_read_l_i_0():
    assert str(Label(LEADER, 2, 0)) == "L2,0"
    # every R1 leader starts a chain; in R2 only leader 1 does
    for rules, started in ((grammar_r1(3, 4), ["L1,0", "L2,0", "L3,0"]),
                           (grammar_r2(12, 3), ["L1,0", "L2", "L3"])):
        final, _ = run_to_fixpoint(initial_state(12), rules, seed=5)
        assert sorted(str(lab) for lab in final.labels if lab.kind == LEADER) == started


def test_step_and_replay_reject_node_ids_outside_the_graph():
    rules = grammar_r1(1, 4)
    st = initial_state(4)
    st.labels[0], st.labels[3] = st.labels[3], st.labels[0]  # the seed at node 3
    for nodes in ((-1,), (4,), (), (3, 3)):
        with pytest.raises(ValueError, match="^step 1: binding .* for r1 is not applicable$"):
            replay(st, rules, Schedule(0, (("r1", nodes),)))
    r0 = initial_state(4)
    for nodes in ((0, 9), (0, -4), (0,), (0, 0), (0, 1, 2), ()):
        with pytest.raises(ValueError, match="step 1"):
            replay(r0, grammar_r1(2, 2), Schedule(0, (("r0", nodes),)))
    assert replay(st, rules, Schedule(0, (("r1", (3,)),))).labels[3] == Label(LEADER, 1)


def test_run_and_replay_need_one_label_per_node():
    state = LabeledGraph(Graph(3), [Label(SEED, 1), Label(ALPHA)])
    rules = grammar_r1(1, 3)
    with pytest.raises(ValueError, match="^need exactly one label per node$"):
        run_to_fixpoint(state, rules)
    with pytest.raises(ValueError, match="^need exactly one label per node$"):
        replay(state, rules, Schedule(0, ()))


# (n, rules, target, reachable states up to renaming)
EXPLORED = [
    (5, lambda: grammar_r1(5, 1), lambda: build_g1_bar(5, 5, 1), 77),  # n = k: no chains
    (6, lambda: grammar_r1(2, 3), lambda: build_g1_bar(6, 2, 3), 53),
    (8, lambda: grammar_r1(2, 4), lambda: build_g1_bar(8, 2, 4), 184),
    (6, lambda: grammar_r1(3, 2), lambda: build_g1_bar(6, 3, 2), 330),
    (8, lambda: grammar_r2(8, 2), lambda: build_g2_bar(8, 2), 137),
    (7, lambda: grammar_r2(7, 3), lambda: build_g2_bar(7, 3), 723),
]


EXPLORED_IDS = ["r1-5-5-1", "r1-6-2-3", "r1-8-2-4", "r1-6-3-2", "r2-8-2", "r2-7-3"]


@pytest.mark.parametrize("n, make_rules, make_target, count", EXPLORED, ids=EXPLORED_IDS)
def test_every_schedule_ends_at_the_target(n, make_rules, make_target, count):
    # not 100 seeds but every order of rule application: no schedule cycles,
    # deadlocks or stops anywhere but at the construction
    assert assert_every_schedule_ends_at(n, make_rules(), make_target()) == count


@pytest.mark.parametrize("n, make_rules, count", [
    (n, make_rules, pairs) for (n, make_rules, _, _), pairs in zip(EXPLORED, (111, 89, 695, 875, 174, 3056))
], ids=EXPLORED_IDS)
def test_disjoint_matches_commute(n, make_rules, count):
    # every rule reads only its own labels and their edge, so two listed
    # matches on disjoint nodes reach the same state in either order
    rules = make_rules()

    def step(state, match):
        return replay(state, rules, Schedule(0, ((match.rule.name, match.nodes),)))

    _, states = explore(n, rules)
    pairs = 0
    for state in states.values():
        matches = applicable_matches_rescan(state, rules)
        for i, first in enumerate(matches):
            for second in matches[i + 1:]:
                if set(first.nodes).isdisjoint(second.nodes):
                    pairs += 1
                    assert (state_key(step(step(state, first), second))
                            == state_key(step(step(state, second), first)))
    assert pairs == count

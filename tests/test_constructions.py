"""Network construction families: counts, shapes, boundaries, feasibility."""
from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complete_graph, g1_feasible, g2_feasible, g3_diameters, grid_points, path_graph
from oracles import (assert_builds_carry_their_words, edge_terms_g1, edge_terms_g2,
                     vertex_connectivity, word_edges)
from zfnets.constructions import (
    FAMILIES,
    ConstructionSpec,
    InfeasibleSpecError,
    build,
    build_g1,
    build_g1_bar,
    build_g2_bar,
    build_g3_bar,
    normalize_family,
    parse_construction_config,
)
from zfnets.graph import Graph, export_dot, to_edge_list_text
from zfnets.zero_forcing import build_word, expected_edges, is_zfs


def test_family_constants_and_aliases():
    assert FAMILIES == ("g1", "g1bar", "g2bar", "g3bar")
    assert normalize_family("G1_bar") == "g1bar"
    assert normalize_family("g2") == "g2bar"
    assert normalize_family(" g3-bar ") == "g3bar"
    with pytest.raises(ValueError, match="family"):
        normalize_family("g9")


def test_expected_edges_values():
    # k(2n - k - 1) / 2
    assert expected_edges(12, 3) == 30
    assert expected_edges(60, 3) == 174
    assert expected_edges(5, 1) == 4
    assert expected_edges(4, 4) == 6  # degenerates to complete graph count


@given(st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_expected_edges_is_integer_formula(n, k):
    if k > n:
        with pytest.raises(ValueError):
            expected_edges(n, k)
        return
    m = expected_edges(n, k)
    assert isinstance(m, int)
    assert 2 * m == k * (2 * n - k - 1)


def test_edge_term_breakdowns():
    paths, cliques = edge_terms_g1(3, 4)
    assert (paths, cliques) == (12, 18)
    fan, chain, leaders = edge_terms_g2(12, 3)
    assert (fan, chain, leaders) == (18, 9, 3)


@given(st.integers(2, 8), st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_edge_terms_g1_sum_to_total(k, d):
    n = k * d
    assert sum(edge_terms_g1(k, d)) == expected_edges(n, k)


@given(st.integers(2, 10), st.integers(2, 30))
@settings(max_examples=60, deadline=None)
def test_edge_terms_g2_sum_to_total(k, m):
    n = k + m
    assert sum(edge_terms_g2(n, k)) == expected_edges(n, k)


def test_g1_skeleton_shape():
    net = build_g1(12, 3, 4)
    assert net.graph.edge_count() == 12  # k paths of length d, plus leader clique
    assert net.graph.diameter() == 2 * 4 - 1
    assert is_zfs(net.graph, net.leaders)
    # layered ids: leader i heads path i
    assert net.graph.has_edge(0, 3) and net.graph.has_edge(1, 4)


def test_g1_single_path_is_a_path():
    net = build_g1(4, 1, 4)
    assert net.graph == path_graph(4)


def test_g1bar_counts_and_diameter():
    for n, k in grid_points(36):
        if not g1_feasible(n, k):
            continue
        d = n // k
        net = build_g1_bar(n, k, d)
        assert net.graph.edge_count() == expected_edges(n, k)
        # k = 1 degenerates to the path P_n whose diameter is one less
        assert net.graph.diameter() == (d - 1 if k == 1 else d)
        assert is_zfs(net.graph, net.leaders)


def test_g1bar_trivial_depth_is_complete():
    # d = 1 means every node is a leader: the clique
    net = build_g1_bar(5, 5, 1)
    assert net.graph.edge_count() == 10
    assert net.graph.diameter() == 1


def test_g1bar_path_case():
    assert build_g1_bar(5, 1, 5).graph == path_graph(5)


def test_g1bar_is_the_kth_power_of_the_path():
    # u ~ v iff 1 <= |u - v| <= k, the band a no-fill elimination order rests on
    for k in range(1, 9):
        for d in range(1, 31):
            n = k * d
            power = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, min(n, u + k + 1))])
            assert build_g1_bar(n, k, d).graph == power, (k, d)


def test_g2bar_concrete_edge_set():
    net = build_g2_bar(5, 2)
    assert net.graph.edges() == [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
    assert net.graph.diameter() == 2


def test_g2bar_diameter_always_two():
    for n, k in grid_points(36):
        if not g2_feasible(n, k):
            continue
        net = build_g2_bar(n, k)
        assert net.graph.diameter() == 2
        assert net.graph.edge_count() == expected_edges(n, k)


def test_g3bar_edge_count_invariant_over_depth():
    for n, k in ((12, 3), (12, 2), (18, 4), (24, 5)):
        for d in g3_diameters(n, k):
            net = build_g3_bar(n, k, d)
            assert net.graph.edge_count() == expected_edges(n, k)
            assert net.graph.diameter() == d
            assert is_zfs(net.graph, net.leaders)


def test_g3bar_boundary_equals_g2bar():
    assert build_g3_bar(12, 3, 2).graph == build_g2_bar(12, 3).graph
    assert build_g3_bar(12, 6, 2).graph == build_g2_bar(12, 6).graph  # n == 2k


def test_g3bar_boundary_equals_g1bar():
    assert build_g3_bar(12, 3, 4).graph == build_g1_bar(12, 3, 4).graph
    assert build_g3_bar(18, 3, 6).graph == build_g1_bar(18, 3, 6).graph


# sha256 over every (family, N <= 24, k, d) below, taken before build() became
# the only builder: each case's InfeasibleSpecError text or its .edges,
# .layout and .dot bytes as `zfnets construct` writes them.
CONSTRUCTION_DIGEST = "ae26cf9fbb25f962507d9dbea5e007d0e52546a01c081efea1d19b8aa7896226"


def test_construction_bytes_match_pinned_digest():
    h = hashlib.sha256()
    feasible = 0
    for n in range(1, 25):
        for k in range(1, n + 1):
            for family in FAMILIES:
                for d in [None] if family == "g2bar" else range(1, n + 1):
                    h.update(f"{family} {n} {k} {d}\n".encode())
                    try:
                        net = build(ConstructionSpec(family, n, k, d))
                    except InfeasibleSpecError as exc:
                        h.update(f"error {exc}\n".encode())
                        continue
                    feasible += 1
                    assert net.leaders == tuple(range(k))
                    layout = "".join(f"{v} {net.layout[v]}\n" for v in range(n))
                    for text in (to_edge_list_text(net.graph), layout,
                                 export_dot(net.graph, net.leaders, net.layout)):
                        h.update(text.encode())
    assert feasible == 727
    assert h.hexdigest() == CONSTRUCTION_DIGEST


def test_infeasible_specs_name_the_constraint():
    with pytest.raises(InfeasibleSpecError, match="n = n_leaders"):
        build_g1(13, 3, 4)
    with pytest.raises(InfeasibleSpecError, match="2 followers"):
        build_g2_bar(3, 2)
    with pytest.raises(InfeasibleSpecError, match="2 leaders"):
        build_g2_bar(6, 1)
    with pytest.raises(InfeasibleSpecError, match="d <= n/n_leaders"):
        build_g3_bar(12, 3, 5)
    with pytest.raises(InfeasibleSpecError, match="d <= n/n_leaders"):
        build_g3_bar(12, 6, 3)  # tail would be shorter than one layer


@pytest.mark.parametrize("shorthand", [build_g1, build_g1_bar])
def test_g1_shorthands_take_d_from_the_spec(shorthand):
    assert shorthand(12, 3) == shorthand(12, 3, 4)
    with pytest.raises(InfeasibleSpecError, match=(
            "requires n = n_leaders \\* d \\(got n=12, n_leaders=5, d=2, product 10\\)$")):
        shorthand(12, 5)


@given(st.integers(1, 6).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), max_size=40))))
def test_build_word_equals_its_listed_edges(k_word):
    k, word = k_word
    assert build_word(k, word) == Graph(k + len(word), word_edges(k, word))


@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=2, max_size=10 - k))))
@settings(max_examples=150, deadline=None)
def test_word_graphs_have_vertex_connectivity_k(k_word):
    # so connectivity ties on every maximal design; only the spectrum tells them apart
    k, word = k_word
    assert vertex_connectivity(build_word(k, word)) == k


def test_vertex_connectivity_oracle_on_known_graphs():
    assert vertex_connectivity(path_graph(5)) == 1
    assert vertex_connectivity(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) == 2
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0
    assert vertex_connectivity(complete_graph(5)) == 4


def test_build_word_rejects_symbols_outside_the_slots():
    assert build_word(2, [1, 0]).edge_count() == 5
    for word in ([2], [0, -1]):
        with pytest.raises(ValueError, match="slot"):
            build_word(2, word)


def test_every_build_carries_its_forcing_word():
    # every feasible spec with N <= 24 and k <= 12; CI adds N = 60, 120 and 240
    assert assert_builds_carry_their_words(range(1, 25)) == (648, 72)


def test_construction_is_deterministic():
    a = build_g3_bar(18, 4, 3)
    b = build_g3_bar(18, 4, 3)
    assert a.graph == b.graph and a.leaders == b.leaders and a.layout == b.layout


def test_layout_tags():
    net = build_g1_bar(12, 3, 4)
    assert net.layout[0] == "L1" and net.layout[2] == "L3"
    assert net.layout[3] == "u_1,1" and net.layout[11] == "u_3,3"
    g2 = build_g2_bar(6, 2)
    assert g2.layout[2] == "u_1" and g2.layout[5] == "u_4"
    g3 = build_g3_bar(12, 3, 3)
    assert g3.layout[3] == "u_1,1"
    assert g3.layout[6] == "v_1"
    assert set(net.layout) == set(range(12))


def test_spec_validation_and_dispatch():
    spec = ConstructionSpec("g1bar", 12, 3, 4)
    net = build(spec)
    assert net.family == "g1bar" and net.spec == spec
    with pytest.raises(ValueError):
        ConstructionSpec("g1bar", 12, 0, 4)
    with pytest.raises(ValueError):
        ConstructionSpec("g1bar", 3, 4, 1)
    with pytest.raises(InfeasibleSpecError, match="diameter"):
        build(ConstructionSpec("g2bar", 12, 3, 5))
    # g2bar accepts d omitted or d == 2
    assert build(ConstructionSpec("g2bar", 12, 3, None)).graph.diameter() == 2


def test_spec_is_the_tuple_of_its_fields():
    spec = ConstructionSpec("g2", 12, 3)
    assert spec == ("g2bar", 12, 3, 2)
    assert ConstructionSpec(family="g2", n=12, n_leaders=3, d=None) == spec
    assert repr(spec) == "ConstructionSpec(family='g2bar', n=12, n_leaders=3, d=2)"


def test_replacing_a_spec_field_validates_the_result():
    spec = ConstructionSpec("g1bar", 12, 3)
    with pytest.raises(InfeasibleSpecError, match=(
            "^family g1bar requires n = n_leaders \\* d "
            "\\(got n=13, n_leaders=3, d=4, product 12\\)$")):
        spec._replace(n=13)
    wider = spec._replace(n=15, d=5)
    assert type(wider) is ConstructionSpec and wider == ("g1bar", 15, 3, 5)
    # the replaced fields go through the constructor, which fills in d again
    assert spec._replace(family="g2", d=None) == ("g2bar", 12, 3, 2)


@pytest.mark.parametrize("family, d", [("g1", 4), ("g1bar", 4), ("g2bar", 2)])
def test_spec_fills_in_the_diameter_that_n_and_k_fix(family, d):
    spec = ConstructionSpec(family, 12, 3)
    assert spec == ConstructionSpec(family, 12, 3, d) and spec.d == d
    assert build(spec).graph == build(ConstructionSpec(family, 12, 3, d)).graph


@pytest.mark.parametrize("family", ["g1", "g1bar"])
def test_spec_keeps_its_messages_when_it_fills_in_d(family):
    # a supplied d must still agree, and a non-divisor leader count still fails
    with pytest.raises(InfeasibleSpecError, match=(
            f"^family {family} requires n = n_leaders \\* d "
            "\\(got n=12, n_leaders=3, d=5, product 15\\)$")):
        ConstructionSpec(family, 12, 3, 5)
    with pytest.raises(InfeasibleSpecError, match=(
            f"^family {family} requires n = n_leaders \\* d "
            "\\(got n=12, n_leaders=5, d=2, product 10\\)$")):
        ConstructionSpec(family, 12, 5)
    with pytest.raises(InfeasibleSpecError, match="^need at least one leader, got n_leaders=0$"):
        ConstructionSpec(family, 12, 0)


def test_spec_still_asks_g3bar_for_its_diameter():
    with pytest.raises(InfeasibleSpecError, match="^family g3bar requires a diameter d$"):
        ConstructionSpec("g3bar", 12, 3)
    with pytest.raises(InfeasibleSpecError, match="^family g2bar has diameter 2 by construction; got d=3$"):
        ConstructionSpec("g2bar", 12, 3, 3)


def test_config_parsing():
    text = "# sample\nfamily = g1bar\nn = 12\nnl = 3\nd = 4\n"
    spec = parse_construction_config(text)
    assert spec == ConstructionSpec("g1bar", 12, 3, 4)
    assert parse_construction_config("family = g1\nn = 12\nnl = 3\n") == ConstructionSpec("g1", 12, 3, 4)
    with pytest.raises(ValueError, match="line 2"):
        parse_construction_config("family = g1bar\nnonsense\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_construction_config("family = g1bar\ncolor = blue\n")
    with pytest.raises(ValueError, match="family"):
        parse_construction_config("n = 12\nnl = 3\n")
    for bad, message in (
        ("family = g1bar\nn = 12\nnl = 3\nd = four\n",
         "config line 4: d must be an integer, got 'four'"),
        ("family = g1bar\nn = 12.0\nnl = 3\n", "config line 2: n must be an integer, got '12.0'"),
    ):
        with pytest.raises(InfeasibleSpecError) as info:
            parse_construction_config(bad)
        assert str(info.value) == message

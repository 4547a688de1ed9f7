"""Strictness-aware weights and the rooted distance graph with its shortest paths."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from randnets import chain_stp, hidden_circuit_stp, random_consistent_stp
from tcsp import (
    INF,
    ZERO,
    NegativeCircuit,
    NegativeCircuitReachable,
    NetworkFormatError,
    RootedDistanceGraph,
    Weight,
    bellman_ford,
    floyd_warshall,
    format_weight,
    parse_weight,
    reachable,
    reachable_set,
    read_edge_list,
    stp_to_graph,
    w_add,
    w_leq,
    w_less,
    w_min,
    weight,
    write_edge_list,
)
from tcsp.graph import MAX_VERTICES


# -- weights -------------------------------------------------------------------------


def test_weight_text_round_trip():
    for text in ["0", "7/2", "-3", "5~", "-3~", "0~", "+inf"]:
        assert format_weight(parse_weight(text)) == text


def test_weight_construction():
    assert weight(3) == Weight(Fraction(3), False)
    assert weight("7/2", True) == Weight(Fraction(7, 2), True)
    assert INF.value is None and not INF.strict
    with pytest.raises(ValueError):
        Weight(None, True)  # "strictly less than infinity" is meaningless
    with pytest.raises(TypeError):
        weight(0.5)


def test_w_add_absorbs_infinity_and_ors_strictness():
    assert w_add(weight(3), weight(4)) == weight(7)
    assert w_add(weight(3, True), weight(4)) == weight(7, True)
    assert w_add(weight(3, True), weight(4, True)) == weight(7, True)
    assert w_add(INF, weight(-100, True)) == INF
    assert w_add(INF, INF) == INF


def test_w_less_orders_strict_below_plain():
    zero_strict = weight(0, True)
    assert w_less(weight(-1), zero_strict)
    assert w_less(zero_strict, ZERO)
    assert not w_less(ZERO, zero_strict)
    assert w_less(ZERO, weight(1))
    assert w_less(weight(1000000), INF)
    assert not w_less(INF, INF)
    assert not w_less(ZERO, ZERO)


def test_w_leq_and_w_min():
    assert w_leq(ZERO, ZERO)
    assert w_leq(weight(1, True), weight(1))
    assert not w_leq(weight(1), weight(1, True))
    assert w_min(weight(2), weight(3)) == weight(2)
    assert w_min(INF, weight(3, True)) == weight(3, True)
    assert w_min(weight(5), weight(5, True)) == weight(5, True)


_SAMPLES = [
    INF,
    ZERO,
    weight(0, True),
    weight(1),
    weight(1, True),
    weight(-2),
    weight(-2, True),
    weight("1/2"),
    weight("-7/3", True),
]


def test_w_less_is_a_strict_total_order():
    for a, b in itertools.product(_SAMPLES, repeat=2):
        assert not (w_less(a, b) and w_less(b, a))
        if a != b:
            assert w_less(a, b) or w_less(b, a)
        else:
            assert not w_less(a, b)
    for a, b, c in itertools.product(_SAMPLES, repeat=3):
        if w_less(a, b) and w_less(b, c):
            assert w_less(a, c)


def test_w_add_is_commutative_associative_and_monotone():
    for a, b in itertools.product(_SAMPLES, repeat=2):
        assert w_add(a, b) == w_add(b, a)
    for a, b, c in itertools.product(_SAMPLES, repeat=3):
        assert w_add(w_add(a, b), c) == w_add(a, w_add(b, c))
        if w_leq(a, b):
            assert w_leq(w_add(a, c), w_add(b, c))


def test_bound_order_agrees_with_w_less_on_finite_weights():
    finite = [w for w in _SAMPLES if w.value is not None]
    by_bound = sorted(finite, key=lambda w: w.bound)
    for earlier, later in zip(by_bound, by_bound[1:]):
        assert not w_less(later, earlier)


# -- graph basics ---------------------------------------------------------------------


def test_graph_diagonal_is_pinned_to_zero():
    g = RootedDistanceGraph(2)
    assert g.w[0][0] == ZERO and g.w[2][2] == ZERO
    with pytest.raises(ValueError):
        g.set_edge(1, 1, weight(5))


def test_graph_needs_a_nonnegative_vertex_count():
    assert RootedDistanceGraph(0).w == [[ZERO]]
    with pytest.raises(ValueError, match="^n_vars must be >= 0$"):
        RootedDistanceGraph(-1)


def test_graph_copy_is_independent():
    g = RootedDistanceGraph(1)
    g.set_edge(0, 1, weight(5))
    h = g.copy()
    h.set_edge(0, 1, weight(6))
    assert g.edge(0, 1) == weight(5) and h.edge(0, 1) == weight(6)
    assert g != h and g == g.copy()


def test_finite_edges_are_sorted():
    g = RootedDistanceGraph(2)
    g.set_edge(2, 0, weight(1))
    g.set_edge(0, 2, weight(3, True))
    g.set_edge(1, 0, weight(2))
    assert [(i, j) for (i, j, _) in g.finite_edges()] == [(0, 2), (1, 0), (2, 0)]


def _chain_graph() -> RootedDistanceGraph:
    return stp_to_graph(chain_stp())


def _hidden_graph() -> RootedDistanceGraph:
    return stp_to_graph(hidden_circuit_stp())


def test_chain_graph_edges():
    g = _chain_graph()
    assert g.edge(0, 1) == weight(20) and g.edge(1, 0) == weight(-10)
    assert g.edge(0, 4) == weight(70) and g.edge(4, 0) == weight(-60)
    assert g.edge(1, 2) == weight(40) and g.edge(2, 1) == weight(-30)
    assert g.edge(2, 3) == weight(-10) and g.edge(3, 2) == weight(20)
    assert g.edge(3, 4) == weight(50) and g.edge(4, 3) == weight(-40)
    assert g.edge(0, 2) == INF and g.edge(2, 4) == INF


# -- all-pairs shortest paths ----------------------------------------------------------


def test_floyd_warshall_chain_golden():
    fw = floyd_warshall(_chain_graph())
    assert [w.value for w in fw.w[0]] == [0, 20, 50, 30, 70]
    assert [fw.w[i][0].value for i in range(5)] == [0, -10, -40, -20, -60]
    assert all(not w.strict for row in fw.w for w in row)


def test_floyd_warshall_satisfies_triangle_inequality():
    rng = random.Random(4391)
    for _ in range(40):
        net, _ = random_consistent_stp(rng)
        fw = floyd_warshall(stp_to_graph(net))
        n = net.n_vars + 1
        for i in range(n):
            assert fw.w[i][i] == ZERO
            for j in range(n):
                for k in range(n):
                    assert w_leq(fw.w[i][j], w_add(fw.w[i][k], fw.w[k][j]))


def test_floyd_warshall_detects_hidden_circuit():
    with pytest.raises(NegativeCircuit) as err:
        floyd_warshall(_hidden_graph())
    assert err.value.vertex in {2, 3, 4}  # the circuit X2 -> X4 -> X3 -> X2


def test_floyd_warshall_treats_zero_strict_diagonal_as_negative():
    # two edges forming a circuit of weight 0 where one leg is strict: infeasible
    g = RootedDistanceGraph(1)
    g.set_edge(0, 1, weight(5, True))
    g.set_edge(1, 0, weight(-5))
    with pytest.raises(NegativeCircuit):
        floyd_warshall(g)


def test_floyd_warshall_keeps_plain_zero_circuits():
    g = RootedDistanceGraph(1)
    g.set_edge(0, 1, weight(5))
    g.set_edge(1, 0, weight(-5))
    fw = floyd_warshall(g)
    assert fw.w[0][1] == weight(5) and fw.w[1][0] == weight(-5)


def _less(a, b) -> bool:
    """a < b on (Fraction, strict) pairs, None (+inf) last and a~ just below a."""
    if a is None or b is None:
        return b is None and a is not None
    return a[0] < b[0] or (a[0] == b[0] and a[1] and not b[1])


def _reference_floyd_warshall(g: RootedDistanceGraph) -> RootedDistanceGraph:
    """Floyd-Warshall relaxing on its own (Fraction, strict) pairs, None for
    +inf: a sum is strict when either part is, and +inf absorbs."""
    w = [[None if x.is_inf() else (x.value, x.strict) for x in row] for row in g.w]
    for k in g.vertices():
        for i in g.vertices():
            if w[i][k] is None or i == k:
                continue
            for j in g.vertices():
                if w[k][j] is None or j == k:
                    continue
                cand = (w[i][k][0] + w[k][j][0], w[i][k][1] or w[k][j][1])
                if _less(cand, w[i][j]):
                    w[i][j] = cand
                    if i == j and _less(cand, (Fraction(0), False)):
                        raise NegativeCircuit(i)
    d = g.copy()
    d.w = [[INF if x is None else Weight(*x) for x in row] for row in w]
    return d


def _random_weighted_graph(rng: random.Random) -> RootedDistanceGraph:
    """Edges off a hidden potential by a small slack: a circuit's weight is
    its slacks' sum, so negative, 0~ and plain-zero circuits all occur."""
    n = rng.randint(1, 6)
    pot = [Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3))) for _ in range(n + 1)]
    g = RootedDistanceGraph(n)
    density = rng.uniform(0.2, 0.9)
    for i in range(n + 1):
        for j in range(n + 1):
            if i != j and rng.random() < density:
                slack = rng.choice((-1, 0, 0, 0, Fraction(1, 2), Fraction(2, 3), 1, 4))
                g.set_edge(i, j, Weight(pot[j] - pot[i] + slack, rng.random() < 0.3))
    return g


def test_floyd_warshall_matches_a_weight_level_reference():
    rng = random.Random(27183)
    outcomes = {"shortest": 0, "circuit": 0}
    for _ in range(800):
        g = _random_weighted_graph(rng)
        try:
            want = _reference_floyd_warshall(g)
        except NegativeCircuit as exc:
            with pytest.raises(NegativeCircuit) as err:
                floyd_warshall(g)
            assert err.value.vertex == exc.vertex
            outcomes["circuit"] += 1
            continue
        got = floyd_warshall(g)
        assert got == want
        assert all(w.value is None or type(w.value) is Fraction for row in got.w for w in row)
        outcomes["shortest"] += 1
    assert min(outcomes.values()) >= 100, outcomes


# -- single source ----------------------------------------------------------------------


def test_bellman_ford_matches_floyd_warshall_rows():
    rng = random.Random(9217)
    for _ in range(30):
        net, _ = random_consistent_stp(rng)
        g = stp_to_graph(net)
        fw = floyd_warshall(g)
        source = rng.randrange(0, net.n_vars + 1)
        assert bellman_ford(g, source) == fw.w[source]


def test_bellman_ford_chain_golden():
    dist = bellman_ford(_chain_graph(), 0)
    assert [w.value for w in dist] == [0, 20, 50, 30, 70]


def test_bellman_ford_raises_only_when_the_circuit_is_reachable():
    g = _hidden_graph()
    # the negative circuit lies beyond the infinite edge (1, 2): invisible from 0 and 1
    dist = bellman_ford(g, 0)
    assert [w.value for w in dist] == [0, 20, None, None, None]
    assert bellman_ford(g, 1)[0] == weight(-10)
    for source in (2, 3, 4):
        with pytest.raises(NegativeCircuitReachable) as err:
            bellman_ford(g, source)
        assert err.value.source == source


def test_bellman_ford_rejects_bad_source():
    with pytest.raises(IndexError):
        bellman_ford(_chain_graph(), 9)


# -- reachability -------------------------------------------------------------------------


def test_reachability_around_the_infinite_edge():
    g = _hidden_graph()
    assert not reachable(g, 0, 2)
    assert reachable(g, 2, 0)
    assert reachable_set(g, 0) == {0, 1}
    assert reachable_set(g, 2) == {0, 1, 2, 3, 4}
    assert reachable_set(g, 0, reverse=True) == {0, 1, 2, 3, 4}
    assert reachable(g, 3, 3)  # reflexive


@pytest.mark.parametrize("source", [-1, 5])
def test_reachable_set_rejects_a_bad_source(source):
    # -1 must not read as the last vertex
    for reverse in (False, True):
        with pytest.raises(IndexError):
            reachable_set(_hidden_graph(), source, reverse)


# -- edge-list file format ------------------------------------------------------------------


def test_edge_list_round_trip_is_byte_identical():
    g = _chain_graph()
    text = write_edge_list(g)
    assert text.startswith("# vertices 5\n") and text.endswith("\n")
    again = read_edge_list(text)
    assert again == g
    assert write_edge_list(again) == text


def test_edge_list_keeps_strictness_markers():
    g = RootedDistanceGraph(2)
    g.set_edge(0, 1, weight(20))
    g.set_edge(1, 0, weight(41, True))
    g.set_edge(1, 2, weight(5, True))
    g.set_edge(2, 1, weight(0, True))
    text = write_edge_list(g)
    assert "1 0 41~" in text and "2 1 0~" in text
    assert read_edge_list(text) == g


def test_edge_list_reader_tolerates_comments_and_infers_size():
    g = read_edge_list("0 1 5\n# a remark\n\n1 2 -3~\n")
    assert g.n_vars == 2 and g.edge(1, 2) == weight(-3, True)
    # decimal weights are parsed exactly, like everywhere else in the text formats
    assert read_edge_list("0 1 5.5\n").edge(0, 1) == weight("11/2")


@pytest.mark.parametrize(
    "bad",
    [
        "# vertices 2\n0 1\n",  # missing weight
        "# vertices 2\n0 1 5 9\n",  # too many tokens
        "# vertices 2\n0 1 5\n0 1 6\n",  # duplicate edge
        "# vertices 2\n1 1 5\n",  # diagonal
        "# vertices 2\n0 1 +inf\n",  # infinite edges stay implicit
        "# vertices 2\n0 5 3\n",  # index out of range
        "# vertices x\n0 1 5\n",  # malformed header
        "# vertices 2\n0 1 abc\n",  # unparseable weight
        "",  # nothing to size the graph from
    ],
)
def test_edge_list_reader_rejects_malformed_input(bad):
    with pytest.raises(NetworkFormatError):
        read_edge_list(bad)


def test_edge_list_reader_caps_the_vertex_count():
    assert read_edge_list(f"# vertices {MAX_VERTICES}\n").n_vars == MAX_VERTICES - 1
    assert read_edge_list(f"0 {MAX_VERTICES - 1} 1\n").n_vars == MAX_VERTICES - 1
    for text in (f"# vertices {MAX_VERTICES + 1}\n", f"0 {MAX_VERTICES} 1\n"):
        with pytest.raises(NetworkFormatError, match="exceed the limit"):
            read_edge_list(text)


def test_edge_list_reader_reports_line_numbers():
    with pytest.raises(NetworkFormatError) as err:
        read_edge_list("# vertices 3\n0 1 5\n1 1 7\n")
    assert "3" in str(err.value)

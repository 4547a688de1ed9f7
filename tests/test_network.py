"""Constraint matrices, graph conversions, path bounds, and the JSON file format."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randnets import (
    chain_stp,
    creeping_circuit_stp,
    elementary_path_weights,
    fragmenting_tcsp,
    hidden_circuit_stp,
    random_bounded_stp,
    random_consistent_stp,
    random_detached_stp,
    random_disjunctive_tcsp,
)
from tcsp import (
    DimensionMismatch,
    EmptyLabel,
    Interval,
    IntervalUnion,
    NetworkFormatError,
    NotAnStp,
    Outcome,
    PathBounds,
    RootedDistanceGraph,
    Tcsp,
    ZERO,
    build_tcsp,
    check_solution,
    connectivity,
    convex_closure,
    disconnected_variables,
    down_weight,
    graph_to_stp,
    is_refinement,
    is_stp,
    network_from_json,
    network_to_json,
    parse_union,
    path_bounds,
    path_range,
    pc1,
    reachable_set,
    stp_to_graph,
    up_weight,
    w_add,
    w_leq,
    w_less,
    weight,
)
from tcsp.graph import MAX_VERTICES
from tcsp.intervals import _exact
from tcsp.network import first_empty_entry

_by_bound = attrgetter("bound")
U = parse_union


# -- construction ---------------------------------------------------------------------


def test_build_tcsp_shape_and_defaults():
    net = build_tcsp(2, [])
    assert net.n_vars == 2
    for i in range(3):
        assert net.m[i][i] == IntervalUnion.point(0)
        for j in range(3):
            if i != j:
                assert net.m[i][j].is_universal()
    assert net.neighbours == [(), (), ()]


def test_build_tcsp_mirrors_converse():
    net = build_tcsp(2, [(0, 1, U("[1,2] u [5,8)"))])
    assert net.entry(0, 1) == U("[1,2] u [5,8)")
    assert net.entry(1, 0) == U("(-8,-5] u [-2,-1]")
    # the structure leaves the origin out: domains are not arcs
    assert net.neighbours == [(), (), ()]


def test_build_tcsp_canonicalizes_orientation():
    # a constraint supplied as (j, i) lands at (i, j) as its converse
    net = build_tcsp(2, [(2, 1, U("[3,4]"))])
    assert net.entry(1, 2) == U("[-4,-3]")
    assert net.entry(2, 1) == U("[3,4]")


def test_build_tcsp_intersects_duplicates():
    net = build_tcsp(1, [(0, 1, U("[1,10]")), (1, 0, U("[-5,-2]"))])
    assert net.entry(0, 1) == U("[2,5]")


def test_build_tcsp_rejects_bad_input():
    with pytest.raises(EmptyLabel):
        build_tcsp(1, [(0, 1, IntervalUnion.empty())])
    with pytest.raises(EmptyLabel):
        build_tcsp(1, [(0, 1, U("[1,2]")), (0, 1, U("[5,6]"))])  # empty intersection
    with pytest.raises(ValueError):
        build_tcsp(1, [(0, 0, U("[1,2]"))])  # diagonal
    with pytest.raises(IndexError):
        build_tcsp(1, [(0, 5, U("[1,2]"))])
    with pytest.raises(ValueError):
        build_tcsp(-1, [])
    with pytest.raises(TypeError, match="^label must be an IntervalUnion, got str$"):
        build_tcsp(1, [(0, 1, "[1,2]")])


def test_set_pair_rejects_the_diagonal_and_a_label_that_is_not_a_union():
    net = build_tcsp(2, [])
    with pytest.raises(ValueError, match="diagonal"):
        net.set_pair(1, 1, U("[0,1]"))
    with pytest.raises(TypeError, match="^label must be an IntervalUnion, got str$"):
        net.set_pair(1, 2, "[0,1]")
    assert net == build_tcsp(2, [])


def test_set_pair_keeps_the_mirror_invariant():
    net = build_tcsp(2, [])
    net.set_pair(1, 2, U("(0,7]"))
    assert net.entry(2, 1) == U("[-7,0)")
    # and a write off the origin declares the pair, whatever its label
    assert net.neighbours == [(), (2,), (1,)]
    net.set_pair(2, 1, IntervalUnion.universal())
    net.set_pair(0, 2, U("[1,2]"))
    assert net.neighbours == [(), (2,), (1,)]


def test_writes_off_the_origin_declare_the_constraint_structure():
    net = chain_stp()
    assert net.neighbours == [(), (2,), (1, 3), (2, 4), (3,)]
    twin = net.copy()
    assert twin.neighbours == net.neighbours
    twin.set_pair(4, 1, U("[0,70]"))
    assert twin.neighbours == [(), (2, 4), (1, 3), (2, 4), (1, 3)]
    # a copy's declarations never reach the network it was copied from
    assert net.neighbours == [(), (2,), (1, 3), (2, 4), (3,)]
    # graph_to_stp declares the pairs it writes
    back = graph_to_stp(stp_to_graph(net))
    assert back.neighbours == net.neighbours


def test_copy_and_equality():
    net = chain_stp()
    twin = net.copy()
    assert twin == net
    twin.set_pair(0, 1, U("{10}"))
    assert twin != net and net == chain_stp()


def test_domains_are_row_zero():
    net = chain_stp()
    assert [str(d) for d in net.domains()] == [
        "[10,20]",
        "(-inf,+inf)",
        "(-inf,+inf)",
        "[60,70]",
    ]


def test_is_stp():
    assert is_stp(chain_stp())
    assert is_stp(build_tcsp(1, []))
    assert not is_stp(fragmenting_tcsp())


# -- network to graph -------------------------------------------------------------------


def test_stp_to_graph_weights():
    g = stp_to_graph(creeping_circuit_stp())
    assert g.edge(0, 1).value is None and g.edge(1, 0) == weight(-30)
    assert g.edge(1, 2) == weight(-10) and g.edge(2, 1) == weight(20)
    assert g.edge(1, 3) == weight(4) and g.edge(3, 1).value is None
    assert g.edge(2, 3) == weight(50) and g.edge(3, 2) == weight(-40)


def test_stp_to_graph_strictness():
    net = build_tcsp(1, [(0, 1, U("(-41,20]"))])
    g = stp_to_graph(net)
    assert g.edge(0, 1) == weight(20)
    assert g.edge(1, 0) == weight(41, True)


def test_stp_to_graph_rejects_non_stp_and_empty_entries():
    with pytest.raises(NotAnStp):
        stp_to_graph(fragmenting_tcsp())
    net = build_tcsp(1, [(0, 1, U("[1,2]"))])
    net.set_pair(0, 1, IntervalUnion.empty())
    with pytest.raises(EmptyLabel):
        stp_to_graph(net)


# -- graph to network: the nine label shapes ----------------------------------------------


def _two_vertex(up, down) -> RootedDistanceGraph:
    g = RootedDistanceGraph(1)
    if up is not None:
        g.set_edge(0, 1, up)
    if down is not None:
        g.set_edge(1, 0, down)
    return g


@pytest.mark.parametrize(
    "up, down, expected",
    [
        (None, None, "(-inf,+inf)"),
        (weight(6), None, "(-inf,6]"),
        (weight(6, True), None, "(-inf,6)"),
        (None, weight(-2), "[2,+inf)"),
        (None, weight(-2, True), "(2,+inf)"),
        (weight(6), weight(-2), "[2,6]"),
        (weight(6, True), weight(-2), "[2,6)"),
        (weight(6), weight(-2, True), "(2,6]"),
        (weight(6, True), weight(-2, True), "(2,6)"),
    ],
)
def test_graph_to_stp_label_shapes(up, down, expected):
    net = graph_to_stp(_two_vertex(up, down))
    assert net.entry(0, 1) == U(expected)


def test_graph_to_stp_point_and_crossing():
    assert graph_to_stp(_two_vertex(weight(5), weight(-5))).entry(0, 1) == U("{5}")
    with pytest.raises(EmptyLabel):
        graph_to_stp(_two_vertex(weight(5), weight(-5, True)))  # (5,5] is empty
    with pytest.raises(EmptyLabel) as err:
        graph_to_stp(_two_vertex(weight(-5), weight(4)))
    assert "0" in str(err.value) and "1" in str(err.value)


def test_graph_round_trip_on_random_networks():
    rng = random.Random(7177)
    for _ in range(60):
        net = random_bounded_stp(rng)
        again = graph_to_stp(stp_to_graph(net))
        assert again.n_vars == net.n_vars
        for i in range(net.n_vars + 1):
            for j in range(net.n_vars + 1):
                assert again.m[i][j] == net.m[i][j], (i, j)


# -- convex closure --------------------------------------------------------------------


def test_convex_closure_of_a_network():
    closed = convex_closure(fragmenting_tcsp())
    assert closed.entry(0, 1) == U("[-2,6]")
    assert closed.entry(1, 2) == U("[-4,15]")
    assert closed.entry(0, 2) == U("[-7,20]")
    assert closed.entry(1, 0) == U("[-6,2]")
    assert is_stp(closed)


# -- path bounds -----------------------------------------------------------------------


def test_path_bounds_goldens():
    chain = path_bounds(chain_stp())
    assert chain.path_lb == weight(-140) and chain.path_ub == weight(180)
    hidden = path_bounds(hidden_circuit_stp())
    assert hidden.path_lb == weight(-90) and hidden.path_ub == weight(94)
    creeping = path_bounds(creeping_circuit_stp())
    assert creeping.path_lb == weight(-80) and creeping.path_ub == weight(74)


def test_path_bounds_of_a_disjunctive_network_range_over_the_pieces():
    # a convex refinement may keep any one piece per label, so the bounds
    # must cover the extreme piece endpoints, not just the label hulls:
    # per pair the most negative reachable endpoint is -10 ([10,15] of the
    # (1,2) label, backward), -5 ([5,6] of (0,1), backward), -1; the two
    # smallest bound any 2-edge path below
    pb = path_bounds(fragmenting_tcsp())
    assert pb.path_lb == weight(-15)
    assert pb.path_ub == weight(35)  # 20 + 15; only two can lie on one path
    assert path_range(fragmenting_tcsp()) == Fraction(50)


def test_path_bounds_ignore_infinite_directions():
    net = build_tcsp(1, [(0, 1, U("[3,+inf)"))])
    pb = path_bounds(net)
    assert pb.path_lb == weight(-3) and pb.path_ub == weight(0)


def test_every_elementary_path_lies_within_the_bounds():
    rng = random.Random(3620)
    for _ in range(20):
        net = random_bounded_stp(rng)
        pb = path_bounds(net)
        for total in elementary_path_weights(net):
            assert w_leq(pb.path_lb, total)
            assert w_leq(total, pb.path_ub)


def _reference_path_bounds(net) -> PathBounds:
    """The bounds computed from scratch, piece by piece, on Weights."""
    below, above = [], []
    for i in range(net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            ends = []
            for piece in net.m[i][j].convex_parts():
                ends += [w for w in (up_weight(piece), down_weight(piece)) if not w.is_inf()]
            if not ends:
                continue
            low, high = min(ends, key=_by_bound), max(ends, key=_by_bound)
            if w_less(low, ZERO):
                below.append(low)
            if not w_less(high, ZERO):
                above.append(high)
    below.sort(key=_by_bound)
    above.sort(key=_by_bound, reverse=True)
    lb = ub = ZERO
    for w in below[:net.n_vars]:
        lb = w_add(lb, w)
    for w in above[:net.n_vars]:
        ub = w_add(ub, w)
    return PathBounds(lb, ub)


def _rebuilt(net) -> Tcsp:
    """A fresh network with the same entries, written through ``set_pair``."""
    fresh = Tcsp(net.n_vars)
    for i in range(net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            fresh.set_pair(i, j, net.m[i][j])
    return fresh


@st.composite
def _pieces(draw):
    a = draw(st.integers(-6, 6))
    b = a + draw(st.integers(0, 6))
    lo = draw(st.sampled_from((None, a)))
    hi = draw(st.sampled_from((None, b)))
    if lo is not None and lo == hi:
        return Interval(lo, hi)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


_labels = st.one_of(
    st.just(IntervalUnion.empty()),
    st.just(IntervalUnion.universal()),
    st.lists(_pieces(), min_size=1, max_size=3).map(IntervalUnion),
)


@st.composite
def _writes(draw):
    n = draw(st.integers(1, 4))
    pair = st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda p: p[0] != p[1])
    steps = draw(st.lists(
        st.one_of(
            st.tuples(st.just("set"), pair, _labels),
            st.tuples(st.just("direct"), pair, _labels),
            st.tuples(st.just("copy")),
            st.tuples(st.just("bounds")),
        ),
        max_size=25,
    ))
    return n, steps


@settings(max_examples=300, deadline=None)
@given(_writes())
def test_maintained_path_bounds_equal_a_fresh_computation(case):
    n, steps = case
    net = Tcsp(n)
    older = []
    for step in steps:
        if step[0] == "set":
            (i, j), label = step[1], step[2]
            net.set_pair(i, j, label)
        elif step[0] == "direct":
            # past set_pair: path_bounds reads the matrix as it stands
            (i, j), label = step[1], step[2]
            net.m[i][j], net.m[j][i] = label, label.converse()
        elif step[0] == "copy":
            older.append(net)
            net = net.copy()
        else:
            assert path_bounds(net) == path_bounds(_rebuilt(net)) == _reference_path_bounds(net)
    # a copy's writes never reach the network it was copied from
    for earlier in older + [net]:
        assert path_bounds(earlier) == _reference_path_bounds(earlier)


def test_path_bounds_are_recomputed_after_pc1_rewrites_entries():
    rng = random.Random(4407)
    moved = 0
    for _ in range(30):
        net, _ = random_consistent_stp(rng)
        before = path_bounds(net)
        assert pc1(net).outcome is Outcome.CONSISTENT
        after = path_bounds(net)
        assert after == path_bounds(_rebuilt(net)) == _reference_path_bounds(net)
        moved += after != before
    # pc1 tightens entries toward the minimal network, so the bounds move
    assert moved > 0


# -- connectivity ------------------------------------------------------------------------


def test_connectivity_counts_either_direction():
    # X2..X4 cannot be reached from the origin, but they reach it: still connected
    assert connectivity(hidden_circuit_stp()) == [True] * 5
    assert disconnected_variables(hidden_circuit_stp()) == []


def test_disconnected_variable_is_reported():
    net = build_tcsp(2, [(0, 1, U("[1,2]"))])
    assert connectivity(net) == [True, True, False]
    assert disconnected_variables(net) == [2]


def _reference_connectivity(net):
    g = stp_to_graph(convex_closure(net))
    forward = reachable_set(g, 0)
    backward = reachable_set(g, 0, reverse=True)
    return [i in forward or i in backward for i in range(net.n_vars + 1)]


def _random_label(rng):
    """Universal, one-sided, two-sided or multi-piece, ends open or closed at random."""
    a = rng.randint(-9, 9)
    b = a + rng.randint(1, 6)
    shape = rng.randrange(5)
    if shape == 0:
        return IntervalUnion.universal()
    if shape == 1:
        return IntervalUnion.span(a, None, rng.random() < 0.5, False)
    if shape == 2:
        return IntervalUnion.span(None, b, False, rng.random() < 0.5)
    if shape == 3:
        return IntervalUnion.span(a, b, rng.random() < 0.5, rng.random() < 0.5)
    low = None if rng.random() < 0.3 else a - rng.randint(0, 4)
    high = None if rng.random() < 0.3 else b + 4 + rng.randint(0, 4)
    return IntervalUnion(
        (Interval(low, a + 1, low is not None, rng.random() < 0.5),
         Interval(b + 3, high, rng.random() < 0.5, high is not None))
    )


def test_connectivity_matches_the_distance_graph_of_the_convex_closure():
    rng = random.Random(4471)
    disconnected = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        net = Tcsp(n)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.35:
                    net.set_pair(i, j, _random_label(rng))
        flags = connectivity(net)
        assert flags == _reference_connectivity(net), network_to_json(net)
        disconnected += not all(flags)
    assert 0 < disconnected < 300


def test_connectivity_rejects_an_empty_entry():
    net = chain_stp()
    net.set_pair(2, 4, IntervalUnion.empty())
    with pytest.raises(EmptyLabel, match=r"\(2, 4\)"):
        connectivity(net)


def _reference_scans(net):
    """``is_stp``, ``first_empty_entry`` and ``connectivity`` as loops over
    the whole upper triangle and full rows."""
    stp = all(
        net.m[i][j].is_convex()
        for i in range(net.n_vars + 1)
        for j in range(i + 1, net.n_vars + 1)
    )
    empty = next(
        ((i, j) for i in range(net.n_vars + 1) for j in range(i + 1, net.n_vars + 1)
         if net.m[i][j].is_empty()),
        None,
    )
    if empty is not None:
        return stp, empty, None
    flags = [False] * (net.n_vars + 1)
    for finite in (lambda label: label.parts[-1]._up is not None,
                   lambda label: label.parts[0]._down is not None):
        seen, frontier = {0}, [0]
        while frontier:
            for v, label in enumerate(net.m[frontier.pop()]):
                if v not in seen and finite(label):
                    seen.add(v)
                    frontier.append(v)
        for v in seen:
            flags[v] = True
    return stp, empty, flags


def test_the_matrix_scans_agree_with_full_row_loops():
    rng = random.Random(9191)
    makers = (random_bounded_stp, random_detached_stp, random_disjunctive_tcsp,
              lambda rng: random_consistent_stp(rng)[0])
    seen = set()
    for _ in range(150):
        for make in makers:
            net = make(rng)
            if rng.random() < 0.3:
                i = rng.randrange(net.n_vars)
                net.set_pair(i, rng.randint(i + 1, net.n_vars), IntervalUnion.empty())
            stp, empty, flags = _reference_scans(net)
            assert is_stp(net) == stp
            assert first_empty_entry(net) == empty
            if empty is None:
                assert connectivity(net) == flags, network_to_json(net)
                seen.add(("connected", all(flags)))
            else:
                with pytest.raises(EmptyLabel, match=f"^entry {re.escape(str(empty))} is empty$"):
                    connectivity(net)
            seen.add((stp, empty is None))
    assert seen == {(True, True), (True, False), (False, True), (False, False),
                    ("connected", True), ("connected", False)}


# -- refinement and solutions ----------------------------------------------------------------


def test_is_refinement():
    loose = chain_stp()
    tight = loose.copy()
    tight.set_pair(0, 1, U("[12,18]"))
    assert is_refinement(tight, loose)
    assert not is_refinement(loose, tight)
    assert is_refinement(loose, loose)
    with pytest.raises(DimensionMismatch):
        is_refinement(tight, build_tcsp(1, []))


def test_check_solution():
    net = chain_stp()
    assert check_solution(net, (0, 10, 40, 20, 60))
    assert check_solution(net, (0, 15, 45, 30, 70))
    assert not check_solution(net, (0, 10, 40, 20, 100))
    # only differences matter, so a uniform shift is still a solution
    assert check_solution(net, (5, 15, 45, 25, 65))
    with pytest.raises(DimensionMismatch):
        check_solution(net, (0, 10, 40))


def test_check_solution_respects_open_ends():
    net = build_tcsp(1, [(0, 1, U("(1,2]"))])
    assert check_solution(net, (0, 2))
    assert not check_solution(net, (0, 1))
    assert check_solution(net, (0, Fraction(3, 2)))


def _contains_per_pair(net, values):
    """Reference for ``check_solution``: each difference of exact values,
    tested with ``IntervalUnion.contains``."""
    if len(values) != net.n_vars + 1:
        raise DimensionMismatch(
            f"expected {net.n_vars + 1} values, got {len(values)}"
        )
    vals = [_exact(v) for v in values]
    for i in range(net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            if not net.m[i][j].contains(vals[j] - vals[i]):
                return False
    return True


def _sixths(rng, span=12):
    """A value in sixths, so halves and thirds both occur; int when whole."""
    return rng.choice([rng.randint(-span, span), Fraction(rng.randint(-6 * span, 6 * span), 6)])


def _label_around(rng, centre):
    """Universal, or one or two pieces with ends in sixths near ``centre``,
    either end open or infinite."""
    shape = rng.randrange(4)
    if shape == 0:
        return IntervalUnion.universal()
    low = centre + Fraction(rng.randint(-4, 2), rng.choice((1, 2, 3)))
    high = low + Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))
    first = Interval(None if rng.random() < 0.2 else low, high,
                     rng.random() < 0.5 or low == high, rng.random() < 0.5 or low == high)
    if shape == 1:
        return IntervalUnion((first,))
    start = high + Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
    end = None if rng.random() < 0.3 else start + Fraction(rng.randint(0, 4), 2)
    second = Interval(start, end, rng.random() < 0.5 or start == end, end is not None)
    return IntervalUnion((first, second) if rng.random() < 0.5 else (second, first))


def test_check_solution_agrees_with_the_per_pair_reference():
    rng = random.Random(3434)
    verdicts, shapes, denominators = set(), set(), set()
    for _ in range(400):
        n = rng.randint(1, 6)
        values = [_sixths(rng) for _ in range(n + 1)]
        net = Tcsp(n)
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.6:
                    label = _label_around(rng, values[j] - values[i])
                    net.set_pair(i, j, label)
                    shapes.add("universal" if label.is_universal() else len(label.parts))
        for vals in (values, [_sixths(rng) for _ in range(n + 1)], [str(v) for v in values]):
            verdict = check_solution(net, vals)
            assert verdict == _contains_per_pair(net, vals), (network_to_json(net), vals)
            verdicts.add(verdict)
        denominators.update(Fraction(v).denominator for v in values)
        denominators.update(
            Fraction(end[0]).denominator for row in net.m for label in row
            for piece in label.parts for end in (piece._down, piece._up) if end is not None
        )
    assert verdicts == {True, False}
    assert {2, 3, 6} <= denominators
    assert shapes == {"universal", 1, 2}
    net = build_tcsp(1, [(0, 1, U("(1/2,2/3]"))])
    for check in (check_solution, _contains_per_pair):
        with pytest.raises(DimensionMismatch, match="^expected 2 values, got 3$"):
            check(net, (0, 1, 2))
        with pytest.raises(TypeError, match="exact rational required"):
            check(net, (0, 0.6))
        assert check(net, (0, Fraction(2, 3))) and not check(net, (Fraction(1, 3), Fraction(5, 6)))


# -- JSON file format ---------------------------------------------------------------------


def test_network_json_round_trip():
    for net in (chain_stp(), hidden_circuit_stp(), fragmenting_tcsp()):
        assert network_from_json(network_to_json(net)) == net


def test_network_json_is_stable_and_sorted():
    text = network_to_json(fragmenting_tcsp())
    assert text.endswith("\n")
    assert text.index('"i": 0') < text.index('"i": 1')
    # only the informative upper-triangle entries are listed
    assert '"variables": 2' in text
    assert text.count('"label"') == 3


def test_network_json_skips_universal_entries():
    net = build_tcsp(3, [(0, 1, U("[1,2]"))])
    parsed = network_from_json(network_to_json(net))
    assert parsed == net and parsed.n_vars == 3


@pytest.mark.parametrize(
    "bad",
    [
        "{",  # syntax
        "[]",  # wrong top-level type
        '{"constraints": []}',  # missing variable count
        '{"variables": true, "constraints": []}',  # bool is not an int
        '{"variables": -1, "constraints": []}',
        '{"variables": 2, "constraints": [{"i": 0, "j": 1}]}',  # missing label
        '{"variables": 2, "constraints": [{"i": 0, "j": 1, "label": "[bad"}]}',
        '{"variables": 2, "constraints": [{"i": 0, "j": 9, "label": "[1,2]"}]}',
        '{"variables": 2, "constraints": [{"i": 0.5, "j": 1, "label": "[1,2]"}]}',
        '{"variables": 2, "constraints": {}}',
    ],
)
def test_network_json_rejects_malformed_documents(bad):
    with pytest.raises(NetworkFormatError):
        network_from_json(bad)


def test_network_json_caps_the_variable_count():
    # X0 plus n variables are n + 1 vertices, capped like an edge list
    assert network_from_json(f'{{"variables": {MAX_VERTICES - 1}}}').n_vars == MAX_VERTICES - 1
    with pytest.raises(NetworkFormatError, match="exceed the limit"):
        network_from_json(f'{{"variables": {MAX_VERTICES}}}')


def test_network_json_error_messages_carry_context():
    with pytest.raises(NetworkFormatError) as err:
        network_from_json("not json")
    assert "line 1" in str(err.value)
    with pytest.raises(NetworkFormatError) as err:
        network_from_json('{"variables": 2, "constraints": [{"i": 0, "j": 1, "label": "[oops"}]}')
    assert "#1" in str(err.value) or "(0, 1)" in str(err.value)


def test_network_json_propagates_contradictions():
    doc = (
        '{"variables": 1, "constraints": ['
        '{"i": 0, "j": 1, "label": "[1,2]"}, {"i": 0, "j": 1, "label": "[5,6]"}]}'
    )
    with pytest.raises(EmptyLabel):
        network_from_json(doc)

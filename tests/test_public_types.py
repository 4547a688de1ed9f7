"""The public boundary: every exact value the API hands out is a Fraction.

Inside the interval kernel a whole endpoint is stored as an ``int`` and only
a non-whole one as a ``Fraction``.  These properties pin that every public
accessor converts back, on integer and non-integer inputs alike, so callers
never see an ``int`` (or a ``float``) where the API promises a ``Fraction``.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tcsp import (
    Interval,
    IntervalUnion,
    Outcome,
    SchedulingInstance,
    Task,
    as_rational,
    backtrack_free,
    bdac3,
    build_tcsp,
    clique_cover,
    compile_instance,
    connect_x0,
    convex_closure,
    down_weight,
    extract_solution,
    floyd_warshall,
    head_bound,
    olb,
    optimum,
    path_bounds,
    path_range,
    solve,
    stp_to_graph,
    up_weight,
    w_add,
    weight,
)

# whole values given as ints and as Fractions, and non-whole ones
rationals = st.one_of(
    st.integers(-20, 20),
    st.integers(-20, 20).map(Fraction),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
)
gaps = st.one_of(
    st.integers(0, 8), st.fractions(min_value=0, max_value=8, max_denominator=6)
)


def _public(value) -> bool:
    return value is None or type(value) is Fraction


def _public_bound(bound) -> bool:
    return bound is None or (type(bound[0]) is Fraction and type(bound[1]) is bool)


@st.composite
def unions(draw, max_parts: int = 3):
    pieces = []
    for _ in range(draw(st.integers(0, max_parts))):
        lo = draw(st.one_of(st.none(), rationals))
        hi = draw(st.one_of(st.none(), rationals))
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        closed = draw(st.booleans())
        if lo is not None and lo == hi:
            closed = True
        pieces.append(Interval(lo, hi, closed, closed))
    return IntervalUnion(pieces)


@given(unions())
def test_union_accessors_give_fractions(u):
    for piece in u.parts:
        assert _public(piece.lo) and _public(piece.hi)
    assert _public_bound(u.lower_bound()) and _public_bound(u.upper_bound())
    if len(u.parts) == 1 and u.parts[0].is_degenerate():
        assert type(u.singleton_value()) is Fraction
    for w in (up_weight(u), down_weight(u)):
        assert _public(w.value)


@given(rationals, rationals)
def test_scalar_accessors_give_fractions(a, b):
    assert type(as_rational(a)) is Fraction
    assert type(IntervalUnion.point(a).singleton_value()) is Fraction
    assert type(w_add(weight(a), weight(b)).value) is Fraction


@st.composite
def stps(draw):
    """A consistent STP around a hidden witness, ends whole or not, each
    label possibly one-sided; some labels carry a decoy second piece."""
    n = draw(st.integers(1, 4))
    witness = [Fraction(0)] + [as_rational(draw(rationals)) for _ in range(n)]
    constraints = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if not draw(st.booleans()):
                continue
            d = witness[j] - witness[i]
            below, above = draw(st.one_of(st.none(), gaps)), draw(st.one_of(st.none(), gaps))
            lo = None if below is None else d - below
            hi = None if above is None else d + above
            pieces = [Interval(lo, hi, True, True)]
            if hi is not None and draw(st.booleans()):
                pieces.append(Interval(hi + 2, hi + 3, True, False))
            constraints.append((i, j, IntervalUnion(pieces)))
    return build_tcsp(n, constraints)


@settings(max_examples=60, deadline=None)
@given(stps())
def test_network_values_give_fractions(net):
    bounds = path_bounds(net)
    assert _public(bounds.path_lb.value) and _public(bounds.path_ub.value)
    assert type(path_range(net)) is Fraction
    result = solve(net)
    assert result.consistent  # the witness satisfies every label
    assert all(type(v) is Fraction for v in result.solution)
    # the hulls keep the witness, so neither step below can fail
    convex = convex_closure(net)
    fw = floyd_warshall(stp_to_graph(convex))
    assert all(_public(w.value) for row in fw.w for w in row)
    assert bdac3(convex).outcome is Outcome.CONSISTENT and connect_x0(convex)
    backtrack_free(convex)
    assert all(type(v) is Fraction for v in extract_solution(convex))


durations = st.one_of(
    st.integers(1, 6), st.fractions(min_value=Fraction(1, 2), max_value=6, max_denominator=3)
)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 4))
    tasks = []
    for _ in range(n):
        release = draw(st.one_of(st.none(), st.integers(0, 5), st.just(Fraction(3, 2))))
        tasks.append(Task(draw(durations), release))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    disjunctions = tuple(p for p in pairs if draw(st.booleans()))
    return SchedulingInstance(tasks=tuple(tasks), disjunctions=disjunctions)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_scheduling_values_give_fractions(inst):
    net = compile_instance(inst)
    assert bdac3(net).outcome is Outcome.CONSISTENT
    lengths = [task.duration for task in inst.tasks]
    assert type(olb(net, lengths)) is Fraction
    assert type(head_bound(net, lengths, clique_cover(inst))) is Fraction
    assert type(head_bound(net, lengths, ())) is Fraction
    schedule = optimum(inst)
    assert all(type(s) is Fraction for s in schedule.start_times)
    assert type(schedule.makespan) is Fraction and type(schedule.latency) is Fraction


def test_readme_scheduling_example_prints_fractions():
    inst = SchedulingInstance(
        tasks=(Task(Fraction(3)), Task(Fraction(2), release=Fraction(1)), Task(Fraction(4))),
        precedences=((1, 2),),
        disjunctions=((2, 3),),
    )
    out = io.StringIO()
    with redirect_stdout(out):
        sched = optimum(inst)
        print(sched.makespan, sched.start_times)
    assert out.getvalue() == "6 (Fraction(0, 1), Fraction(4, 1), Fraction(0, 1))\n"

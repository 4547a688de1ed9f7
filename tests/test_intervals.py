"""Interval-union algebra: golden examples plus randomized set-level properties."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsp import (
    Interval,
    IntervalUnion,
    NotSingleton,
    UnionParseError,
    as_rational,
    format_union,
    parse_union,
)
from tcsp.intervals import narrow

U = parse_union


# -- scalars ----------------------------------------------------------------------


def test_as_rational_accepts_exact_forms():
    assert as_rational(3) == Fraction(3)
    assert as_rational("7/2") == Fraction(7, 2)
    assert as_rational(Fraction(-1, 3)) == Fraction(-1, 3)
    assert as_rational("2.5") == Fraction(5, 2)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False])
def test_as_rational_rejects_floats_and_bools(bad):
    with pytest.raises(TypeError):
        as_rational(bad)


# -- single intervals --------------------------------------------------------------


def test_empty_intervals_are_unconstructible():
    with pytest.raises(ValueError):
        Interval(5, 3)
    with pytest.raises(ValueError):
        Interval(2, 2, True, False)
    with pytest.raises(ValueError):
        Interval(2, 2, False, False)
    # a closed point is fine
    assert Interval(2, 2).is_degenerate()


def test_infinite_ends_are_always_open():
    p = Interval(None, 4, True, True)
    assert not p.lo_closed and p.hi_closed
    assert p.contains(-1000000) and p.contains(4) and not p.contains(5)


def test_interval_contains_respects_openness():
    p = Interval(1, 3, False, True)
    assert not p.contains(1)
    assert p.contains("3/2") and p.contains(3)


# -- normalization ----------------------------------------------------------------


def test_overlapping_pieces_fuse():
    u = IntervalUnion((Interval(1, 5), Interval(3, 8), Interval(10, 11)))
    assert str(u) == "[1,8] u [10,11]"


def test_touching_pieces_fuse_only_when_an_end_is_closed():
    closed_touch = IntervalUnion((Interval(1, 2, True, True), Interval(2, 3, False, True)))
    assert str(closed_touch) == "[1,3]"
    open_touch = IntervalUnion((Interval(1, 2, True, False), Interval(2, 3, False, True)))
    assert str(open_touch) == "[1,2) u (2,3]"


def test_construction_sorts_pieces():
    u = IntervalUnion((Interval(10, 12), Interval(-3, -1)))
    assert str(u) == "[-3,-1] u [10,12]"


# -- parsing and formatting ---------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "{3}",
        "[10,20]",
        "(-inf,4]",
        "[7,+inf)",
        "(-inf,+inf)",
        "[1/2,3/4)",
        "[-6,-4] u (1,3] u [8,+inf)",
        "[-5,-5/2] u {0} u (1,2)",
    ],
)
def test_parse_format_round_trip(text):
    assert format_union(parse_union(text)) == text


def test_parser_tolerates_variants():
    assert U("empty") == IntervalUnion.empty()
    assert U("[1,2] U [4,5]") == U("[1,2] u [4,5]")
    assert U("[0.5,2]") == U("[1/2,2]")
    assert U(" [ 1 , 2 ] ") == U("[1,2]")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "[5,3]",
        "(2,2]",
        "{-inf}",
        "{+inf}",
        "[-inf,3]",  # infinite end must be open
        "[3,+inf]",
        "[+inf,3)",  # +inf cannot be a lower endpoint
        "(1,-inf]",
        "[1;2]",
        "[1,2,3]",
        "[1,2] u",
        "1,2",
        "[a,b]",
        "[1/0,2]",
        "[0," + "1" * 5000 + "]",  # past int()'s digit limit
    ],
)
def test_parser_rejects_malformed_text(bad):
    with pytest.raises(UnionParseError):
        parse_union(bad)


# -- golden algebra (the worked three-variable network) ------------------------------

C01 = U("[-2,-1] u [5,6]")
C12 = U("[-4,-3] u [10,15]")
C02 = U("[-7,-1] u [1,20]")


def test_converse_golden():
    assert C01.converse() == U("[-6,-5] u [1,2]")
    assert U("(-inf,4]").converse() == U("[-4,+inf)")
    assert U("(1,3]").converse() == U("[-3,-1)")


def test_compose_golden():
    assert C01.compose(C12) == U("[-6,-4] u [1,3] u [8,14] u [15,21]")


def test_intersect_golden():
    assert C02.intersect(C01.compose(C12)) == U("[-6,-4] u [1,3] u [8,14] u [15,20]")


def test_convex_closure_golden():
    assert C01.convex_closure() == U("[-2,6]")
    assert C12.convex_closure() == U("[-4,15]")


def test_weak_compose_golden():
    assert C01.weak_compose(C12) == U("[-6,21]")


def test_convex_parts_golden():
    quartet = U("[-6,-4] u [1,3] u [8,14] u [15,20]")
    assert [str(p) for p in quartet.convex_parts()] == ["[-6,-4]", "[1,3]", "[8,14]", "[15,20]"]


# -- more pointed algebra cases ------------------------------------------------------


def test_compose_openness_and_infinities():
    assert U("[1,2]").compose(U("(3,4)")) == U("(4,6)")
    assert U("[1,2)").compose(U("[3,4]")) == U("[4,6)")
    assert U("{3}").compose(U("{4}")) == U("{7}")
    assert U("[0,+inf)").compose(U("(-inf,0]")) == IntervalUnion.universal()
    assert U("[5,+inf)").compose(U("[7,+inf)")) == U("[12,+inf)")
    assert U("{}").compose(U("[1,2]")) == IntervalUnion.empty()
    assert U("[1,2]").compose(U("{}")) == IntervalUnion.empty()
    # empty, universal and {0} with several pieces: the general sum's cases
    assert U("{}").compose(U("[1,2] u (4,5)")) == IntervalUnion.empty()
    assert U("(-inf,+inf)").compose(U("[1,2] u (4,5)")) == IntervalUnion.universal()
    assert U("[1,2] u (4,5)").compose(U("(-inf,+inf)")) == IntervalUnion.universal()
    assert U("{0}").compose(U("[1,2] u (4,5)")) == U("[1,2] u (4,5)")
    assert U("[1,2] u (4,5)").compose(U("{0}")) == U("[1,2] u (4,5)")


def test_intersect_touching_ends():
    assert U("[1,2)") & U("[2,3]") == IntervalUnion.empty()
    assert U("[1,2]") & U("[2,3]") == U("{2}")
    assert U("[1,5] u [8,9]") & U("(2,8]") == U("(2,5] u {8}")


def test_bounds_and_singletons():
    assert U("[1,2) u [5,8]").lower_bound() == (Fraction(1), True)
    assert U("[1,2) u [5,8)").upper_bound() == (Fraction(8), False)
    assert U("(-inf,3]").lower_bound() is None
    assert U("{}").upper_bound() is None
    assert U("{5}").singleton_value() == 5
    with pytest.raises(NotSingleton):
        U("[1,2]").singleton_value()
    with pytest.raises(NotSingleton):
        U("{}").singleton_value()


def test_issubset():
    assert U("[1,2]").issubset(U("[0,3]"))
    assert not U("[1,4]").issubset(U("[0,3]"))
    assert U("{}").issubset(U("{}"))
    assert U("(1,2)").issubset(U("[1,2]"))
    assert not U("[1,2]").issubset(U("(1,2]"))


def test_union_is_immutable_and_hashable():
    u = U("[1,2]")
    with pytest.raises(AttributeError):
        u.parts = ()
    assert len({U("[1,2]"), U("[1,2]"), U("[3,4]")}) == 2


# -- randomized properties -----------------------------------------------------------

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=8)


@st.composite
def unions(draw, max_parts: int = 3, finite: bool = False):
    pieces = []
    for _ in range(draw(st.integers(0, max_parts))):
        lo = draw(rationals) if finite else draw(st.one_of(st.none(), rationals))
        hi = draw(rationals) if finite else draw(st.one_of(st.none(), rationals))
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        lo_closed = draw(st.booleans())
        hi_closed = draw(st.booleans())
        if lo is not None and lo == hi and not (lo_closed and hi_closed):
            hi_closed = lo_closed = True
        pieces.append(Interval(lo, hi, lo_closed, hi_closed))
    return IntervalUnion(pieces)


@given(unions())
def test_normalization_is_canonical(u):
    # rebuilding from the parts changes nothing
    assert IntervalUnion(u.parts) == u
    # parts are sorted, disjoint, and pairwise non-mergeable
    for a, b in zip(u.parts, u.parts[1:]):
        assert a.hi is not None and b.lo is not None
        assert a.hi < b.lo or (a.hi == b.lo and not a.hi_closed and not b.lo_closed)


@given(unions())
def test_text_round_trip(u):
    assert parse_union(format_union(u)) == u


@given(unions())
def test_converse_is_an_involution(u):
    assert u.converse().converse() == u


@given(unions(), unions())
def test_intersection_is_commutative(a, b):
    assert (a & b) == (b & a)


@given(unions())
def test_intersection_identities(a):
    assert (a & IntervalUnion.universal()) == a
    assert (a & IntervalUnion.empty()).is_empty()
    assert (a & a) == a


@given(unions(), unions())
def test_issubset_matches_intersection(a, b):
    assert a.issubset(b) == ((a & b) == a)
    assert (a & b).issubset(a)


@given(unions(max_parts=2), unions(max_parts=2))
def test_compose_is_commutative(a, b):
    assert a.compose(b) == b.compose(a)


@settings(max_examples=40)
@given(unions(max_parts=2), unions(max_parts=2), unions(max_parts=2))
def test_compose_is_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@given(unions(), unions())
def test_weak_compose_is_compose_of_closures(a, b):
    assert a.weak_compose(b) == a.convex_closure().compose(b.convex_closure())
    if not a.is_empty() and not b.is_empty():
        assert a.compose(b).issubset(a.weak_compose(b))


@given(unions())
def test_convex_parts_partition(u):
    parts = u.convex_parts()
    assert len(parts) == len(u.parts)
    for p in parts:
        assert p.is_convex() and p.issubset(u)


def _deciding_points(*unions):
    """Every endpoint, the midpoints between neighbours and one point past each end.

    Membership in a union of pieces is constant between consecutive
    endpoints, so two unions built from these endpoints are equal exactly
    when they agree on these points.
    """
    ends = sorted({e for u in unions for p in u.parts for e in (p.lo, p.hi) if e is not None})
    if not ends:
        return [Fraction(0)]
    mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    return [ends[0] - 1, *ends, *mids, ends[-1] + 1]


@given(unions(), unions())
def test_intersection_membership_matches_both_operands(a, b):
    both = a & b
    # the result is in normal form: rebuilding it from its parts changes nothing
    assert IntervalUnion(list(both.parts)).parts == both.parts
    for x in _deciding_points(a, b):
        assert both.contains(x) == (a.contains(x) and b.contains(x)), (str(a), str(b), x)


# -- exhaustive membership oracle for compose ----------------------------------------
#
# With integer endpoints in [-20, 20], any nonempty slice u & (z - v) has
# quarter-integer endpoints once z ranges over half-integers, so checking x on
# the quarter grid decides membership exactly: z is a sum iff some grid x lies
# in u with z - x in v.


def _random_finite_union(rng: random.Random) -> IntervalUnion:
    pieces = []
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(-20, 20)
        b = rng.randint(-20, 20)
        if a > b:
            a, b = b, a
        lo_closed = rng.random() < 0.5
        hi_closed = rng.random() < 0.5
        if a == b:
            lo_closed = hi_closed = True
        pieces.append(Interval(a, b, lo_closed, hi_closed))
    return IntervalUnion(pieces)


def test_compose_membership_matches_pointwise_sums():
    rng = random.Random(20130)
    quarter_grid = [Fraction(k, 4) for k in range(-80, 81)]
    half_grid = [Fraction(k, 2) for k in range(-84, 85)]
    for _ in range(25):
        u = _random_finite_union(rng)
        v = _random_finite_union(rng)
        w = u.compose(v)
        in_u = {x for x in quarter_grid if u.contains(x)}
        # z - x for half-integer z and quarter-integer x stays on the quarter grid
        in_v = {Fraction(k, 4) for k in range(-248, 249) if v.contains(Fraction(k, 4))}
        for z in half_grid:
            expected = any(z - x in in_v for x in in_u)
            assert w.contains(z) == expected, (str(u), str(v), str(z))


# -- mixed endpoint forms: whole ends are ints inside the kernel ---------------------
#
# A whole end is stored as an int and any other as a Fraction.  The properties
# below mix both forms (halves, thirds, and whole values passed as Fractions
# such as Fraction(4, 2)) and check each operation against a reference that
# does all its arithmetic on the public Fraction ends.

mixed_ends = st.one_of(
    st.integers(-12, 12),
    st.integers(-12, 12).map(lambda k: Fraction(2 * k, 2)),
    st.integers(-24, 24).map(lambda k: Fraction(k, 2)),
    st.integers(-36, 36).map(lambda k: Fraction(k, 3)),
)


@st.composite
def mixed_unions(draw, max_parts: int = 3):
    pieces = []
    for _ in range(draw(st.integers(0, max_parts))):
        lo = draw(st.one_of(st.none(), mixed_ends))
        hi = draw(st.one_of(st.none(), mixed_ends))
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
        if lo is not None and lo == hi:
            lo_closed = hi_closed = True
        pieces.append(Interval(lo, hi, lo_closed, hi_closed))
    return IntervalUnion(pieces)


def _assert_exact_form(u: IntervalUnion):
    for p in u.parts:
        for end in (p._down, p._up):
            assert end is None or type(end[0]) is int or (
                type(end[0]) is Fraction and end[0].denominator != 1
            ), (str(u), end)


def _in_piece(x, lo, hi, lo_closed, hi_closed) -> bool:
    return (lo is None or x > lo or (x == lo and lo_closed)) and (
        hi is None or x < hi or (x == hi and hi_closed)
    )


def _reference_sum(u: IntervalUnion, v: IntervalUnion):
    """The pieces of u + v, from the public ends with Fraction arithmetic."""
    return [
        (
            None if p.lo is None or q.lo is None else p.lo + q.lo,
            None if p.hi is None or q.hi is None else p.hi + q.hi,
            p.lo_closed and q.lo_closed,
            p.hi_closed and q.hi_closed,
        )
        for p in u.parts
        for q in v.parts
    ]


def _reference_hull(u: IntervalUnion) -> IntervalUnion:
    if not u.parts:
        return u
    first, last = u.parts[0], u.parts[-1]
    return IntervalUnion((Interval(first.lo, last.hi, first.lo_closed, last.hi_closed),))


def _check_sum(result: IntervalUnion, u: IntervalUnion, v: IntervalUnion):
    _assert_exact_form(result)
    pieces = _reference_sum(u, v)
    ends = {e for piece in pieces for e in piece[:2] if e is not None}
    points = _deciding_points(result, IntervalUnion(Interval(e, e) for e in ends))
    for x in points:
        want = any(_in_piece(x, *piece) for piece in pieces)
        assert result.contains(x) == want, (str(u), str(v), x)


@given(mixed_unions(), mixed_unions())
def test_mixed_compose_matches_a_fraction_reference(u, v):
    _check_sum(u.compose(v), u, v)


@given(mixed_unions(), mixed_unions())
def test_mixed_weak_compose_matches_a_fraction_reference(u, v):
    _check_sum(u.weak_compose(v), _reference_hull(u), _reference_hull(v))


@given(mixed_unions(), mixed_unions())
def test_mixed_intersection_matches_membership(a, b):
    both = a & b
    _assert_exact_form(both)
    for x in _deciding_points(a, b):
        assert both.contains(x) == (a.contains(x) and b.contains(x)), (str(a), str(b), x)


@given(mixed_unions())
def test_mixed_converse_matches_membership(u):
    flipped = u.converse()
    _assert_exact_form(flipped)
    for x in _deciding_points(u, flipped):
        assert flipped.contains(x) == u.contains(-x), (str(u), x)


@st.composite
def loose_pieces(draw):
    """Pieces in mixed form and in any order, their ends drawn mostly from a
    few shared values, so that tied starts (closed and open at one value),
    touching ends and -inf starts are common."""
    shared = st.sampled_from(draw(st.lists(mixed_ends, min_size=1, max_size=2)))
    end = st.one_of(st.none(), shared, shared, shared, mixed_ends)
    pieces = []
    for _ in range(draw(st.integers(0, 5))):
        lo, hi = draw(end), draw(end)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
        if lo is not None and lo == hi:
            lo_closed = hi_closed = True
        pieces.append(Interval(lo, hi, lo_closed, hi_closed))
    return draw(st.permutations(pieces))


@settings(max_examples=300)
@given(loose_pieces())
def test_normalization_keeps_membership(pieces):
    u = IntervalUnion(pieces)
    _assert_exact_form(u)
    for x in _deciding_points(u, *(IntervalUnion((p,)) for p in pieces)):
        want = any(_in_piece(x, p.lo, p.hi, p.lo_closed, p.hi_closed) for p in pieces)
        assert u.contains(x) == want, ([str(p) for p in pieces], x)


def test_whole_fraction_ends_equal_int_ends():
    a, b = Interval(Fraction(3), 5), Interval(3, 5)
    assert a == b and hash(a) == hash(b)
    assert IntervalUnion((a,)) == IntervalUnion((b,))
    assert hash(IntervalUnion((a,))) == hash(IntervalUnion((b,)))
    assert type(Interval(Fraction(4, 2), 5)._down[0]) is int
    assert type(U("[4/2,2.0]").parts[0]._up[0]) is int


def test_a_whole_sum_of_non_whole_ends_is_stored_as_an_int():
    half = U("{1/2}")
    total = half.compose(half)
    assert type(total.parts[0]._down[0]) is int and total == U("{1}")
    # and stays on the native path for the next step
    nxt = total.compose(U("[2,3]"))
    assert type(nxt.parts[0]._down[0]) is int and type(nxt.parts[0]._up[0]) is int
    assert str(U("[1/3,2/3]").compose(U("[2/3,4/3)"))) == "[1,2)"


def test_convex_closure_of_a_convex_union_is_itself():
    for text in ("{}", "[1,2]", "(-inf,+inf)", "(1/2,+inf)"):
        u = U(text)
        assert u.convex_closure() is u
    assert str(U("[1,2] u (3,7/2)").convex_closure()) == "[1,7/2)"
    assert IntervalUnion.empty() is IntervalUnion.empty()
    assert IntervalUnion.universal() is IntervalUnion.universal()


# -- the fused revise kernel --------------------------------------------------------


@st.composite
def narrow_operands(draw):
    """(old, x, y, weak) drawn from unions(); half the time old is instead one
    piece that may share an end with the sum's hull, so the tie rules decide."""
    finite = draw(st.booleans())  # finite legs make ties with old likelier
    x, y = draw(unions(max_parts=2, finite=finite)), draw(unions(max_parts=2, finite=finite))
    weak = draw(st.booleans())
    old = draw(unions())
    hull = (x.weak_compose(y) if weak else x.compose(y)).convex_closure()
    if hull.parts and draw(st.booleans()):
        s = hull.parts[0]
        lo = s.lo if draw(st.booleans()) else draw(st.one_of(st.none(), rationals))
        hi = s.hi if draw(st.booleans()) else draw(st.one_of(st.none(), rationals))
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
        if lo is not None and lo == hi:
            lo_closed = hi_closed = True
        old = IntervalUnion((Interval(lo, hi, lo_closed, hi_closed),))
    return old, x, y, weak


@settings(max_examples=250)
@given(narrow_operands())
def test_narrow_is_the_intersection_with_the_composition(case):
    old, x, y, weak = case
    want = old & (x.weak_compose(y) if weak else x.compose(y))
    got = narrow(old, x, y, weak)
    assert got == want and str(got) == str(want), (str(old), str(x), str(y), weak)
    _assert_exact_form(got)
    # revise steps test "changed" by identity, and a second step through
    # the same legs changes nothing
    assert (got is old) == (got == old)
    assert narrow(got, x, y, weak) is got


def test_narrow_ties_go_to_old_and_a_closed_end_is_the_wider():
    old = U("[0,5]")
    assert narrow(old, U("[0,2]"), U("[0,3]")) is old
    assert narrow(old, U("(-inf,+inf)"), U("[1,2]")) is old
    assert str(narrow(old, U("(0,2]"), U("[0,3]"))) == "(0,5]"
    assert str(narrow(old, U("[0,2]"), U("[0,3)"))) == "[0,5)"
    half_open = U("(0,5)")
    assert narrow(half_open, U("[0,2]"), U("[0,3]")) is half_open
    assert narrow(half_open, U("(0,2)"), U("(0,3]")) is half_open
    assert str(narrow(U("(-inf,+inf)"), U("[1,2]"), U("(1/2,1]"))) == "(3/2,3]"
    # ends that cross, or meet at an open end, leave nothing
    assert narrow(old, U("[4,5]"), U("[2,3]")) is IntervalUnion.empty()
    assert narrow(old, U("(2,3]"), U("[3,4]")) is IntervalUnion.empty()
    # weak: the hulls of multi-piece legs
    assert str(narrow(U("[0,20]"), U("[1,2] u [5,6]"), U("[0,1]"), weak=True)) == "[1,7]"
    assert str(narrow(U("[0,20]"), U("[1,2] u [5,6]"), U("[0,1]"))) == "[1,3] u [5,7]"

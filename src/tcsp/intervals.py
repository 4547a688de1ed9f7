"""Exact interval-union algebra over the rationals.

The values a temporal difference ``x_j - x_i`` may take are described by a
finite union of convex intervals whose endpoints are exact rationals, each
end independently open or closed, and either end possibly infinite.
:class:`IntervalUnion` keeps that union in a canonical normal form -- parts
sorted, pairwise disjoint and non-mergeable -- so structural equality *is*
set equality.

Inside the kernel an end is stored in one exact form (see :func:`_exact`):
a Python ``int`` when the value is whole and a :class:`fractions.Fraction`
only when it is not, so the common integer traffic runs on native integer
arithmetic.  Every public value -- ``Interval.lo``/``hi``, bounds, singleton
values -- is still a ``Fraction``, converted at that boundary.

Floats are rejected everywhere on purpose: the whole package computes exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Tuple, Union

from .errors import NotSingleton, UnionParseError

RatLike = Union[Fraction, int, str]


def as_rational(value: RatLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction; floats are refused."""
    if type(value) is Fraction:
        return value
    if type(value) is int:  # whole kernel values cross to the public side here
        return Fraction(value)
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {value!r}")
    return Fraction(value)


def _exact(value: RatLike) -> Union[int, Fraction]:
    """The kernel's form of an exact value: an int when it is whole, else a
    Fraction in lowest terms (so ``Fraction(4, 2)`` becomes ``4``).  Equal
    values therefore have equal types.  Floats are refused."""
    if type(value) is not int:
        value = as_rational(value)
        if value.denominator == 1:
            return value.numerator
    return value


class Interval:
    """One convex piece: endpoints in Q, each end open/closed, either end infinite.

    ``lo``/``hi`` of ``None`` mean unbounded on that side (always open).
    Construction refuses empty intervals such as ``[5,3]`` or ``(a,a]``.
    The ends are kept in ``_lo``/``_hi`` in the kernel's exact form
    (:func:`_exact`); ``lo`` and ``hi`` give them as Fractions.
    """

    __slots__ = ("_lo", "_hi", "lo_closed", "hi_closed")

    def __init__(
        self,
        lo: Optional[RatLike],
        hi: Optional[RatLike],
        lo_closed: bool = True,
        hi_closed: bool = True,
    ):
        self._lo = None if lo is None else _exact(lo)
        self._hi = None if hi is None else _exact(hi)
        self.lo_closed = False if self._lo is None else bool(lo_closed)
        self.hi_closed = False if self._hi is None else bool(hi_closed)
        if self._lo is not None and self._hi is not None:
            c = _cmp(self._lo, self._hi)
            if c > 0 or (c == 0 and not (self.lo_closed and self.hi_closed)):
                raise ValueError(f"empty interval: {self._text()}")

    @property
    def lo(self) -> Optional[Fraction]:
        return None if self._lo is None else as_rational(self._lo)

    @property
    def hi(self) -> Optional[Fraction]:
        return None if self._hi is None else as_rational(self._hi)

    # -- ordering key: open/closed matters at equal values --------------------

    def _lo_key(self):
        # -inf sorts first; at equal finite values a closed start comes first
        if self._lo is None:
            return (0, 0, 0)
        return (1, self._lo, 0 if self.lo_closed else 1)

    def contains(self, x: RatLike) -> bool:
        x = _exact(x)
        if self._lo is not None:
            c = _cmp(x, self._lo)
            if c < 0 or (c == 0 and not self.lo_closed):
                return False
        if self._hi is not None:
            c = _cmp(x, self._hi)
            if c > 0 or (c == 0 and not self.hi_closed):
                return False
        return True

    def is_degenerate(self) -> bool:
        """True for a single point ``{v}``."""
        return self._lo is not None and _same(self._lo, self._hi)

    def _text(self) -> str:
        lo = "-inf" if self._lo is None else str(self._lo)
        hi = "+inf" if self._hi is None else str(self._hi)
        return f"{'[' if self.lo_closed else '('}{lo},{hi}{']' if self.hi_closed else ')'}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (
            self.lo_closed == other.lo_closed
            and self.hi_closed == other.hi_closed
            and _same(self._lo, other._lo)
            and _same(self._hi, other._hi)
        )

    def __hash__(self):
        return hash((self._lo, self._hi, self.lo_closed, self.hi_closed))

    def __repr__(self):
        return f"<Interval {self._text()}>"


def _piece(lo, hi, lo_closed: bool, hi_closed: bool) -> Interval:
    """An Interval from endpoints already in the kernel's exact form and
    forming a nonempty piece (an infinite end must come with closed False);
    skips the checks of the public constructor."""
    piece = _new(Interval)
    piece._lo = lo
    piece._hi = hi
    piece.lo_closed = lo_closed
    piece.hi_closed = hi_closed
    return piece


# The three endpoint helpers take exact values (int or Fraction; both have
# numerator and denominator).  Two ints use native operators; otherwise they
# work on numerators and denominators, because Fraction's own operators
# spend most of their time dispatching on the operand type.


def _cmp(x, y) -> int:
    """The sign of ``x - y``."""
    if type(x) is int is type(y):
        return (x > y) - (x < y)
    d = x.numerator * y.denominator - y.numerator * x.denominator
    return (d > 0) - (d < 0)


def _same(x, y) -> bool:
    """Are two endpoints (None for infinite) equal?  Fractions are kept in
    lowest terms, so equal values have equal numerators and denominators."""
    if type(x) is int is type(y):
        return x == y
    if x is None or y is None:
        return x is y
    return x.numerator == y.numerator and x.denominator == y.denominator


def _plus(x, y):
    """``x + y`` in the kernel's exact form (a whole sum is an int)."""
    if type(x) is int is type(y):
        return x + y
    if x.denominator == 1 == y.denominator:  # whole Fractions: Weight values
        return x.numerator + y.numerator
    return _exact(x + y)


def _sum_piece(p: Interval, q: Interval) -> Interval:
    """The set sum of two pieces: ends add, closed only when both ends are."""
    if p._lo is None or q._lo is None:
        lo, lo_closed = None, False
    else:
        lo, lo_closed = _plus(p._lo, q._lo), p.lo_closed and q.lo_closed
    if p._hi is None or q._hi is None:
        hi, hi_closed = None, False
    else:
        hi, hi_closed = _plus(p._hi, q._hi), p.hi_closed and q.hi_closed
    return _piece(lo, hi, lo_closed, hi_closed)


def _union(parts: Tuple[Interval, ...]) -> "IntervalUnion":
    """An IntervalUnion whose ``parts`` are already in normal form."""
    union = _new(IntervalUnion)
    _set(union, "parts", parts)
    return union


_new = object.__new__
_set = object.__setattr__


def _mergeable(a: Interval, b: Interval) -> bool:
    """Can ``b`` (starting at or after ``a``) be fused with ``a`` into one piece?"""
    if a._hi is None or b._lo is None:
        return True
    c = _cmp(b._lo, a._hi)
    return c < 0 or (c == 0 and (b.lo_closed or a.hi_closed))


def _fuse(a: Interval, b: Interval) -> Interval:
    if a._hi is None or b._hi is None:
        hi, hi_closed = None, False
    else:
        c = _cmp(a._hi, b._hi)
        if c > 0:
            hi, hi_closed = a._hi, a.hi_closed
        elif c < 0:
            hi, hi_closed = b._hi, b.hi_closed
        else:
            hi, hi_closed = a._hi, a.hi_closed or b.hi_closed
    return _piece(a._lo, hi, a.lo_closed, hi_closed)


def _apart(a: Interval, b: Interval) -> bool:
    """Does ``a`` end before ``b`` starts, with a point of neither between?"""
    if a._hi is None or b._lo is None:
        return False
    c = _cmp(a._hi, b._lo)
    return c < 0 or (c == 0 and not (a.hi_closed or b.lo_closed))


def _normalize(parts: Iterable[Interval]) -> Tuple[Interval, ...]:
    items = list(parts)
    if len(items) < 2 or all(map(_apart, items, items[1:])):
        return tuple(items)  # already sorted and apart
    items.sort(key=Interval._lo_key)
    out: list[Interval] = []
    for piece in items:
        if out and _mergeable(out[-1], piece):
            out[-1] = _fuse(out[-1], piece)
        else:
            out.append(piece)
    return tuple(out)


class IntervalUnion:
    """A canonical finite union of :class:`Interval` pieces.

    Instances are immutable value objects: equality and hashing go by the
    normalized parts, so two unions describing the same set always compare
    equal no matter how they were built.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Interval] = ()):
        object.__setattr__(self, "parts", _normalize(parts))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("IntervalUnion is immutable")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def empty() -> "IntervalUnion":
        return _EMPTY  # unions are immutable, so one instance serves

    @staticmethod
    def universal() -> "IntervalUnion":
        return _UNIVERSAL

    @staticmethod
    def point(value: RatLike) -> "IntervalUnion":
        v = _exact(value)
        return _union((_piece(v, v, True, True),))

    @staticmethod
    def span(
        lo: Optional[RatLike],
        hi: Optional[RatLike],
        lo_closed: bool = True,
        hi_closed: bool = True,
    ) -> "IntervalUnion":
        return IntervalUnion((Interval(lo, hi, lo_closed, hi_closed),))

    # -- predicates ------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.parts

    def is_universal(self) -> bool:
        return len(self.parts) == 1 and self.parts[0]._lo is None and self.parts[0]._hi is None

    def is_convex(self) -> bool:
        """Empty and single-piece unions count as convex."""
        return len(self.parts) <= 1

    def contains(self, x: RatLike) -> bool:
        x = _exact(x)
        return any(p.contains(x) for p in self.parts)

    def issubset(self, other: "IntervalUnion") -> bool:
        return (self & other) == self

    # -- bounds ------------------------------------------------------------------

    def lower_bound(self) -> Optional[Tuple[Fraction, bool]]:
        """(value, is_closed) of the least endpoint, or None if empty/unbounded below."""
        if not self.parts or self.parts[0]._lo is None:
            return None
        first = self.parts[0]
        return (as_rational(first._lo), first.lo_closed)

    def upper_bound(self) -> Optional[Tuple[Fraction, bool]]:
        """(value, is_closed) of the greatest endpoint, or None if empty/unbounded above."""
        if not self.parts or self.parts[-1]._hi is None:
            return None
        last = self.parts[-1]
        return (as_rational(last._hi), last.hi_closed)

    def singleton_value(self) -> Fraction:
        """The v of a one-point union {v}; raises NotSingleton otherwise."""
        if len(self.parts) == 1 and self.parts[0].is_degenerate():
            return as_rational(self.parts[0]._lo)
        raise NotSingleton(f"not a single point: {self}")

    # -- algebra -----------------------------------------------------------------

    def converse(self) -> "IntervalUnion":
        """The set of -a for a in this union."""
        # negation reverses the order of the pieces and keeps them apart
        return _union(tuple(
            _piece(
                None if p._hi is None else -p._hi,
                None if p._lo is None else -p._lo,
                p.hi_closed,
                p.lo_closed,
            )
            for p in reversed(self.parts)
        ))

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        """Exact set intersection (two-pointer sweep over sorted parts)."""
        if self is other or other.is_universal():
            return self
        if self.is_universal():
            return other
        a, b = self.parts, other.parts
        if len(a) == 1 and len(b) == 1:
            return _meet(self, other)
        out: list[Interval] = []
        i = j = 0
        while i < len(a) and j < len(b):
            p, q = a[i], b[j]
            order = _end_order(p, q)
            # from the later of the two starts to the earlier of the two ends
            piece = _overlap(q if _starts_after(q, p) else p, p if order <= 0 else q)
            if piece is not None:
                out.append(piece)
            if order <= 0:
                i += 1
            if order >= 0:
                j += 1
        # pieces cut from two normal forms stay sorted and apart
        return _union(tuple(out))

    __and__ = intersect

    def compose(self, other: "IntervalUnion") -> "IntervalUnion":
        """Sums a+b over all a in self, b in other (set addition).

        Piece endpoints add, a sum endpoint is closed only when both endpoints
        were closed, and an infinite endpoint absorbs.  Empty absorbs too.
        """
        a, b = self.parts, other.parts
        if not a or not b:
            return _EMPTY
        if len(a) == 1 and len(b) == 1:
            # convex + convex, unbounded ends included: one piece, in normal form
            return _union((_sum_piece(a[0], b[0]),))
        if self.is_universal() or other.is_universal():
            return _UNIVERSAL  # sums sweep the whole line
        if len(a) == 1 and a[0]._lo == 0 == a[0]._hi:
            return other  # {0} is the identity for set addition
        if len(b) == 1 and b[0]._lo == 0 == b[0]._hi:
            return self
        return IntervalUnion([_sum_piece(p, q) for p in a for q in b])

    def convex_closure(self) -> "IntervalUnion":
        """Smallest convex superset: first lower endpoint to last upper endpoint."""
        if len(self.parts) <= 1:
            return self
        first, last = self.parts[0], self.parts[-1]
        return _union((_piece(first._lo, last._hi, first.lo_closed, last.hi_closed),))

    def weak_compose(self, other: "IntervalUnion") -> "IntervalUnion":
        """Compose the convex closures; always yields a convex result."""
        return self.convex_closure().compose(other.convex_closure())

    def convex_parts(self) -> list["IntervalUnion"]:
        """The maximal convex pieces, each as its own (convex) union."""
        return [IntervalUnion((p,)) for p in self.parts]

    # -- plumbing ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __str__(self) -> str:
        return format_union(self)

    def __repr__(self) -> str:
        return f"<IntervalUnion {format_union(self)}>"


def _starts_after(q: Interval, p: Interval) -> bool:
    """Does q's start sort strictly after p's?  -inf sorts first, and at one
    value a closed start comes before an open one."""
    if q._lo is None:
        return False
    if p._lo is None:
        return True
    c = _cmp(q._lo, p._lo)
    return c > 0 or (c == 0 and p.lo_closed and not q.lo_closed)


def _end_order(p: Interval, q: Interval) -> int:
    """-1, 0 or 1 as p's end sorts before, level with or after q's.  +inf
    sorts last, and at one value an open end comes before a closed one."""
    if p._hi is None:
        return 0 if q._hi is None else 1
    if q._hi is None:
        return -1
    return _cmp(p._hi, q._hi) or p.hi_closed - q.hi_closed


def _overlap(start: Interval, end: Interval) -> Optional[Interval]:
    """The piece from ``start``'s start to ``end``'s end; None when empty."""
    lo, hi = start._lo, end._hi
    if lo is not None and hi is not None:
        c = _cmp(lo, hi)
        if c > 0 or (c == 0 and not (start.lo_closed and end.hi_closed)):
            return None
    return _piece(lo, hi, start.lo_closed, end.hi_closed)


def _meet(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    """``x & y`` for two convex unions, neither empty nor universal.

    Ties go to ``x`` exactly as in the general sweep, and when one operand
    lies inside the other that operand itself is returned, so an
    intersection that changes nothing hands back the same object.
    """
    p, q = x.parts[0], y.parts[0]
    start = q if _starts_after(q, p) else p
    end = p if _end_order(p, q) <= 0 else q
    if start is end:
        return x if start is p else y
    piece = _overlap(start, end)
    return _EMPTY if piece is None else _union((piece,))


def narrow(
    old: IntervalUnion, x: IntervalUnion, y: IntervalUnion, weak: bool = False
) -> IntervalUnion:
    """``old & x.compose(y)``, or ``old & x.weak_compose(y)`` when ``weak``.

    Returns ``old`` itself whenever the result equals it.  When ``old`` is
    one piece and the sum is convex, the sum's ends are computed without
    building it and compared with ``old``'s, with ``&``'s tie rules: a tie
    goes to ``old``, and at one value a closed end is wider than an open
    one.  A piece is built only when an end moves.
    """
    o, a, b = old.parts, x.parts, y.parts
    if len(o) != 1 or not a or not b or not (weak or len(a) == 1 == len(b)):
        temp = old & (x.weak_compose(y) if weak else x.compose(y))
        return old if temp == old else temp
    p = o[0]
    lo, lo_closed, hi, hi_closed = p._lo, p.lo_closed, p._hi, p.hi_closed
    moved = False
    # the sum's lower end comes from the first pieces, its upper end from
    # the last: for a convex sum they are one piece, for a weak one the hulls
    first, then = a[0], b[0]
    if first._lo is not None and then._lo is not None:
        s = _plus(first._lo, then._lo)
        closed = first.lo_closed and then.lo_closed
        c = 1 if lo is None else _cmp(s, lo)
        if c > 0 or (c == 0 and lo_closed and not closed):
            lo, lo_closed, moved = s, closed, True
    last, end = a[-1], b[-1]
    if last._hi is not None and end._hi is not None:
        s = _plus(last._hi, end._hi)
        closed = last.hi_closed and end.hi_closed
        c = -1 if hi is None else _cmp(s, hi)
        if c < 0 or (c == 0 and hi_closed and not closed):
            hi, hi_closed, moved = s, closed, True
    if not moved:
        return old
    if lo is not None and hi is not None:
        c = _cmp(lo, hi)
        if c > 0 or (c == 0 and not (lo_closed and hi_closed)):
            return _EMPTY
    return _union((_piece(lo, hi, lo_closed, hi_closed),))


_EMPTY = IntervalUnion(())
_UNIVERSAL = IntervalUnion((Interval(None, None),))


# -- text form -------------------------------------------------------------------
#
# Grammar (writer output shown; reader is slightly more tolerant):
#   union     := "{}" | part (" u " part)*
#   part      := "{" rational "}" | bracket rational-or-inf "," rational-or-inf bracket
#   examples  :  "[-6,-4] u (1,3] u [8,+inf)"    "{3}"    "(-inf,+inf)"    "{}"
#
# Infinite endpoints must use an open bracket.  The reader also accepts "empty"
# for the empty union, "U" as separator, and decimal literals like "2.5"
# (parsed exactly); the writer never emits those.

_INF_LOW = {"-inf"}
_INF_HIGH = {"+inf", "inf"}


def _endpoint(text: str, side: str, context: str) -> Union[None, int, Fraction]:
    t = text.strip()
    if not t:
        raise UnionParseError(f"missing {side} endpoint in {context!r}")
    if t in _INF_LOW:
        if side == "upper":
            raise UnionParseError(f"-inf cannot be an upper endpoint: {context!r}")
        return None
    if t in _INF_HIGH:
        if side == "lower":
            raise UnionParseError(f"+inf cannot be a lower endpoint: {context!r}")
        return None
    digits = t[1:] if t[0] in "+-" else t
    try:
        if digits.isascii() and digits.isdigit():
            return int(t)  # an integer, without Fraction's text parser
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise UnionParseError(f"bad rational {t!r} in {context!r}: {exc}") from None


def parse_union(text: str) -> IntervalUnion:
    """Parse the textual form of an interval union (see module grammar)."""
    s = text.strip()
    if not s:
        raise UnionParseError("empty interval-union text")
    if s == "{}" or s.lower() == "empty":
        return IntervalUnion.empty()
    parts: list[Interval] = []
    for chunk in re.split(r"[uU]", s):
        c = chunk.strip()
        if not c:
            raise UnionParseError(f"empty union member in {text!r}")
        if c.startswith("{") and c.endswith("}"):
            inner = c[1:-1].strip()
            if not inner:
                continue  # an explicit empty member adds nothing
            v = _endpoint(inner, "point", c)
            if v is None:
                raise UnionParseError(f"a point must be finite: {c!r}")
            parts.append(Interval(v, v))
            continue
        if c[0] not in "[(" or c[-1] not in "])":
            raise UnionParseError(f"expected a bracketed interval, got {c!r}")
        body = c[1:-1]
        if body.count(",") != 1:
            raise UnionParseError(f"expected exactly one comma in {c!r}")
        lo_txt, hi_txt = body.split(",")
        lo = _endpoint(lo_txt, "lower", c)
        hi = _endpoint(hi_txt, "upper", c)
        lo_closed = c[0] == "["
        hi_closed = c[-1] == "]"
        if lo is None and lo_closed:
            raise UnionParseError(f"infinite lower endpoint must be open: {c!r}")
        if hi is None and hi_closed:
            raise UnionParseError(f"infinite upper endpoint must be open: {c!r}")
        try:
            parts.append(Interval(lo, hi, lo_closed, hi_closed))
        except ValueError as exc:
            raise UnionParseError(str(exc)) from None
    return IntervalUnion(parts)


def format_union(u: IntervalUnion) -> str:
    """Canonical text for a union; parse_union round-trips it."""
    if not u.parts:
        return "{}"
    rendered = []
    for p in u.parts:
        if p.is_degenerate():
            rendered.append("{%s}" % p._lo)
        else:
            rendered.append(p._text())
    return " u ".join(rendered)

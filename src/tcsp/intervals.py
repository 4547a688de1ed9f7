"""Exact interval-union algebra over the rationals.

The values a temporal difference ``x_j - x_i`` may take are described by a
finite union of convex intervals whose endpoints are exact rationals, each
end independently open or closed, and either end possibly infinite.
:class:`IntervalUnion` keeps that union in a canonical normal form -- parts
sorted, pairwise disjoint and non-mergeable -- so structural equality *is*
set equality.

Inside the kernel a piece keeps its two ends as the two edges of a distance
graph (Dechter, Meiri & Pearl 1991): ``_up = (b, closed)`` bounds x from
above and ``_down = (-a, closed)`` bounds -x, with None for an infinite end.
A bound is a tuple ``(value, closed)``, so Python's tuple order is the order
of path weights: ``(v, False)``, the open bound v~, sorts just below
``(v, True)``.  Ends add with :func:`_add`, and a piece is nonempty exactly
when ``_up + _down >= (0, True)``, the test Floyd-Warshall uses for a
negative circuit.  A value is stored in one exact form (see :func:`_exact`):
a Python ``int`` when it is whole and a :class:`fractions.Fraction` only
when it is not, so the common integer traffic runs on native integer
arithmetic.  Every public value -- ``Interval.lo``/``hi``, bounds, singleton
values -- is still a ``Fraction``, converted at that boundary.

Floats are rejected everywhere on purpose: the whole package computes exactly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Tuple, Union

from .errors import NotSingleton, UnionParseError

RatLike = Union[Fraction, int, str]
Exact = Union[int, Fraction]
#: One end of a piece: (value, closed), None when the end is infinite.
Bound = Optional[Tuple[Exact, bool]]


def as_rational(value: RatLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction; floats are refused."""
    if type(value) is Fraction:
        return value
    if type(value) is int:  # whole kernel values cross to the public side here
        return Fraction(value)
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {value!r}")
    return Fraction(value)


def _exact(value: RatLike) -> Exact:
    """The kernel's form of an exact value: an int when it is whole, else a
    Fraction in lowest terms (so ``Fraction(4, 2)`` becomes ``4``).  Equal
    values therefore have equal types.  Floats are refused."""
    if type(value) is not int:
        value = as_rational(value)
        if value.denominator == 1:
            return value.numerator
    return value


def _plus(x: Exact, y: Exact) -> Exact:
    """``x + y`` in the kernel's exact form (a whole sum is an int).  Two ints
    add natively, without Fraction's dispatch on the operand type."""
    if type(x) is int is type(y):
        return x + y
    return _exact(x + y)


def _add(a: Bound, b: Bound) -> Bound:
    """The bound of a sum: values add, the sum is closed only when both
    bounds are, and an infinite bound absorbs."""
    if a is None or b is None:
        return None
    return (_plus(a[0], b[0]), a[1] and b[1])


def _least(a: Bound, b: Bound) -> Bound:
    """The tighter of two bounds (None is no bound at all); a tie goes to ``a``."""
    return a if b is None or (a is not None and a <= b) else b


_CLOSED_ZERO = (0, True)


def _nonempty(down: Bound, up: Bound) -> bool:
    """Do these two ends leave a point between them?"""
    return down is None or up is None or _add(up, down) >= _CLOSED_ZERO


class Interval:
    """One convex piece: endpoints in Q, each end open/closed, either end infinite.

    ``lo``/``hi`` of ``None`` mean unbounded on that side (always open).
    Construction refuses empty intervals such as ``[5,3]`` or ``(a,a]``.
    The ends are kept as bounds in ``_down``/``_up`` (see the module
    docstring); ``lo``, ``hi``, ``lo_closed`` and ``hi_closed`` read them.
    """

    __slots__ = ("_down", "_up")

    def __init__(
        self,
        lo: Optional[RatLike],
        hi: Optional[RatLike],
        lo_closed: bool = True,
        hi_closed: bool = True,
    ):
        self._down = None if lo is None else (-_exact(lo), bool(lo_closed))
        self._up = None if hi is None else (_exact(hi), bool(hi_closed))
        if not _nonempty(self._down, self._up):
            raise ValueError(f"empty interval: {self._text()}")

    @property
    def lo(self) -> Optional[Fraction]:
        return None if self._down is None else as_rational(-self._down[0])

    @property
    def hi(self) -> Optional[Fraction]:
        return None if self._up is None else as_rational(self._up[0])

    @property
    def lo_closed(self) -> bool:
        return self._down is not None and self._down[1]

    @property
    def hi_closed(self) -> bool:
        return self._up is not None and self._up[1]

    def contains(self, x: RatLike) -> bool:
        x = _exact(x)
        up, down = self._up, self._down
        return (up is None or (x, True) <= up) and (down is None or (-x, True) <= down)

    def is_degenerate(self) -> bool:
        """True for a single point ``{v}``."""
        return _add(self._up, self._down) == _CLOSED_ZERO

    def _text(self) -> str:
        down, up = self._down, self._up
        lo = "-inf" if down is None else str(-down[0])
        hi = "+inf" if up is None else str(up[0])
        return f"{'[' if self.lo_closed else '('}{lo},{hi}{']' if self.hi_closed else ')'}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self._down == other._down and self._up == other._up

    def __hash__(self):
        return hash((self._down, self._up))

    def __repr__(self):
        return f"<Interval {self._text()}>"


def _piece(down: Bound, up: Bound) -> Interval:
    """An Interval from bounds already in the kernel's exact form and
    forming a nonempty piece; skips the checks of the public constructor."""
    piece = _new(Interval)
    piece._down = down
    piece._up = up
    return piece


def _union(parts: Tuple[Interval, ...]) -> "IntervalUnion":
    """An IntervalUnion whose ``parts`` are already in normal form."""
    union = _new(IntervalUnion)
    _set(union, "parts", parts)
    return union


_new = object.__new__
_set = object.__setattr__


def _apart(a: Interval, b: Interval) -> bool:
    """Does ``a`` end before ``b`` starts, with a point of neither between?

    The points below ``b``'s start (-v, closed) are those within the upper
    bound (v, not closed); ``a`` is apart from ``b`` when its own upper
    bound lies strictly under that one.
    """
    up, down = a._up, b._down
    return up is not None and down is not None and up < (-down[0], not down[1])


def _normalize(parts: Iterable[Interval]) -> Tuple[Interval, ...]:
    items = list(parts)
    if len(items) < 2 or all(map(_apart, items, items[1:])):
        return tuple(items)  # already sorted and apart
    # by start: an infinite start first, then the loosest _down first
    items.sort(key=lambda p: (p._down is None, p._down), reverse=True)
    out: list[Interval] = []
    for piece in items:
        if not out or _apart(out[-1], piece):
            out.append(piece)
            continue
        last = out[-1]
        if last._up is not None and (piece._up is None or piece._up > last._up):
            out[-1] = _piece(last._down, piece._up)
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
        return _union((_piece((-v, True), (v, True)),))

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
        return len(self.parts) == 1 and self.parts[0]._down is None and self.parts[0]._up is None

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
        if not self.parts or self.parts[0]._down is None:
            return None
        value, closed = self.parts[0]._down
        return (as_rational(-value), closed)

    def upper_bound(self) -> Optional[Tuple[Fraction, bool]]:
        """(value, is_closed) of the greatest endpoint, or None if empty/unbounded above."""
        if not self.parts or self.parts[-1]._up is None:
            return None
        value, closed = self.parts[-1]._up
        return (as_rational(value), closed)

    def singleton_value(self) -> Fraction:
        """The v of a one-point union {v}; raises NotSingleton otherwise."""
        if len(self.parts) == 1 and self.parts[0].is_degenerate():
            return as_rational(self.parts[0]._up[0])
        raise NotSingleton(f"not a single point: {self}")

    # -- algebra -----------------------------------------------------------------

    def converse(self) -> "IntervalUnion":
        """The set of -a for a in this union."""
        # negation swaps the two bounds of every piece (sharing them), and
        # reverses the order of the pieces, keeping them apart
        parts = self.parts
        if len(parts) == 1:  # the common convex label, without a generator
            p = parts[0]
            return _union((_piece(p._up, p._down),))
        return _union(tuple(_piece(p._up, p._down) for p in reversed(parts)))

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
            # from the later of the two starts to the earlier of the two ends
            down, up = _least(p._down, q._down), _least(p._up, q._up)
            if _nonempty(down, up):
                out.append(_piece(down, up))
            if up == p._up:
                i += 1
            if up == q._up:
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
        if len(a) == 1 and len(b) == 1:
            # convex + convex, unbounded ends included: one piece, in normal form
            return _union((_sum_piece(a[0], b[0]),))
        return IntervalUnion([_sum_piece(p, q) for p in a for q in b])

    def convex_closure(self) -> "IntervalUnion":
        """Smallest convex superset: first lower endpoint to last upper endpoint."""
        if len(self.parts) <= 1:
            return self
        return _union((_piece(self.parts[0]._down, self.parts[-1]._up),))

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


def _sum_piece(p: Interval, q: Interval) -> Interval:
    """The set sum of two pieces: their bounds add."""
    return _piece(_add(p._down, q._down), _add(p._up, q._up))


def _meet(x: IntervalUnion, y: IntervalUnion) -> IntervalUnion:
    """``x & y`` for two convex unions, neither empty nor universal.

    Each side keeps the tighter bound, a tie going to ``x``; when one
    operand lies inside the other that operand itself is returned, so an
    intersection that changes nothing hands back the same object.
    """
    p, q = x.parts[0], y.parts[0]
    down, up = _least(p._down, q._down), _least(p._up, q._up)
    if down is p._down and up is p._up:
        return x
    if down is q._down and up is q._up:
        return y
    return _union((_piece(down, up),)) if _nonempty(down, up) else _EMPTY


def narrow(
    old: IntervalUnion, x: IntervalUnion, y: IntervalUnion, weak: bool = False
) -> IntervalUnion:
    """``old & x.compose(y)``, or ``old & x.weak_compose(y)`` when ``weak``.

    Returns ``old`` itself whenever the result equals it.  When ``old`` is
    one piece and the sum is convex, the sum's bounds are added without
    building it, and each side keeps the tighter of ``old``'s bound and the
    sum's, a tie going to ``old``.  A piece is built only when a bound moves.
    """
    o, a, b = old.parts, x.parts, y.parts
    if len(o) != 1 or not a or not b or not (weak or len(a) == 1 == len(b)):
        temp = old & (x.weak_compose(y) if weak else x.compose(y))
        return old if temp == old else temp
    p = o[0]
    # the sum's lower end comes from the first pieces, its upper end from
    # the last: for a convex sum they are one piece, for a weak one the hulls
    down = _least(p._down, _add(a[0]._down, b[0]._down))
    up = _least(p._up, _add(a[-1]._up, b[-1]._up))
    if down is p._down and up is p._up:
        return old
    return _union((_piece(down, up),)) if _nonempty(down, up) else _EMPTY


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

# Fraction's own grammar for a decimal literal with an exponent
_EXPONENT = re.compile(
    r"([-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?)[eE]([-+]?\d+(?:_\d+)*)"
)


def _parse_rational(text: str) -> Exact:
    """The exact value of a literal ``Fraction`` accepts ("3", "-7/2", "2.5",
    "1e3"), in the kernel's exact form.

    Raises what ``Fraction`` raises on malformed text (ValueError, or
    ZeroDivisionError for a zero denominator), and ValueError for a value
    whose numerator or denominator would need more than
    ``sys.get_int_max_str_digits()`` digits, so could not be printed.
    """
    t = text.strip()
    digits = t[1:] if t[:1] in "+-" else t
    if digits.isascii() and digits.isdigit():
        return int(t)  # an integer, without Fraction's text parser
    limit = sys.get_int_max_str_digits()
    exponent = _EXPONENT.fullmatch(t) if limit else None
    if exponent and abs(int(exponent.group(2))) > 2 * limit:
        # Fraction reads the mantissa's digit strings within the limit, so a
        # nonzero mantissa lies between 10**-limit and 10**limit and this
        # power overflows: decide without expanding it
        value = 0
        too_long = Fraction(exponent.group(1)) != 0
    else:
        value = _exact(Fraction(t))
        n = max(abs(value.numerator), value.denominator)
        # below 8**limit a number never needs more than limit digits
        too_long = limit and n.bit_length() > 3 * limit and n >= 10**limit
    if too_long:
        raise ValueError(f"{t!r} has a numerator or denominator of more than {limit} digits")
    return value


def _endpoint(text: str, side: str, context: str) -> Optional[Exact]:
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
    try:
        return _parse_rational(t)
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
            rendered.append("{%s}" % p._up[0])
        else:
            rendered.append(p._text())
    return " u ".join(rendered)

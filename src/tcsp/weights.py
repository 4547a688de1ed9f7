"""Path weights with strictness: rationals, their "just below" twins, and +infinity.

Distance-graph edges carry weights of the form ``a`` (at most a) or ``a~``
(strictly below a, written a-minus), plus +infinity for "no constraint".
Strictness tracks open interval endpoints through shortest-path arithmetic:
adding weights ORs strictness, infinity absorbs, and the order puts ``a~``
just below ``a``.  A weight holds exactly the kernel's bound (see
:mod:`tcsp.intervals`): ``a`` is (a, True), ``a~`` is (a, False) and +inf is
None, so weights add with the kernel's ``_add`` and order as their bounds do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import (
    _CLOSED_ZERO, Bound, RatLike, _add, _exact, _new, _parse_rational, _set, as_rational,
)


@dataclass(frozen=True)
class Weight:
    """A path weight: ``Weight(value, strict=False)``, with a ``value`` of None
    meaning +infinity (never strict).  ``bound`` is the kernel's bound."""

    bound: Bound

    def __init__(self, value: Optional[RatLike], strict: bool = False):
        if value is None and strict:
            raise ValueError("+inf cannot be strict")
        _set(self, "bound", None if value is None else (_exact(value), not strict))

    @property
    def value(self) -> Optional[Fraction]:
        return None if self.bound is None else as_rational(self.bound[0])

    @property
    def strict(self) -> bool:
        return self.bound is not None and not self.bound[1]

    def is_inf(self) -> bool:
        return self.bound is None

    def __str__(self) -> str:
        return format_weight(self)


def _weight(bound: Bound) -> Weight:
    """A Weight holding a bound already in the kernel's exact form; skips the
    checks of the public constructor."""
    w = _new(Weight)
    _set(w, "bound", bound)
    return w


#: No constraint at all.
INF = _weight(None)
#: The weight of staying put.
ZERO = _weight(_CLOSED_ZERO)


def weight(value: RatLike, strict: bool = False) -> Weight:
    """Convenience constructor taking ints/strings as well as Fractions."""
    return Weight(as_rational(value), strict)


def w_add(a: Weight, b: Weight) -> Weight:
    """Concatenate path weights: +inf absorbs, strictness propagates."""
    return _weight(_add(a.bound, b.bound))


def w_less(a: Weight, b: Weight) -> bool:
    """Total order: finite < +inf, by value, and a~ < a at equal values."""
    return a.bound is not None and (b.bound is None or a.bound < b.bound)


def w_leq(a: Weight, b: Weight) -> bool:
    return a == b or w_less(a, b)


def w_min(a: Weight, b: Weight) -> Weight:
    return a if w_less(a, b) else b


def format_weight(w: Weight) -> str:
    """Canonical text: "7/2", "-10~", "+inf"."""
    if w.bound is None:
        return "+inf"
    value, closed = w.bound
    return str(value) if closed else f"{value}~"


def parse_weight(text: str) -> Weight:
    """Inverse of format_weight; raises ValueError on malformed text."""
    t = text.strip()
    if t == "+inf":
        return INF
    strict = t.endswith("~")
    if strict:
        t = t[:-1].strip()
    if not t:
        raise ValueError(f"bad weight text: {text!r}")
    try:
        return _weight((_parse_rational(t), not strict))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in weight text: {text!r}") from None

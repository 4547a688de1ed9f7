"""Path weights with strictness: rationals, their "just below" twins, and +infinity.

Distance-graph edges carry weights of the form ``a`` (at most a) or ``a~``
(strictly below a, written a-minus), plus +infinity for "no constraint".
Strictness tracks open interval endpoints through shortest-path arithmetic:
adding weights ORs strictness, infinity absorbs, and the order puts ``a~``
just below ``a``.  A finite weight is the public form of the kernel's bound
(value, closed) with closed = not strict (see :mod:`tcsp.intervals`), and
:func:`sort_key` maps it back, so weights order as their bounds do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .intervals import RatLike, _parse_rational, _plus, as_rational


@dataclass(frozen=True)
class Weight:
    """``value`` of None means +infinity (never strict)."""

    value: Optional[Fraction]
    strict: bool = False

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value", as_rational(self.value))
        elif self.strict:
            raise ValueError("+inf cannot be strict")

    def is_inf(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return format_weight(self)


#: No constraint at all.
INF = Weight(None)
#: The weight of staying put.
ZERO = Weight(Fraction(0))


def weight(value: RatLike, strict: bool = False) -> Weight:
    """Convenience constructor taking ints/strings as well as Fractions."""
    return Weight(as_rational(value), strict)


def w_add(a: Weight, b: Weight) -> Weight:
    """Concatenate path weights: +inf absorbs, strictness propagates."""
    if a.value is None or b.value is None:
        return INF
    return Weight(_plus(a.value, b.value), a.strict or b.strict)


def w_less(a: Weight, b: Weight) -> bool:
    """Total order: finite < +inf, by value, and a~ < a at equal values."""
    if a.value is None or b.value is None:
        return b.value is None and a.value is not None
    return sort_key(a) < sort_key(b)


def w_leq(a: Weight, b: Weight) -> bool:
    return a == b or w_less(a, b)


def w_min(a: Weight, b: Weight) -> Weight:
    return a if w_less(a, b) else b


def sort_key(w: Weight) -> Tuple[Fraction, int]:
    """Ascending sort key for finite weights (a~ before a)."""
    if w.value is None:
        raise ValueError("sort_key is only defined for finite weights")
    return (w.value, 0 if w.strict else 1)


def format_weight(w: Weight) -> str:
    """Canonical text: "7/2", "-10~", "+inf"."""
    if w.value is None:
        return "+inf"
    return f"{w.value}~" if w.strict else str(w.value)


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
        return Weight(_parse_rational(t), strict)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in weight text: {text!r}") from None

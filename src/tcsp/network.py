"""Temporal constraint networks over difference variables.

A network holds variables X0..Xn and, for every ordered pair, an
:class:`~tcsp.intervals.IntervalUnion` label constraining ``x_j - x_i``.
X0 is the origin of the world: unary information about Xi lives in the
*binarized domain* ``m[0][i]``.  The matrix keeps the mirror invariant
``m[j][i] == m[i][j].converse()`` and pins the diagonal at {0}.

This module also provides the exact conversions between all-convex networks
(STPs) and rooted distance graphs, and the path-derived weight bounds that
the clamped propagation algorithms use to cut off divergence.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    EmptyLabel,
    NetworkFormatError,
    NotAnStp,
    UnionParseError,
)
from .graph import MAX_VERTICES, RootedDistanceGraph, _reached
from .intervals import (
    _CLOSED_ZERO,
    Bound,
    IntervalUnion,
    RatLike,
    _add,
    _exact,
    _nonempty,
    _piece,
    _union,
    as_rational,
    format_union,
    parse_union,
)
from .weights import INF, Weight, _weight


# labels are immutable, so every fresh matrix shares these two
_ZERO_LABEL = IntervalUnion.point(0)
_FULL_LABEL = IntervalUnion.universal()


class Tcsp:
    """A constraint network; ``m[i][j]`` bounds ``x_j - x_i``.

    The constraint structure records which off-origin pairs are
    constrained: ``neighbours[i]`` is the sorted tuple of the variables
    X_j (j >= 1) constrained with X_i (i >= 1), and ``neighbours[0]`` stays
    empty.  The worklist algorithms seed and re-enqueue from it.  One rule
    grows it: a :meth:`set_pair` write on a pair off the origin declares
    that pair, whatever its label, so every finite off-origin entry lies on
    a constrained pair.  :meth:`copy` copies the outer list and shares the
    tuples.  Structural equality compares sizes and matrices only, never
    the structure.

    Writes go through :meth:`set_pair`, which keeps the mirror invariant and
    declares the pair.  The one exception is ``pc1``'s label sweep (traced
    runs, and networks that are not STPs), which writes ``m`` directly; the
    run's ``write_back`` passes each pair it narrowed to :meth:`set_pair`.
    """

    __slots__ = ("n_vars", "m", "neighbours")

    def __init__(self, n_vars: int):
        if n_vars < 0:
            raise ValueError("n_vars must be >= 0")
        self.n_vars = n_vars
        size = n_vars + 1
        self.m = [[_ZERO_LABEL if i == j else _FULL_LABEL for j in range(size)] for i in range(size)]
        self.neighbours: List[Tuple[int, ...]] = [()] * size

    def _check(self, i: int, j: int):
        if not (0 <= i <= self.n_vars and 0 <= j <= self.n_vars):
            raise IndexError(f"variable out of range: ({i}, {j})")

    def entry(self, i: int, j: int) -> IntervalUnion:
        self._check(i, j)
        return self.m[i][j]

    def set_pair(self, i: int, j: int, label: IntervalUnion):
        """Write ``label`` at (i, j) and its converse at (j, i); off X0, declare the pair."""
        self._check(i, j)
        if i == j:
            raise ValueError("diagonal entries are fixed at {0}")
        if not isinstance(label, IntervalUnion):
            raise TypeError(f"label must be an IntervalUnion, got {type(label).__name__}")
        self.m[i][j] = label
        self.m[j][i] = label.converse()
        if i and j and j not in self.neighbours[i]:
            neighbours = self.neighbours
            neighbours[i] = tuple(sorted(neighbours[i] + (j,)))
            neighbours[j] = tuple(sorted(neighbours[j] + (i,)))

    def domains(self) -> List[IntervalUnion]:
        """The binarized domains m[0][1..n]."""
        return [self.m[0][i] for i in range(1, self.n_vars + 1)]

    def copy(self) -> "Tcsp":
        dup = object.__new__(Tcsp)  # skip building a matrix only to replace it
        dup.n_vars = self.n_vars
        dup.m = [row[:] for row in self.m]
        dup.neighbours = self.neighbours[:]
        return dup

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tcsp):
            return NotImplemented
        return self.n_vars == other.n_vars and self.m == other.m

    def __repr__(self):
        return f"<Tcsp on X0..X{self.n_vars}>"


Constraint = Tuple[int, int, IntervalUnion]


def build_tcsp(n_vars: int, constraints: Iterable[Constraint]) -> Tcsp:
    """Assemble a network from explicit constraints.

    Pairs given as (i, j) with i > j are stored in canonical orientation via
    the converse; several constraints on one pair intersect.  An empty label,
    supplied or produced by that intersection, raises EmptyLabel because the
    network would be trivially inconsistent.
    """
    net = Tcsp(n_vars)
    gathered: dict[Tuple[int, int], IntervalUnion] = {}
    for i, j, label in constraints:
        net._check(i, j)
        if i == j:
            raise ValueError(f"constraint on the diagonal: ({i}, {j})")
        if not isinstance(label, IntervalUnion):
            raise TypeError(f"label must be an IntervalUnion, got {type(label).__name__}")
        if label.is_empty():
            raise EmptyLabel(f"constraint ({i}, {j}) has an empty label")
        if i > j:
            i, j, label = j, i, label.converse()
        key = (i, j)
        if key in gathered:
            label = gathered[key] & label
            if label.is_empty():
                raise EmptyLabel(
                    f"constraints on ({i}, {j}) intersect to the empty set"
                )
        gathered[key] = label
    for (i, j), label in gathered.items():
        net.set_pair(i, j, label)
    return net


def is_stp(net: Tcsp) -> bool:
    """True when every label is convex (a simple temporal problem)."""
    return all(
        net.m[i][j].is_convex()
        for i in range(net.n_vars + 1)
        for j in range(i + 1, net.n_vars + 1)
    )


def first_empty_entry(net: Tcsp) -> Optional[Tuple[int, int]]:
    """The first pair (i, j), i < j in row order, with an empty label, or None.

    By the mirror invariant (j, i) is empty exactly when (i, j) is, so this
    is also the first empty entry of the whole matrix in row order.
    """
    for i in range(net.n_vars + 1):
        row = net.m[i]
        for j in range(i + 1, net.n_vars + 1):
            if row[j].is_empty():
                return (i, j)
    return None


# -- label endpoints as path weights ------------------------------------------


def up_weight(label: IntervalUnion) -> Weight:
    """Upper endpoint as a bound on x_j - x_i: b, b~ for open, +inf if unbounded."""
    return _weight(label.parts[-1]._up) if label.parts else INF


def down_weight(label: IntervalUnion) -> Weight:
    """Lower endpoint as a bound on x_i - x_j: -a, (-a)~ for open, +inf if unbounded."""
    return _weight(label.parts[0]._down) if label.parts else INF


def stp_to_graph(net: Tcsp) -> RootedDistanceGraph:
    """Rooted distance graph of an all-convex network."""
    if not is_stp(net):
        raise NotAnStp("only an all-convex network has a distance graph")
    g = RootedDistanceGraph(net.n_vars)
    for i in range(net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            label = net.m[i][j]
            if label.is_empty():
                raise EmptyLabel(f"entry ({i}, {j}) is empty")
            if label.is_universal():
                continue
            g.set_edge(i, j, up_weight(label))
            g.set_edge(j, i, down_weight(label))
    return g


def graph_to_stp(g: RootedDistanceGraph) -> Tcsp:
    """Inverse conversion: forward weights become upper endpoints, backward
    weights become (negated) lower endpoints, strict weights open ends.

    Crossing bounds -- a negative two-cycle -- raise EmptyLabel.
    """
    net = Tcsp(g.n_vars)
    for i in range(g.n_vars + 1):
        for j in range(i + 1, g.n_vars + 1):
            up, down = g.w[i][j].bound, g.w[j][i].bound
            if up is None and down is None:
                continue
            if not _nonempty(down, up):
                raise EmptyLabel(f"negative two-cycle between vertices {i} and {j}")
            net.set_pair(i, j, _union((_piece(down, up),)))
    return net


def convex_closure(net: Tcsp) -> Tcsp:
    """Entrywise convex closure; always an STP."""
    out = net.copy()
    for i in range(net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            label = net.m[i][j]
            if not label.is_convex():
                out.set_pair(i, j, label.convex_closure())
    return out


# -- path-derived weight bounds -------------------------------------------------


@dataclass(frozen=True)
class PathBounds:
    """Extreme elementary-path weights of the convex closure's distance graph."""

    path_lb: Weight
    path_ub: Weight


def _pair_keys(label: IntervalUnion) -> Tuple[Bound, Bound]:
    """Bounds of one pair's candidates: (below, above), None when absent.

    Every finite end of every piece is an edge weight: an upper end b gives
    b forward, a lower end a gives -a backward, open ends strict.  ``below``
    is the most negative such weight, kept only when negative; ``above`` is
    the largest, kept only when nonnegative.  The keys are the pieces' own
    bounds, which order as the weights they are, with the value in the
    kernel's exact form, so integer keys sort natively.
    """
    ends = [end for piece in label.parts for end in (piece._up, piece._down) if end is not None]
    if not ends:
        return None, None
    low, high = min(ends), max(ends)
    return (low if low < _CLOSED_ZERO else None, high if high >= _CLOSED_ZERO else None)


def _key_sum(keys: List[Bound]) -> Weight:
    """The weight of a path made of these edges (ZERO for none)."""
    return _weight(reduce(_add, keys, _CLOSED_ZERO))


def path_bounds(net: Tcsp) -> PathBounds:
    """Lower/upper bounds on the weight of any elementary path.

    An elementary path visits distinct variables, so it uses at most one
    directed edge per pair and at most n edges in total.  Each edge weight
    comes from one convex piece of the pair's label: the piece's upper
    endpoint forward, its negated lower endpoint backward.  Per pair, the
    most negative endpoint any piece can supply bounds paths below, and the
    largest finite nonnegative one bounds them above.  Taking the extreme
    over pieces (rather than over the label's hull, which on a disjunctive
    label can hide every finite endpoint) makes the bounds hold in every
    all-convex refinement of the network, which is what the propagation
    clamp needs to stay sound when labels are disjunctive.  On an all-convex
    network the two readings coincide.

    One call scans the n(n+1)/2 pairs of the upper triangle and makes two
    partial selections of n keys.  It holds no state, so copies and direct
    writes to ``m`` need nothing.
    """
    n = net.n_vars
    below: List[Bound] = []
    above: List[Bound] = []
    for i in range(n + 1):
        row = net.m[i]
        for j in range(i + 1, n + 1):
            lo, hi = _pair_keys(row[j])
            if lo is not None:
                below.append(lo)
            if hi is not None:
                above.append(hi)
    return PathBounds(_key_sum(heapq.nsmallest(n, below)), _key_sum(heapq.nlargest(n, above)))


def path_range(net: Tcsp) -> Fraction:
    """Width of the band all elementary path weights live in (strictness dropped)."""
    bounds = path_bounds(net)
    return as_rational(bounds.path_ub.bound[0] - bounds.path_lb.bound[0])


# -- connectivity ----------------------------------------------------------------


def connectivity(net: Tcsp) -> List[bool]:
    """For each variable, whether a finite-weight path links it with X0.

    Either direction counts; index 0 is True by definition.  The paths are
    those of the convex closure's distance graph, whose edge u -> v is
    finite exactly when m[u][v] has a finite upper end, so they are read
    straight off the labels.  An empty entry raises EmptyLabel.
    """
    where = first_empty_entry(net)
    if where is not None:
        raise EmptyLabel(f"entry {where} is empty")
    # by the mirror invariant m[v][u] has a finite upper end exactly when
    # m[u][v] has a finite lower end, so both searches read rows only
    forward = _reached(net.m, 0, lambda label: label.parts[-1]._up is not None)
    backward = _reached(net.m, 0, lambda label: label.parts[0]._down is not None)
    return [a or b for a, b in zip(forward, backward)]


def disconnected_variables(net: Tcsp) -> List[int]:
    flags = connectivity(net)
    return [i for i in range(1, net.n_vars + 1) if not flags[i]]


# -- relations between networks ----------------------------------------------------


def is_refinement(tighter: Tcsp, looser: Tcsp) -> bool:
    """Entrywise subset check; both networks must have the same variables."""
    if tighter.n_vars != looser.n_vars:
        raise DimensionMismatch(
            f"cannot compare networks on {tighter.n_vars} and {looser.n_vars} variables"
        )
    for i in range(tighter.n_vars + 1):
        for j in range(i + 1, tighter.n_vars + 1):
            if not tighter.m[i][j].issubset(looser.m[i][j]):
                return False
    return True


def check_solution(net: Tcsp, values: Sequence[RatLike]) -> bool:
    """Does the assignment X_i = values[i] satisfy every constraint?"""
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


# -- JSON form ----------------------------------------------------------------------
#
#   {
#     "variables": 4,
#     "constraints": [
#       {"i": 0, "j": 1, "label": "[10,20]"},
#       ...
#     ]
#   }
#
# "variables" is n: the network has variables X0..Xn.  The writer emits the
# non-universal labels of the upper triangle sorted by (i, j); reading the
# result back reproduces the same matrix.


def network_to_json(net: Tcsp) -> str:
    constraints = []
    for i in range(net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            label = net.m[i][j]
            if not label.is_universal():
                constraints.append({"i": i, "j": j, "label": format_union(label)})
    doc = {"variables": net.n_vars, "constraints": constraints}
    return json.dumps(doc, indent=2) + "\n"


def _json_object(text: str) -> dict:
    """``text`` read as a JSON object; any way that fails is a NetworkFormatError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer literal past int()'s digit limit
        raise NetworkFormatError(str(exc)) from None
    except RecursionError:  # arrays or objects nested past the recursion limit
        raise NetworkFormatError("JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise NetworkFormatError("top level must be an object")
    return doc


def network_from_json(text: str) -> Tcsp:
    doc = _json_object(text)
    n = doc.get("variables")
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise NetworkFormatError('"variables" must be a nonnegative integer')
    if n + 1 > MAX_VERTICES:  # checked before Tcsp(n) allocates (n+1)² labels
        raise NetworkFormatError(f"{n} variables exceed the limit of {MAX_VERTICES - 1}")
    raw = doc.get("constraints", [])
    if not isinstance(raw, list):
        raise NetworkFormatError('"constraints" must be a list')
    constraints: List[Constraint] = []
    for k, item in enumerate(raw):
        where = f"constraint #{k}"
        if not isinstance(item, dict):
            raise NetworkFormatError(f"{where}: must be an object")
        i, j, label_text = item.get("i"), item.get("j"), item.get("label")
        if isinstance(i, bool) or not isinstance(i, int):
            raise NetworkFormatError(f'{where}: "i" must be an integer')
        if isinstance(j, bool) or not isinstance(j, int):
            raise NetworkFormatError(f'{where}: "j" must be an integer')
        if not isinstance(label_text, str):
            raise NetworkFormatError(f'{where}: "label" must be a string')
        try:
            label = parse_union(label_text)
        except UnionParseError as exc:
            raise NetworkFormatError(f"{where} ({i}, {j}): {exc}") from None
        constraints.append((i, j, label))
    try:
        return build_tcsp(n, constraints)
    except (IndexError, ValueError) as exc:
        raise NetworkFormatError(str(exc)) from None

"""Deciding and solving general (disjunctive) networks.

The search branches over the convex pieces of one disjunctive entry at a
time, pruning each node with the weak arc pass.  An all-convex leaf that
survives full propagation and anchoring is almost always consistent, but
not quite: a circuit whose total weight is strictly-zero (all strictness,
no slack, e.g. built from [-5,-2) with {-5} and {-3}) leaves every domain
nonempty at the fixpoint and propagation cannot see it.  So the leaf's
certificate of consistency is the extraction itself: repeatedly fix the
first unfixed variable to a value inside its domain and re-propagate.  On
a consistent leaf this never dead-ends; a dead end disproves the leaf and
the search moves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import EmptyLabel, ExtractionDeadEnd, NotAnStp, PreconditionViolated
from .intervals import Bound, IntervalUnion
from .network import Tcsp, check_solution, disconnected_variables, first_empty_entry, is_stp
from .propagation import Outcome, _pin_in_turn, bdac3, is_bd_arc_consistent, refinements, wbdac3


@dataclass(frozen=True)
class SolveResult:
    consistent: bool
    solution: Optional[List[Fraction]]
    witness: Optional[Tcsp]


def connect_x0(net: Tcsp) -> bool:
    """Anchor variables the origin cannot see and re-propagate, in place.

    Works lowest index first; each anchor pins the variable to [0, +inf)
    and re-propagates, the first from a full seed (the input need not be at
    a fixpoint), the rest from the arcs it touched.  Returns False as soon
    as propagation finds a conflict.  Connectivity is searched once, up
    front.  That is exact because every finite off-origin entry lies on a
    constrained pair (:meth:`~tcsp.network.Tcsp.set_pair` declares each
    pair it writes off X0): at the end of a CONSISTENT bdac3 run a finite
    path from or to X0 then bounds every domain along it, so a variable is
    disconnected exactly when its domain is universal, and a later loose
    variable is anchored only while its domain stays universal.
    """
    if not is_stp(net):
        raise NotAnStp("connect_x0 needs an all-convex network")
    anchor = IntervalUnion.span(0, None, True, False)
    for k, v in enumerate(disconnected_variables(net)):
        if k and not net.m[0][v].is_universal():
            continue  # an earlier anchor's propagation reached X_v
        net.set_pair(0, v, anchor)
        if bdac3(net, changed=(0, v) if k else None).outcome is not Outcome.CONSISTENT:
            return False
    return True


def _pick_value(down: Bound, up: Bound):
    """A deterministic member of the nonempty convex domain whose bounds are
    ``down`` and ``up``, as an exact value (int or Fraction)."""
    if down is not None:
        if down[1]:
            return -down[0]
        if up is not None:
            return Fraction(up[0] - down[0], 2)  # the exact midpoint, never a float
        return 1 - down[0]
    if up is not None:
        return up[0] if up[1] else up[0] - 1
    return 0


def backtrack_free(net: Tcsp) -> Tcsp:
    """Fix every variable of a connected, bdArc-consistent STP, in place.

    Each round pins the lowest-index unfixed variable to a value of its
    current domain and re-propagates from the arcs that read that domain,
    the network having been at the bdac3 fixpoint before the pin.  A
    consistent re-propagation keeps every earlier pin a point, so one pass
    in index order fixes them all.  On a consistent input this never hits
    a dead end; an input harboring a strict-zero-weight circuit (the one
    inconsistency domain propagation cannot surface) dead-ends and raises
    ExtractionDeadEnd.

    Each round makes the steps, counts and clamp decisions of ``bdac3(net,
    changed=(0, t))``, but all rounds step over one held pair of domain
    bound vectors, and the network is written once, when the last round
    ends or one dead-ends.  A pin whose denominator does not divide the
    vectors' scale first rescales every bound to the lcm.  The floor is per
    round: a pin lowers path_lb, so a round's first clamp check that no
    walk certifies writes the bounds the round began with, earlier pins
    included, and reads path_lb of that network.
    """
    if not is_stp(net):
        raise PreconditionViolated("not an all-convex network")
    try:
        loose = disconnected_variables(net)
    except EmptyLabel:
        raise PreconditionViolated(f"entry {first_empty_entry(net)} is already empty") from None
    if loose:
        raise PreconditionViolated(f"X{loose[0]} is not connected with the origin")
    if not is_bd_arc_consistent(net):
        raise PreconditionViolated("network is not bdArc-consistent")
    _, dead = _pin_in_turn(net, _pick_value)
    if dead is not None:
        raise ExtractionDeadEnd(f"fixing X{dead} emptied a domain; the network has no solutions")
    return net


def extract_solution(net: Tcsp) -> List[Fraction]:
    """Read the assignment off a network whose domains are all points."""
    values = [Fraction(0)]
    for i in range(1, net.n_vars + 1):
        values.append(net.m[0][i].singleton_value())
    return values


def _select_disjunctive(net: Tcsp) -> Optional[Tuple[int, int]]:
    """The disjunctive entry with the fewest pieces, ties toward low (i, j)."""
    best: Optional[Tuple[int, Tuple[int, int]]] = None
    for i in range(net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            label = net.m[i][j]
            if label.is_convex():
                continue
            width = len(label.parts)
            if best is None or width < best[0]:
                best = (width, (i, j))
    return None if best is None else best[1]


def _search(net: Tcsp) -> Optional[Tuple[Tcsp, List[Fraction]]]:
    """Refine ``net`` (owned by the caller) into a solved connected leaf.

    Returns the anchored leaf together with an assignment extracted from
    it, or None when no refinement has solutions.  The nodes are those of
    :func:`~tcsp.propagation.refinements` under wbdac3, branching on
    :func:`_select_disjunctive`.  Every node is at the wbdac3 fixpoint, and
    on an all-convex leaf that is the bdac3 fixpoint (see
    :func:`~tcsp.propagation.wbdac3`), so a leaf goes straight to anchoring.
    """
    for node, _, branch in refinements(net, wbdac3):
        target = _select_disjunctive(node)
        if target is not None:
            branch(target)
            continue
        if not connect_x0(node):
            continue
        fixed = node.copy()
        try:
            backtrack_free(fixed)
        except ExtractionDeadEnd:
            continue  # a strict-zero circuit was hiding in this leaf
        return node, extract_solution(fixed)
    return None


def consistent(net: Tcsp) -> bool:
    """Does any assignment satisfy the network?"""
    return _search(net.copy()) is not None


def solve(net: Tcsp, *, witness: bool = False) -> SolveResult:
    """Decide the network and, when consistent, produce a checked solution.

    The input is never mutated.  With ``witness=True`` the result also
    carries the consistent all-convex refinement the solution came from.
    """
    found = _search(net.copy())
    if found is None:
        return SolveResult(False, None, None)
    leaf, values = found
    if not check_solution(net, values):
        raise AssertionError("internal error: extracted solution fails its own network")
    return SolveResult(True, values, leaf if witness else None)

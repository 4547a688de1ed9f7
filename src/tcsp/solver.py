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

from .errors import ExtractionDeadEnd, NotAnStp, PreconditionViolated
from .intervals import IntervalUnion
from .network import Tcsp, check_solution, disconnected_variables, is_stp
from .propagation import Outcome, bdac3, is_bd_arc_consistent, wbdac3


@dataclass(frozen=True)
class SolveResult:
    consistent: bool
    solution: Optional[List[Fraction]]
    witness: Optional[Tcsp]


def connect_x0(net: Tcsp) -> bool:
    """Anchor variables the origin cannot see and re-propagate, in place.

    Works lowest index first; each anchor pins the variable to [0, +inf)
    (a disconnected variable necessarily has a universal domain, so this
    only refines).  Returns False as soon as propagation finds a conflict.
    The first anchor re-propagates from a full seed, since the input need
    not be at a fixpoint; every later one only from the arcs it touched.
    """
    if not is_stp(net):
        raise NotAnStp("connect_x0 needs an all-convex network")
    anchor = IntervalUnion.span(0, None, True, False)
    first = True
    while True:
        loose = disconnected_variables(net)
        if not loose:
            return True
        net.set_pair(0, loose[0], anchor)
        changed = None if first else (0, loose[0])
        if bdac3(net, changed=changed).outcome is not Outcome.CONSISTENT:
            return False
        first = False


def _pick_value(domain: IntervalUnion):
    """A deterministic member of a nonempty convex domain, as an exact value
    (int or Fraction) for :meth:`IntervalUnion.point`."""
    down, up = domain.parts[0]._down, domain.parts[0]._up
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
    """
    if not is_stp(net):
        raise PreconditionViolated("not an all-convex network")
    n = net.n_vars
    if any(net.m[0][i].is_empty() for i in range(1, n + 1)):
        raise PreconditionViolated("a domain is already empty")
    loose = disconnected_variables(net)
    if loose:
        raise PreconditionViolated(f"X{loose[0]} is not connected with the origin")
    if not is_bd_arc_consistent(net):
        raise PreconditionViolated("network is not bdArc-consistent")
    for target in range(1, n + 1):
        domain = net.m[0][target]
        if len(domain.parts) == 1 and domain.parts[0].is_degenerate():
            continue
        net.set_pair(0, target, IntervalUnion.point(_pick_value(domain)))
        if bdac3(net, changed=(0, target)).outcome is not Outcome.CONSISTENT:
            raise ExtractionDeadEnd(
                f"fixing X{target} emptied a domain; the network has no solutions"
            )
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
    it, or None when no refinement has solutions.  Depth first, with an
    explicit stack of (parent, branched entry, piece) so that depth is not
    limited by the interpreter's recursion limit.  A child is copied from
    its parent when popped and re-propagated only from the arcs reading the
    entry it branched on.  Its parent ended a wbdac3 run, which need not be
    the wbdac3 fixpoint, so a child's domains may differ from those of a
    full-seed run; both are sound, and the leaf's full bdac3 pass and
    extraction decide the leaf either way.
    """
    stack: list = [(net, None, None)]
    while stack:
        node, changed, piece = stack.pop()
        if piece is not None:
            node = node.copy()
            node.set_pair(*changed, piece)
        if wbdac3(node, changed=changed).outcome is not Outcome.CONSISTENT:
            continue
        target = _select_disjunctive(node)
        if target is None:
            # all-convex leaf: run the full-strength pass before anchoring
            if bdac3(node).outcome is not Outcome.CONSISTENT:
                continue
            if not connect_x0(node):
                continue
            fixed = node.copy()
            try:
                backtrack_free(fixed)
            except ExtractionDeadEnd:
                continue  # a strict-zero circuit was hiding in this leaf
            return node, extract_solution(fixed)
        i, j = target
        # pushed last to first, so the first piece is explored first
        for piece in reversed(node.m[i][j].convex_parts()):
            stack.append((node, target, piece))
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

"""Deciding and solving general (disjunctive) networks.

The search branches over the convex pieces of one disjunctive entry at a
time, pruning each node with the weak arc pass.  An all-convex leaf that
survives full propagation and anchoring is almost always consistent, but
not quite: a circuit whose total weight is strictly-zero (all strictness,
no slack, e.g. built from [-5,-2) with {-5} and {-3}) leaves every domain
nonempty at the fixpoint.  So the leaf's certificate of consistency is the
extraction itself (:func:`backtrack_free`): a dead end disproves the leaf
and the search moves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import ExtractionDeadEnd, NotAnStp, PreconditionViolated
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
    front: by lemma (a) of :func:`backtrack_free`, after a CONSISTENT bdac3
    run a variable is loose exactly while its domain stays universal.
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
    domain and re-propagates, unclamped, in one run that writes the network
    once (``propagation._pin_in_turn``).  A consistent round keeps
    earlier pins points, so one pass in index order fixes them all.

    The lemma.  Read X_v's domain as the edges X0 -> X_v, of its upper end
    up_v, and X_v -> X0, of down_v, its lower end negated.  Every finite
    off-origin edge lies on a constrained pair (``Tcsp.set_pair`` declares
    each), and at a bdArc-consistent STP with no empty entry each such arc
    gives ``up_v <= up_u + up(m[u][v])`` and ``down_u <= up(m[u][v]) +
    down_v``: a path from X0 to X_v weighs at least up_v, one from X_v to X0
    at least down_v.  So (a) X_v is connected with X0 exactly when its
    domain has a finite end; (b) when every variable is, no circuit is
    negative: the up ends, or the down ends, of a circuit's variables are
    all finite and telescope to 0, and one through X0 weighs at least some
    up_v + down_v >= 0; (c) pinning X_t to a value x of its domain keeps (b),
    a new circuit weighing at least x + down_t or up_t - x.  A pin's run
    writes ends that weigh as walks of the network it began on (see
    ``propagation._Run``): sums of its ends, by (c) none below its least
    elementary path.  So each end takes finitely many values, opening at
    most once at each, and the run ends without a clamp.  A strict-zero
    circuit is not negative, but leaves no solution, so some pin dead-ends
    and ExtractionDeadEnd is raised; on a consistent input none does.
    """
    if not is_stp(net):
        raise PreconditionViolated("not an all-convex network")
    where = first_empty_entry(net)
    if where is not None:
        raise PreconditionViolated(f"entry {where} is already empty")
    if not is_bd_arc_consistent(net):
        raise PreconditionViolated("network is not bdArc-consistent")
    for v in range(1, net.n_vars + 1):
        if net.m[0][v].is_universal():  # (a): X_v is not connected with X0
            raise PreconditionViolated(f"X{v} is not connected with the origin")
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
    for node, branch in refinements(net, wbdac3):
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

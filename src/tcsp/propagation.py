"""Local-consistency algorithms over constraint networks.

Two families operate in place on a :class:`~tcsp.network.Tcsp`:

* arc-style passes over the binarized domains -- ``bdac3``/``wbdac3``
  (worklist) and ``bdac1`` (round-robin) -- which only ever rewrite row 0;
* path-style passes -- ``pc1`` (full sweeps) and ``pc2`` (worklist) --
  which tighten arbitrary entries through composition.

The clamped variants cut any domain whose endpoint weights fall below the
fixed path-derived lower bound straight to empty, which is what makes them
terminate on inconsistent inputs with unbounded labels.  ``minus_variant``
re-runs an algorithm without the clamp under a hard call budget; that is
how the divergence the clamp prevents is made observable in tests.

Every revise/composition step can be recorded: pass a list as ``trace=``
and one :class:`TraceEntry` per call is appended.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

from .intervals import IntervalUnion, format_union
from .network import PathBounds, Tcsp, down_weight, first_empty_entry, path_bounds, up_weight
from .weights import w_less


class Outcome(Enum):
    CONSISTENT = "consistent"
    EMPTY_DOMAIN = "empty-domain"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class RunReport:
    outcome: Outcome
    revise_calls: int
    domain_updates: int


@dataclass(frozen=True)
class TraceEntry:
    """One revise/composition step.

    ``target`` is (k, m) for arc steps (domain of X_k, through X_m) and
    (i, k, j) for path steps (entry (i, j), through X_k).  ``temp`` is the
    intersection before the clamp; ``clamped`` is True when the clamp turned
    a nonempty ``temp`` into an empty ``new``.
    """

    alg: str
    target: Tuple[int, ...]
    old: IntervalUnion
    temp: IntervalUnion
    new: IntervalUnion
    clamped: bool
    changed: bool


def format_trace_line(entry: TraceEntry) -> str:
    target = "(" + ",".join(str(t) for t in entry.target) + ")"
    return "\t".join(
        (
            entry.alg,
            target,
            format_union(entry.old),
            format_union(entry.temp),
            format_union(entry.new),
        )
    )


Trace = List[TraceEntry]
_Pair = Tuple[int, int]
_Triple = Tuple[int, int, int]


def _informative(label: IntervalUnion) -> bool:
    return not label.is_universal()


class _Run:
    """Shared mutable state of one algorithm invocation."""

    __slots__ = ("net", "alg", "weak", "clamp", "budget", "trace", "bounds",
                 "revise_calls", "domain_updates")

    def __init__(
        self,
        net: Tcsp,
        alg: str,
        *,
        weak: bool = False,
        clamp: bool = True,
        budget: Optional[int] = None,
        trace: Optional[Trace] = None,
        bounds: Optional[PathBounds] = None,
    ):
        self.net = net
        self.alg = alg
        self.weak = weak
        self.clamp = clamp
        self.budget = budget
        self.trace = trace
        # The band of elementary-path weights is computed once, up front,
        # and held fixed for the entire run.
        self.bounds = bounds if bounds is not None else (path_bounds(net) if clamp else None)
        self.revise_calls = 0
        self.domain_updates = 0

    def out_of_budget(self) -> bool:
        return self.budget is not None and self.revise_calls >= self.budget

    def report(self, outcome: Outcome) -> RunReport:
        return RunReport(outcome, self.revise_calls, self.domain_updates)

    def _clamp_to_empty(self, temp: IntervalUnion) -> bool:
        """True when either endpoint weight of temp sinks below path_lb."""
        lb = self.bounds.path_lb
        return w_less(down_weight(temp), lb) or w_less(up_weight(temp), lb)

    def revise_domain(self, k: int, m: int) -> bool:
        """Tighten the binarized domain of X_k through its constraint with X_m."""
        self.revise_calls += 1
        grid = self.net.m
        old = grid[0][k]
        if self.weak:
            temp = old & grid[0][m].weak_compose(grid[m][k])
        else:
            temp = old & grid[0][m].compose(grid[m][k])
        clamped = False
        new = temp
        if self.clamp and temp != old and not temp.is_empty() and self._clamp_to_empty(temp):
            new = IntervalUnion.empty()
            clamped = True
        changed = new != old
        if changed:
            self.net.set_pair(0, k, new)
            self.domain_updates += 1
        if self.trace is not None:
            self.trace.append(TraceEntry(self.alg, (k, m), old, temp, new, clamped, changed))
        return changed

    def revise_entry(self, i: int, k: int, j: int) -> bool:
        """Tighten entry (i, j) through the path over X_k; mirrors the write."""
        self.revise_calls += 1
        grid = self.net.m
        old = grid[i][j]
        temp = old & grid[i][k].compose(grid[k][j])
        clamped = False
        new = temp
        if self.clamp and temp != old and not temp.is_empty() and self._clamp_to_empty(temp):
            new = IntervalUnion.empty()
            clamped = True
        changed = new != old
        if changed:
            self.net.set_pair(i, j, new)
            self.domain_updates += 1
        if self.trace is not None:
            self.trace.append(TraceEntry(self.alg, (i, k, j), old, temp, new, clamped, changed))
        return changed


def revise(
    net: Tcsp,
    k: int,
    m: int,
    *,
    weak: bool = False,
    clamp: bool = True,
    bounds: Optional[PathBounds] = None,
    trace: Optional[Trace] = None,
) -> bool:
    """One arc step on its own: returns whether the domain of X_k changed."""
    run = _Run(net, "revise", weak=weak, clamp=clamp, trace=trace, bounds=bounds)
    return run.revise_domain(k, m)


def _mask_pairs(net: Tcsp) -> List[_Pair]:
    """Both orientations of every explicitly constrained pair off the origin."""
    pairs = []
    for group in net.constraint_mask:
        a, b = sorted(group)
        if a >= 1:
            pairs.append((a, b))
            pairs.append((b, a))
    pairs.sort()
    return pairs


def _bdac3(
    net: Tcsp,
    *,
    weak: bool,
    clamp: bool,
    budget: Optional[int],
    lifo: bool,
    trace: Optional[Trace],
    alg: str,
) -> RunReport:
    if first_empty_entry(net) is not None:
        return RunReport(Outcome.EMPTY_DOMAIN, 0, 0)
    run = _Run(net, alg, weak=weak, clamp=clamp, budget=budget, trace=trace)
    seed = _mask_pairs(net)
    queue = deque(seed)
    queued = set(seed)
    mask = net.constraint_mask
    while queue:
        if run.out_of_budget():
            return run.report(Outcome.BUDGET_EXHAUSTED)
        pair = queue.pop() if lifo else queue.popleft()
        queued.discard(pair)
        k, m = pair
        if run.revise_domain(k, m):
            if net.m[0][k].is_empty():
                return run.report(Outcome.EMPTY_DOMAIN)
            for i in range(1, net.n_vars + 1):
                if i == k or i == m:
                    continue
                if frozenset((i, k)) in mask and (i, k) not in queued:
                    queue.append((i, k))
                    queued.add((i, k))
    return run.report(Outcome.CONSISTENT)


def bdac3(net: Tcsp, *, lifo: bool = False, trace: Optional[Trace] = None) -> RunReport:
    """Worklist arc pass over the binarized domains, clamped, full-strength composition.

    FIFO is the canonical queue discipline; ``lifo=True`` flips it (the
    fixpoint is the same, the trace is not).
    """
    return _bdac3(net, weak=False, clamp=True, budget=None, lifo=lifo, trace=trace, alg="bdac3")


def wbdac3(net: Tcsp, *, lifo: bool = False, trace: Optional[Trace] = None) -> RunReport:
    """Like bdac3 but composing convex closures, so domains stay convex-ish cheap."""
    return _bdac3(net, weak=True, clamp=True, budget=None, lifo=lifo, trace=trace, alg="wbdac3")


def _bdac1(
    net: Tcsp,
    *,
    clamp: bool,
    budget: Optional[int],
    order: Optional[Sequence[_Pair]],
    trace: Optional[Trace],
    alg: str,
) -> RunReport:
    if first_empty_entry(net) is not None:
        return RunReport(Outcome.EMPTY_DOMAIN, 0, 0)
    if order is None:
        pairs = _mask_pairs(net)
    else:
        pairs = [(int(k), int(m)) for k, m in order]
        for k, m in pairs:
            net._check(k, m)
            if k < 1 or m < 1 or k == m or frozenset((k, m)) not in net.constraint_mask:
                raise ValueError(f"({k}, {m}) is not a constrained off-origin pair")
        # a pass must visit every ordered pair exactly once, or the quiet-pass
        # termination test would be unsound
        if sorted(pairs) != _mask_pairs(net):
            raise ValueError("order must be a permutation of the constrained ordered pairs")
    run = _Run(net, alg, clamp=clamp, budget=budget, trace=trace)
    while True:
        changed_any = False
        for k, m in pairs:
            if run.out_of_budget():
                return run.report(Outcome.BUDGET_EXHAUSTED)
            if run.revise_domain(k, m):
                changed_any = True
                if net.m[0][k].is_empty():
                    return run.report(Outcome.EMPTY_DOMAIN)
        if not changed_any:
            return run.report(Outcome.CONSISTENT)


def bdac1(
    net: Tcsp, *, order: Optional[Sequence[_Pair]] = None, trace: Optional[Trace] = None
) -> RunReport:
    """Round-robin arc passes in a fixed pair order until a pass changes nothing.

    The default order is both orientations of the constrained pairs,
    lexicographically; an explicit ``order`` must list such pairs.
    An empty domain stops the run mid-pass.
    """
    return _bdac1(net, clamp=True, budget=None, order=order, trace=trace, alg="bdac1")


def _pc1(net: Tcsp, *, trace: Optional[Trace], alg: str = "pc1") -> RunReport:
    if first_empty_entry(net) is not None:
        return RunReport(Outcome.EMPTY_DOMAIN, 0, 0)
    run = _Run(net, alg, clamp=False, trace=trace)
    grid = net.m
    size = net.n_vars + 1
    while True:
        changed_any = False
        for k in range(size):
            for i in range(size):
                row = grid[i]
                leg = row[k]
                for j in range(size):
                    run.revise_calls += 1
                    old = row[j]
                    temp = old & leg.compose(grid[k][j])
                    if temp.is_empty():
                        # inconsistency: report without writing the entry
                        if trace is not None:
                            trace.append(
                                TraceEntry(alg, (i, k, j), old, temp, old, False, False)
                            )
                        return run.report(Outcome.EMPTY_DOMAIN)
                    changed = temp != old
                    if changed:
                        # deliberately no mirror write: the sweep itself
                        # restores the converse entry before k advances
                        row[j] = temp
                        run.domain_updates += 1
                        changed_any = True
                    if trace is not None:
                        trace.append(
                            TraceEntry(alg, (i, k, j), old, temp, temp, False, changed)
                        )
        if not changed_any:
            return run.report(Outcome.CONSISTENT)


def pc1(net: Tcsp, *, trace: Optional[Trace] = None) -> RunReport:
    """Full path-consistency sweeps (every (i, k, j), diagonal included) to fixpoint.

    No clamp: composition through every triangle either converges or proves
    an empty entry.  The i == j steps are where inconsistency surfaces, since
    the diagonal is pinned at {0}.
    """
    return _pc1(net, trace=trace)


def _pc2(
    net: Tcsp,
    *,
    clamp: bool,
    budget: Optional[int],
    select: Optional[Callable[[Tuple[_Triple, ...]], _Triple]],
    trace: Optional[Trace],
    alg: str,
) -> RunReport:
    if first_empty_entry(net) is not None:
        return RunReport(Outcome.EMPTY_DOMAIN, 0, 0)
    run = _Run(net, alg, clamp=clamp, budget=budget, trace=trace)
    grid = net.m
    size = net.n_vars + 1
    pending: dict[_Triple, None] = {}
    for i in range(size):
        for j in range(i + 1, size):
            for k in range(size):
                if k != i and k != j and _informative(grid[i][k]) and _informative(grid[k][j]):
                    pending[(i, k, j)] = None
    # seed in lexicographic order regardless of discovery order above
    pending = dict.fromkeys(sorted(pending))
    while pending:
        if run.out_of_budget():
            return run.report(Outcome.BUDGET_EXHAUSTED)
        if select is None:
            triple = next(iter(pending))
        else:
            triple = select(tuple(pending))
            if triple not in pending:
                raise ValueError(f"select returned {triple!r}, which is not pending")
        del pending[triple]
        i, k, j = triple
        if run.revise_entry(i, k, j):
            if grid[i][j].is_empty():
                return run.report(Outcome.EMPTY_DOMAIN)
            # paths that run through the tightened pair, targets canonical;
            # the write changed both orientations, so legs reading the
            # mirror (j, i) went stale too -- all four patterns re-enter
            for m in range(size):
                if m > i and m != j and _informative(grid[j][m]):
                    pending.setdefault((i, j, m), None)
            for m in range(size):
                if m < j and m != i and _informative(grid[m][i]):
                    pending.setdefault((m, i, j), None)
            for m in range(size):
                if m > j and _informative(grid[i][m]):
                    pending.setdefault((j, i, m), None)
            for m in range(size):
                if m < i and _informative(grid[m][j]):
                    pending.setdefault((m, j, i), None)
    return run.report(Outcome.CONSISTENT)


def pc2(
    net: Tcsp,
    *,
    select: Optional[Callable[[Tuple[_Triple, ...]], _Triple]] = None,
    trace: Optional[Trace] = None,
) -> RunReport:
    """Worklist path consistency over informative triples, clamped.

    The queue holds triples (i, k, j) with i < j; by default the oldest
    pending triple runs next, but ``select`` may pick any pending one (it
    gets the pending tuple and must return a member).
    """
    return _pc2(net, clamp=True, budget=None, select=select, trace=trace, alg="pc2")


def minus_variant(
    alg: str,
    net: Tcsp,
    *,
    budget: int = 10000,
    lifo: bool = False,
    order: Optional[Sequence[_Pair]] = None,
    select: Optional[Callable[[Tuple[_Triple, ...]], _Triple]] = None,
    trace: Optional[Trace] = None,
) -> RunReport:
    """Run bdac3/bdac1/pc2 with the clamp removed, under a hard call budget.

    Exists for exhibiting divergence; the budget is checked before each
    revise, so an exhausted run reports exactly ``budget`` calls.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    base = alg[:-6] if alg.endswith("-minus") else alg
    if base == "bdac3":
        return _bdac3(net, weak=False, clamp=False, budget=budget, lifo=lifo,
                      trace=trace, alg="bdac3-minus")
    if base == "bdac1":
        return _bdac1(net, clamp=False, budget=budget, order=order,
                      trace=trace, alg="bdac1-minus")
    if base == "pc2":
        return _pc2(net, clamp=False, budget=budget, select=select,
                    trace=trace, alg="pc2-minus")
    raise ValueError(f"no minus variant for {alg!r}")


def is_bd_arc_consistent(net: Tcsp) -> bool:
    """Is every binarized domain supported through every explicit constraint?"""
    for group in net.constraint_mask:
        a, b = sorted(group)
        if a < 1:
            continue
        for k, m in ((a, b), (b, a)):
            if not net.m[0][k].issubset(net.m[0][m].compose(net.m[m][k])):
                return False
    return True

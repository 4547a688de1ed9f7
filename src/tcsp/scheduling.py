"""A small exact job-shop scheduler on top of the network machinery.

Tasks are numbered 1..n and task t's start time is variable X_t, with X0
the time origin.  Release/due windows become binarized-domain constraints,
precedences become one-sided difference constraints, and a disjunction
(two tasks sharing a resource) becomes the two-piece label "one of us runs
first".  Branch and bound resolves disjunctions one at a time, propagating
with the full-strength arc pass at every node.  Two completion bounds are
read off the domain lower ends (the earliest starts): ``olb``, the latest
earliest start plus duration, and ``head_bound``, the head bound of Carlier
and Pinson, which also uses that tasks which may not overlap run one after
another: per clique of a cover of the non-overlap graph, the latest t plus
the total duration of the clique's tasks with earliest start >= t.  Their
maximum prunes; at a leaf it equals ``olb`` and certifies the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    EmptyLabel,
    InvalidInstance,
    MalformedDomain,
    NetworkFormatError,
)
from .graph import MAX_VERTICES
from .intervals import (
    _CLOSED_ZERO, Interval, IntervalUnion, RatLike, _exact, _parse_rational, as_rational,
)
from .network import Tcsp, _json_object, build_tcsp, check_solution
from .propagation import Outcome, bdac3


@dataclass(frozen=True)
class Task:
    """duration > 0; optional release (earliest start) and due (latest end)."""

    duration: Fraction
    release: Optional[Fraction] = None
    due: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "duration", as_rational(self.duration))
        if self.release is not None:
            object.__setattr__(self, "release", as_rational(self.release))
        if self.due is not None:
            object.__setattr__(self, "due", as_rational(self.due))


@dataclass(frozen=True)
class SchedulingInstance:
    """Tasks plus 1-based (before, after) precedences and unordered disjunctions."""

    tasks: Tuple[Task, ...]
    precedences: Tuple[Tuple[int, int], ...] = ()
    disjunctions: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Schedule:
    start_times: Tuple[Fraction, ...]
    makespan: Fraction
    latency: Fraction


def _checked_pair(a, b, n: int, kind: str) -> Tuple[int, int]:
    for t in (a, b):
        if isinstance(t, bool) or not isinstance(t, int) or not (1 <= t <= n):
            raise InvalidInstance(f"{kind} ({a}, {b}): task numbers must be in 1..{n}")
    if a == b:
        raise InvalidInstance(f"{kind} ({a}, {b}): a task cannot pair with itself")
    return (a, b)


def compile_instance(inst: SchedulingInstance) -> Tcsp:
    """Translate an instance into its constraint network.

    Raises InvalidInstance for structural nonsense (nonpositive duration,
    negative release, empty start window, bad task numbers).  Contradictory
    difference constraints surface as EmptyLabel from the network builder.
    """
    n = len(inst.tasks)
    if n == 0:
        raise InvalidInstance("an instance needs at least one task")
    constraints = []
    for number, task in enumerate(inst.tasks, 1):
        d = task.duration
        if d <= 0:
            raise InvalidInstance(f"task {number}: duration must be positive")
        lo = task.release if task.release is not None else Fraction(0)
        if lo < 0:
            raise InvalidInstance(f"task {number}: release must be >= 0")
        if task.due is not None:
            hi = task.due - d
            if hi < lo:
                raise InvalidInstance(
                    f"task {number}: no start time fits between release and due"
                )
            window = IntervalUnion.span(lo, hi)
        else:
            window = IntervalUnion.span(lo, None, True, False)
        constraints.append((0, number, window))
    for a, b in inst.precedences:
        a, b = _checked_pair(a, b, n, "precedence")
        gap = inst.tasks[a - 1].duration
        constraints.append((a, b, IntervalUnion.span(gap, None, True, False)))
    for a, b in inst.disjunctions:
        a, b = _checked_pair(a, b, n, "disjunction")
        d_a = inst.tasks[a - 1].duration
        d_b = inst.tasks[b - 1].duration
        either_order = IntervalUnion(
            (Interval(None, -d_b, False, True), Interval(d_a, None, True, False))
        )
        constraints.append((a, b, either_order))
    return build_tcsp(n, constraints)


def olb(net: Tcsp, durations: Sequence[RatLike]) -> Fraction:
    """Completion lower bound: the latest of (earliest start + duration).

    Every solution starts each task at or after its domain's lower bound, so
    the latest (lower bound + duration) under-approximates every makespan.
    Domains may be fragmented; only the lowest piece matters, and it must
    have a closed finite lower endpoint -- anything else raises
    MalformedDomain.
    """
    if len(durations) != net.n_vars:
        raise DimensionMismatch(
            f"expected {net.n_vars} durations, got {len(durations)}"
        )
    if net.n_vars == 0:
        raise InvalidInstance("no tasks to bound")
    best = None
    for i in range(1, net.n_vars + 1):
        duration = _exact(durations[i - 1])
        if duration <= 0:
            raise InvalidInstance(f"task {i} needs a positive duration")
        finish = _earliest_start(net, i) + duration
        if best is None or finish > best:
            best = finish
    return Fraction(best)


def _earliest_start(net: Tcsp, i: int):
    """The lower end of task i's domain, in the kernel's exact form; it must
    be closed and finite, or MalformedDomain is raised."""
    parts = net.m[0][i].parts
    if not parts or parts[0]._down is None or not parts[0]._down[1]:
        raise MalformedDomain(f"domain of task {i} needs a closed finite lower endpoint")
    return -parts[0]._down[0]


def clique_cover(inst: SchedulingInstance) -> Tuple[Tuple[int, ...], ...]:
    """Cliques of two or more tasks that together cover the non-overlap graph.

    Two tasks may not overlap when they share a disjunction or a precedence.
    Each task not yet covered seeds a clique, which then takes, in task
    order, every task that may overlap none of its members.  The cover is
    deterministic; a task left alone is omitted, since ``olb`` already
    bounds it.
    """
    n = len(inst.tasks)
    apart: List[set] = [set() for _ in range(n + 1)]
    for kind, pairs in (("precedence", inst.precedences), ("disjunction", inst.disjunctions)):
        for a, b in pairs:
            a, b = _checked_pair(a, b, n, kind)
            apart[a].add(b)
            apart[b].add(a)
    cliques = []
    covered = set()
    for seed in range(1, n + 1):
        if seed in covered:
            continue
        clique = [seed]
        for t in range(1, n + 1):
            if all(t in apart[c] for c in clique):
                clique.append(t)
        covered.update(clique)
        if len(clique) > 1:
            cliques.append(tuple(sorted(clique)))
    return tuple(cliques)


def head_bound(
    net: Tcsp, durations: Sequence[RatLike], cliques: Sequence[Sequence[int]]
) -> Fraction:
    """Completion lower bound from tasks that run one after another.

    The tasks of a clique may not overlap, and each starts no earlier than
    its earliest start est_i (the lower end of its domain), so those with
    est_i >= t finish no earlier than t plus their total duration.  The
    bound is the largest such value over every clique and every t in its
    earliest starts, or 0 when there is no clique.  It never decreases as
    earliest starts rise, and when starting every task at its earliest
    start is a schedule it is at most that schedule's makespan, ``olb``.
    Like ``olb`` it raises MalformedDomain unless every domain it reads has
    a closed finite lower endpoint.
    """
    best = 0
    for clique in cliques:
        est = {i: _earliest_start(net, i) for i in clique}
        tail = 0
        for i in sorted(clique, key=est.__getitem__, reverse=True):
            tail += _exact(durations[i - 1])
            if est[i] + tail > best:
                best = est[i] + tail
    return Fraction(best)


def _closure_violation(net: Tcsp) -> Optional[str]:
    """Check the label forms the scheduler relies on; None when all is well.

    A bounded window composed with a disjunction can fragment a binarized
    domain, so domains may hold several pieces -- but every piece must keep
    closed finite ends (an open or unreachable earliest start would make the
    lower-bound schedule unattainable) and the earliest start must be at or
    after 0.  Every constrained inter-task entry must be (-inf,a] with a<0,
    [b,+inf) with b>0, or the union of both.
    """
    for i in range(1, net.n_vars + 1):
        domain = net.m[0][i]
        if domain.is_empty():
            return f"domain of task {i} is empty"
        for p in domain.parts:
            if p._down is None or not p._down[1]:
                return f"domain of task {i} lost a closed start: {domain}"
            if p._up is not None and not p._up[1]:
                return f"domain of task {i} has an open upper end: {domain}"
        if domain.parts[0]._down > _CLOSED_ZERO:  # its closed start lo has -lo > 0
            return f"domain of task {i} starts before the origin: {domain}"
    for i in range(1, net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            label = net.m[i][j]
            if label.is_universal():
                continue
            parts = label.parts
            before = after = None
            if len(parts) == 1:
                if parts[0]._down is None:
                    before = parts[0]
                else:
                    after = parts[0]
            elif len(parts) == 2:
                before, after = parts
            else:
                return f"entry ({i}, {j}) has {len(parts)} pieces: {label}"
            # (-inf,a] with a < 0 has the closed upper bound (a, True) below
            # (0, True), and [b,+inf) with b > 0 the closed lower bound (-b, True)
            if before is not None and not (
                before._down is None and before._up is not None
                and before._up[1] and before._up < _CLOSED_ZERO
            ):
                return f"entry ({i}, {j}) is not in ordering form: {label}"
            if after is not None and not (
                after._up is None and after._down is not None
                and after._down[1] and after._down < _CLOSED_ZERO
            ):
                return f"entry ({i}, {j}) is not in ordering form: {label}"
    return None


def _pick_disjunction(net: Tcsp) -> Optional[Tuple[int, int]]:
    """Unresolved disjunction with the largest regret between its two orders.

    For entry (i, j) = (-inf,a] u [b,+inf), committing j-first makes i start
    no earlier than lo(X_j) - a while i-first makes j start no earlier than
    lo(X_i) + b; the gap between those two earliest continuations is the
    regret.  Ties fall to the lexicographically first pair.
    """
    best = None
    for i in range(1, net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            label = net.m[i][j]
            if label.is_convex():
                continue
            a = label.parts[0]._up[0]
            minus_b = label.parts[1]._down[0]
            j_first = -net.m[0][j].parts[0]._down[0] - a
            i_first = -net.m[0][i].parts[0]._down[0] - minus_b
            regret = abs(j_first - i_first)
            if best is None or regret > best[0]:
                best = (regret, (i, j))
    return None if best is None else best[1]


def optimum(inst: SchedulingInstance, *, node_check=None) -> Optional[Schedule]:
    """Minimum-makespan schedule, or None when the instance is infeasible.

    Depth-first branch and bound over the unresolved disjunctions.  A node
    is pruned when the larger of ``olb`` and ``head_bound`` (over one
    ``clique_cover`` of the instance, computed up front) reaches the best
    makespan found so far.  Both bounds hold for every schedule below the
    node, so only subtrees that cannot strictly improve are cut, and the
    first optimum found, the one returned, is the same as with ``olb`` alone.

    ``node_check``, when given, is called with the propagated network at
    every consistent search node before branching — an inspection hook for
    tests and instrumentation.  It must not mutate the network.
    """
    try:
        root = compile_instance(inst)
    except EmptyLabel:
        return None
    pristine = root.copy()
    durations = [task.duration for task in inst.tasks]
    cliques = clique_cover(inst)
    best: Optional[Fraction] = None  # the incumbent's makespan
    starts: Tuple[Fraction, ...] = ()  # and its start times

    # depth first over (parent, branched pair, piece, parent's bound); a
    # child is copied from its parent when popped and re-propagated only
    # from the arcs reading the pair it branched on
    stack: list = [(root, None, None, None)]
    while stack:
        net, changed, piece, inherited = stack.pop()
        if piece is not None:
            net = net.copy()
            net.set_pair(*changed, piece)
        if bdac3(net, changed=changed).outcome is not Outcome.CONSISTENT:
            continue
        trouble = _closure_violation(net)
        if trouble is not None:
            raise RuntimeError(f"scheduler label forms broke down: {trouble}")
        if node_check is not None:
            node_check(net)
        bound = max(olb(net, durations), head_bound(net, durations, cliques))
        if inherited is not None and bound < inherited:
            raise RuntimeError("completion bound decreased along a branch")
        if best is not None and best <= bound:
            continue  # cannot beat what we already have
        pair = _pick_disjunction(net)
        if pair is None:
            # every inter-task constraint is now one-sided, so after
            # filtering, starting each task at its earliest start satisfies
            # them all: that schedule's makespan is olb, head_bound cannot
            # exceed it, so the bound is attained and no solution here beats
            # it.  Composing with a one-sided label yields a half-line, so no
            # domain here is fragmented either
            best = bound
            starts = tuple(
                net.m[0][i].lower_bound()[0] for i in range(1, net.n_vars + 1)
            )
            continue
        i, j = pair
        # pushed last to first, so the (-inf, a] order is explored first
        for piece in reversed(net.m[i][j].convex_parts()):
            stack.append((net, pair, piece, bound))
    if best is None:
        return None
    duration, latency = schedule_metrics(starts, durations)
    if duration != best:
        raise RuntimeError("schedule metrics disagree with the search bound")
    if not check_solution(pristine, (Fraction(0),) + starts):
        raise RuntimeError("optimal schedule fails its own network")
    return Schedule(start_times=starts, makespan=best, latency=latency)


def schedule_metrics(
    start_times: Sequence[RatLike], durations: Sequence[RatLike]
) -> Tuple[Fraction, Fraction]:
    """(makespan, latency): latest completion and earliest start."""
    if len(start_times) != len(durations):
        raise DimensionMismatch(
            f"{len(start_times)} start times but {len(durations)} durations"
        )
    if not start_times:
        raise InvalidInstance("no tasks to measure")
    starts = [as_rational(s) for s in start_times]
    ends = [s + as_rational(d) for s, d in zip(starts, durations)]
    return (max(ends), min(starts))


# -- JSON instance form ---------------------------------------------------------
#
#   {
#     "tasks": [{"d": 3, "release": 0, "due": 10}, {"d": 2}],
#     "precedences": [[1, 2]],
#     "disjunctions": [[1, 3]]
#   }
#
# Task numbers are 1-based positions in the "tasks" list.  Numeric fields are
# integers or rational strings like "7/2"; floats are rejected to keep the
# arithmetic exact.


def _rational_field(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise NetworkFormatError(
            f"{where}: floats are not accepted, use integers or rational strings"
        )
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return as_rational(_parse_rational(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise NetworkFormatError(f"{where}: bad rational {value!r}: {exc}") from None
    raise NetworkFormatError(f"{where}: expected a number, got {type(value).__name__}")


def _pair_list(doc: dict, key: str) -> Tuple[Tuple[int, int], ...]:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise NetworkFormatError(f'"{key}" must be a list of [a, b] pairs')
    pairs = []
    for k, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or any(isinstance(t, bool) or not isinstance(t, int) for t in item)
        ):
            raise NetworkFormatError(f"{key}[{k}]: expected [a, b] with integer task numbers")
        pairs.append((item[0], item[1]))
    return tuple(pairs)


def instance_from_json(text: str) -> SchedulingInstance:
    doc = _json_object(text)
    raw_tasks = doc.get("tasks")
    if not isinstance(raw_tasks, list):
        raise NetworkFormatError('"tasks" must be a list')
    n = len(raw_tasks)
    if n + 1 > MAX_VERTICES:  # one variable per task, plus X0
        raise NetworkFormatError(f"{n} tasks exceed the limit of {MAX_VERTICES - 1}")
    tasks: List[Task] = []
    for k, item in enumerate(raw_tasks):
        where = f"tasks[{k}]"
        if not isinstance(item, dict):
            raise NetworkFormatError(f"{where}: must be an object")
        if "d" not in item:
            raise NetworkFormatError(f'{where}: missing duration field "d"')
        duration = _rational_field(item["d"], f'{where}.d')
        release = due = None
        if "release" in item and item["release"] is not None:
            release = _rational_field(item["release"], f"{where}.release")
        if "due" in item and item["due"] is not None:
            due = _rational_field(item["due"], f"{where}.due")
        tasks.append(Task(duration, release, due))
    return SchedulingInstance(
        tasks=tuple(tasks),
        precedences=_pair_list(doc, "precedences"),
        disjunctions=_pair_list(doc, "disjunctions"),
    )

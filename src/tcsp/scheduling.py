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
    Interval, IntervalUnion, RatLike, _exact, _parse_rational, as_rational,
)
from .network import Tcsp, _json_object, build_tcsp, check_solution
from .propagation import bdac3, refinements


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
    lengths = _durations(net, durations)
    if net.n_vars == 0:
        raise InvalidInstance("no tasks to bound")
    return Fraction(max(_earliest_start(net, i) + d for i, d in enumerate(lengths, 1)))


def _durations(net: Tcsp, durations: Sequence[RatLike]) -> list:
    """One duration per task, each positive, in the kernel's exact form;
    DimensionMismatch or InvalidInstance otherwise."""
    if len(durations) != net.n_vars:
        raise DimensionMismatch(f"expected {net.n_vars} durations, got {len(durations)}")
    lengths = [_exact(d) for d in durations]
    for i, duration in enumerate(lengths, 1):
        if duration <= 0:
            raise InvalidInstance(f"task {i} needs a positive duration")
    return lengths


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
    a closed finite lower endpoint, DimensionMismatch unless there is one
    duration per task, and InvalidInstance unless every duration is
    positive; also for a clique member that is not a task number (an int,
    not a bool, in 1..n), or a clique that names one twice.
    """
    n = net.n_vars
    lengths = _durations(net, durations)
    best = 0
    for clique in cliques:
        est = {}
        for i in clique:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 < i <= n:
                raise InvalidInstance(f"clique member {i!r} is not a task")
            est[i] = _earliest_start(net, i)
        if len(est) != len(clique):
            raise InvalidInstance(f"clique {tuple(clique)} names a task twice")
        tail = 0
        for i in sorted(clique, key=est.__getitem__, reverse=True):
            tail += lengths[i - 1]
            if est[i] + tail > best:
                best = est[i] + tail
    return Fraction(best)


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

    Branch and bound over the unresolved disjunctions, on the nodes of
    :func:`~tcsp.propagation.refinements` under bdac3.  A node is pruned
    when the larger of ``olb`` and ``head_bound`` (over one ``clique_cover``
    of the instance, computed up front) reaches the best makespan found so
    far.  Both bounds hold for every schedule below the
    node, so only subtrees that cannot strictly improve are cut, and the
    first optimum found, the one returned, is the same as with ``olb`` alone.

    Every node keeps the label forms that ``olb``, ``head_bound`` and
    ``_pick_disjunction`` read:

    * ``compile_instance`` builds each domain as [lo, hi] or [lo, +inf),
      closed, with lo >= 0, and each inter-task entry as [d, +inf),
      (-inf, -d] or their union, with d > 0.  ``build_tcsp`` intersects
      duplicate constraints, which gives one of these forms again or an
      empty label (EmptyLabel, and so None).
    * ``bdac3`` writes row 0 only.  A piece it writes is an old piece cut by
      the sum of a domain piece and a label piece.  Its lower end is the
      larger of the old piece's, closed and finite, and the sum's, closed
      or -inf: so it stays closed and finite, and never drops.  Its upper
      end is the smaller of two ends, each closed or +inf.
    * A child writes one convex piece of an entry in that form.

    So every domain piece is closed with a finite lower end, the earliest
    start is at least 0 and never drops along a branch, and neither does
    the bound, which rises with the earliest starts.  The same forms are
    why, at a leaf, starting every task at its earliest start meets every
    constraint.  The search ends with a certificate: the incumbent's
    makespan must equal the bound it was found at, and its start times
    must satisfy the compiled network.

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

    for net, branch in refinements(root, bdac3):
        if node_check is not None:
            node_check(net)
        bound = max(olb(net, durations), head_bound(net, durations, cliques))
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
        branch(pair)  # the (-inf, a] order first
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

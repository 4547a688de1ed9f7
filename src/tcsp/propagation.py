"""Local-consistency algorithms over constraint networks.

Two families operate in place on a :class:`~tcsp.network.Tcsp`:

* arc-style passes over the binarized domains -- ``bdac3``/``wbdac3``
  (worklist) and ``bdac1`` (round-robin) -- which only ever rewrite row 0;
* path-style passes -- ``pc1`` (full sweeps) and ``pc2`` (worklist) --
  which tighten arbitrary entries through composition.

Every step is a path step (i, k, j), narrowing entry (i, j) through X_k;
revising the domain of X_k through X_m is the step (0, m, k).  So every
pass but ``pc1``'s sweeps steps through one loop, ``_worklist``, and the
algorithms differ only in their seed and in the steps a write puts back on
the queue; a ``bdac1`` pass is a worklist of every arc, in its fixed order,
that puts nothing back.

The clamped variants cut any domain whose endpoint weights fall below the
path-derived lower bound of the network the run started on straight to
empty, which is what makes them terminate on inconsistent inputs with
unbounded labels; ``pc1`` needs no clamp.  An arc pass reads that bound
only at a write that walks a circuit: every end it writes weighs as a walk
from X0 in the run-start network, a write on one-piece labels that extends
a walk without repeating a variable is an elementary path, which weighs at
least the bound, and so skips the check (see ``_Run``).  ``minus_variant``
re-runs an algorithm without the clamp under a hard call budget; that is
how the divergence the clamp prevents is made observable in tests.

Every step narrows its entry through one kernel,
:func:`~tcsp.intervals.narrow` (``old & x.compose(y)``, handing back
``old`` itself when nothing narrows), except in untraced runs over bounds,
where a step is a pair of minima.  One run state, ``_Run``, holds those
bounds, two vectors of domain bounds for the arc passes on one-piece
domains or the matrix of the labels' bounds for ``pc1`` and ``pc2`` on an
STP, and steps each through its own kernel, with the counts and the
network a run over labels ends with.  Every arc pass, over bounds or
labels, holds row 0 and writes each moved domain once, when the run ends,
or at once where a step empties it, which ends the run; so it reads the
floor off the network it started on.  A run may span several worklists,
and its engine ends it: ``bdac1``'s passes are one run, and so are
extraction's pins, unclamped, which write the network once, when the last
pin ends or one empties a domain (see ``_pin_in_turn``).  Every step can
be recorded: pass a list as ``trace=`` and one :class:`TraceEntry` per call
is appended.

:func:`refinements` is the depth-first loop of the solver's and the
scheduler's searches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .intervals import (
    _CLOSED_ZERO,
    Bound,
    IntervalUnion,
    _add,
    _exact,
    _nonempty,
    _piece,
    _plus,
    _union,
    format_union,
    narrow,
)
from .network import Tcsp, first_empty_entry, is_stp, path_bounds


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


def _certify(walks: dict, k: int, j: int, down_moved: bool, up_moved: bool) -> bool:
    """Do the moved ends of arc step (0, k, j) extend walks without X_j?  If
    so, records them in ``walks`` (see ``_Run``)."""
    bit = 1 << j
    down, up = walks.get(j) or (1 | bit, 1 | bit)
    via_down, via_up = walks.get(k) or (1 | 1 << k, 1 | 1 << k)
    if down_moved:
        if via_down & bit:
            return False
        down = via_down | bit
    if up_moved:
        if via_up & bit:
            return False
        up = via_up | bit
    walks[j] = (down, up)
    return True


def _times(value: Union[int, Fraction], scale: int) -> Union[int, Fraction]:
    """``value`` times ``scale``: an int when ``value``'s denominator divides it."""
    if scale == 1:
        return value
    if type(value) is int:
        return value * scale
    whole, rest = divmod(scale, value.denominator)
    return value * scale if rest else value.numerator * whole


def _scaled(bounds: List[Bound], scale: int) -> List[Bound]:
    """Each bound's value times ``scale``, a multiple of its denominator: an int."""
    return [b if b is None else (
        b[0] * scale if type(b[0]) is int else _times(b[0], scale), b[1]) for b in bounds]


def _unscaled(bound: Bound, scale: int) -> Bound:
    """``bound``'s value divided by ``scale``, in the kernel's exact form."""
    if bound is None or scale == 1:
        return bound
    value = bound[0]
    if type(value) is int and not value % scale:
        return (value // scale, bound[1])
    return (_exact(Fraction(value, scale)), bound[1])


class _Run:
    """Shared mutable state of one algorithm invocation.

    With ``arcs`` a step (0, m, k) is traced as the arc (k, m).  ``floor``
    is path_lb, as a (value, closed) bound, of the network the run started
    on.  It is read at the first clamp check that no walk certifies; a run
    whose checks are all certified never reads it.

    The walk certificate (arc passes, which write row 0 only): the upper
    end an arc step (0, k, j) writes is an upper end of X_k's domain plus a
    piece end of (k, j), so by induction it weighs as a walk X0 -> ... ->
    X_k -> X_j of the run-start network's distance graph, and a lower end
    as the same walk reversed.  ``walks[j]`` holds the bitmasks of the
    variables on the walks behind X_j's lower and upper end; a domain not
    yet written has the edge X0 -- X_j behind both.  While the floor is
    unread, a step on one-piece labels (``old``, X_k's domain and ``temp``)
    whose every moved end extends a walk without X_j writes elementary
    walks only.  An elementary walk uses at most n edges, one per pair, so
    it weighs at least path_lb: the check would pass, and is skipped.  Every
    other step is checked.  A walk that repeats X_j is an earlier walk to
    X_j, no lower than X_j's end, plus a circuit, so it narrows only through
    a circuit below ``(0, True)``.

    An untraced run steps over bounds where its labels allow, through one of
    two kernels, each a pair of minima with ``_add`` inlined: ``revise``
    while an arc pass holds ``down[j]`` and ``up[j]``, the ends of X_j's
    domain (all one piece), and ``_path_step`` while pc1 or pc2 on an STP
    (``stp``, tested by the caller) holds ``w``, the labels' bounds,
    ``w[i][j]`` the edge i -> j.  An arc step reads its label's ends from
    ``net.m``, which an arc pass never writes, the hull ends under ``weak``.
    Domain bounds, and each label end an arc step reads, are held times
    ``scale``, the lcm of the row's denominators, so domains pinned to
    Fraction midpoints step as ints.  Scaling every weight by one positive
    int keeps each sum exact and each comparison and sign as it was, so the
    steps, certificates and clamp decisions are those of the unscaled run;
    ``floor`` stays unscaled.  At a label that could leave a domain in
    pieces (more than one piece, under full strength) or empty (none), an
    arc pass leaves its bounds for ``row``, row 0 as the bounds stand, and
    goes on over labels; a traced arc pass, or one that starts on a domain
    of more than one piece, holds ``row`` from the start.

    The write rule: ``moved`` keys what moved, j or (i, j) with i < j, for
    ``write_back`` to write from the bounds or ``row`` when the run ends; a
    step that empties an entry writes it at once, and the run ends there.
    So an arc pass, or a run over an STP's bounds, leaves the network as it
    began until it ends, and ``_below_floor``, called at a narrowing write
    only, reads the floor off it.  pc2 over labels writes each step at once,
    as later steps read it as a leg, and reads the floor before that write;
    pc1's label sweep writes m[i][j] alone, which ``write_back`` mirrors.

    A run may span several worklists, and its engine ends it, once, with
    ``end``: bdac1's passes, and extraction's pins (:meth:`pin`), keep the
    bounds, ``scale`` and ``moved`` from one worklist to the next.
    """

    __slots__ = ("net", "alg", "weak", "clamp", "budget", "trace", "arcs", "floor", "walks",
                 "revise_calls", "domain_updates", "down", "up", "w", "row", "moved", "scale")

    def __init__(self, net: Tcsp, alg: str, *, weak: bool = False, clamp: bool = True,
                 budget: Optional[int] = None, trace: Optional[Trace] = None,
                 arcs: bool = False, stp: bool = False):
        self.net, self.alg, self.trace, self.arcs = net, alg, trace, arcs
        self.weak, self.clamp, self.budget = weak, clamp, budget
        self.floor, self.walks = None, {}
        self.revise_calls = self.domain_updates = 0
        self.down = self.w = self.row = None
        self.moved, self.scale = {}, 1
        if arcs and trace is None:
            down, up = [], []
            for label in net.m[0]:
                parts = label.parts
                if len(parts) != 1:
                    break
                down.append(parts[0]._down)
                up.append(parts[0]._up)
            else:
                # an int's denominator is 1
                scale = lcm(*{b[0].denominator for b in down + up if b is not None})
                if scale != 1:
                    down, up = _scaled(down, scale), _scaled(up, scale)
                self.down, self.up, self.scale = down, up, scale
        elif stp:
            self.w = [[label.parts[0]._up for label in row] for row in net.m]
        if arcs and self.down is None:
            self.row = net.m[0][:]

    def _row(self) -> List[IntervalUnion]:
        """Row 0 with each moved domain built from the scaled bounds the run holds."""
        row, scale, down, up = self.net.m[0][:], self.scale, self.down, self.up
        for j in self.moved:
            row[j] = _union((_piece(_unscaled(down[j], scale), _unscaled(up[j], scale)),))
        return row

    def _leave_bounds(self) -> None:
        """Go on over labels: hold row 0 as the bounds stand, at scale 1."""
        self.row, self.down, self.scale = self._row(), None, 1

    def write_back(self) -> None:
        """Write each entry that moved, from the bounds or labels the run holds."""
        net, w = self.net, self.w
        if self.arcs:
            row = self.row if self.down is None else self._row()
            for j in self.moved:
                net.set_pair(0, j, row[j])
            return
        for i, j in self.moved:  # (i, j) with i < j: the upper triangle is current
            net.set_pair(i, j, net.m[i][j] if w is None else _union((_piece(w[j][i], w[i][j]),)))

    def end(self, outcome: Outcome) -> RunReport:
        self.write_back()
        return RunReport(outcome, self.revise_calls, self.domain_updates)

    def pin(self, j: int, value: Union[int, Fraction]) -> None:
        """Hold X_j at ``value``.  A value whose denominator does not divide
        ``scale`` first rescales every bound to the lcm."""
        scale, denominator = self.scale, value.denominator
        if scale % denominator:
            factor = lcm(scale, denominator) // scale
            self.down, self.up = _scaled(self.down, factor), _scaled(self.up, factor)
            self.scale = scale = scale * factor
        v = value.numerator * (scale // denominator)
        self.down[j], self.up[j] = (-v, True), (v, True)
        self.moved[j] = None

    def _below_floor(self, down: Bound, up: Bound) -> bool:
        """Does either bound, held at ``scale``, sink below the floor?  A run
        reads the floor at its first call, off its still unwritten network."""
        floor = self.floor
        if floor is None:
            floor = self.floor = path_bounds(self.net).path_lb.bound
        if self.scale != 1:
            floor = (floor[0] * self.scale, floor[1])
        return (down is not None and down < floor) or (up is not None and up < floor)

    def _elementary(self, k: int, j: int, old: IntervalUnion, via: IntervalUnion,
                    temp: IntervalUnion) -> bool:
        """Does step (0, k, j) move only ends onto elementary walks?  If so, records them."""
        if not self.arcs or not len(old.parts) == len(via.parts) == len(temp.parts) == 1:
            return False
        o, t = old.parts[0], temp.parts[0]
        return _certify(self.walks, k, j, t._down != o._down, t._up != o._up)

    def revise(self, i: int, k: int, j: int) -> bool:
        """Step (i, k, j): narrow entry (i, j) by m[i][k] and m[k][j], mirrored."""
        downs = self.down
        if downs is not None:
            parts = self.net.m[k][j].parts
            if len(parts) != 1 and not (parts and self.weak):
                self._leave_bounds()
                downs = None
        if downs is not None:
            # arc step (0, k, j) over bounds: each end to the least of itself
            # and the legs' sum, as narrow takes it, with _add inlined and the
            # label's end times scale
            self.revise_calls += 1
            ups, scale = self.up, self.scale
            down = old_down = downs[j]
            leg, via = downs[k], parts[0]._down
            if leg is not None and via is not None:
                a, b = leg[0], via[0]
                path = (a + b * scale if type(a) is int is type(b) else _plus(a, _times(b, scale)),
                        leg[1] and via[1])
                if down is None or path < down:
                    down = path
            up = old_up = ups[j]
            leg, via = ups[k], parts[-1]._up
            if leg is not None and via is not None:
                a, b = leg[0], via[0]
                path = (a + b * scale if type(a) is int is type(b) else _plus(a, _times(b, scale)),
                        leg[1] and via[1])
                if up is None or path < up:
                    up = path
            if down is old_down and up is old_up:
                return False
            self.domain_updates += 1
            empty = not _nonempty(down, up)
            if not empty and self.clamp and (
                self.floor is not None
                or not _certify(self.walks, k, j, down is not old_down, up is not old_up)
            ):
                empty = self._below_floor(down, up)
            if empty:
                self.moved.pop(j, None)
                self.net.set_pair(0, j, IntervalUnion.empty())
            else:
                downs[j] = down
                ups[j] = up
                self.moved[j] = None
            return True
        self.revise_calls += 1
        grid, row = self.net.m, self.row
        if row is None:
            row = grid[i]
        old, via = row[j], row[k]
        temp = narrow(old, via, grid[k][j], self.weak)
        clamped = False
        new = temp
        if self.clamp and temp is not old and not temp.is_empty() and (
            self.floor is not None or not self._elementary(k, j, old, via, temp)
        ) and self._below_floor(temp.parts[0]._down, temp.parts[-1]._up):
            new = IntervalUnion.empty()
            clamped = True
        # narrow hands back old itself when nothing narrows
        changed = new is not old
        if changed:
            self.domain_updates += 1
            # pc2 writes each step at once, an arc pass only an emptied domain
            if row is grid[i] or new.is_empty():
                self.moved.pop(j, None)
                self.net.set_pair(i, j, new)
            else:
                row[j] = new
                self.moved[j] = None
        if self.trace is not None:
            target = (j, k) if self.arcs else (i, k, j)
            self.trace.append(TraceEntry(self.alg, target, old, temp, new, clamped, changed))
        return changed

    def _path_step(self, i: int, k: int, j: int) -> bool:
        """Step (i, k, j) over ``w``, as ``revise`` takes it on one-piece
        labels: each bound to the least of itself and the legs' sum."""
        self.revise_calls += 1
        w = self.w
        row_i, row_k, row_j = w[i], w[k], w[j]
        up = old_up = row_i[j]
        leg, via = row_i[k], row_k[j]
        if leg is not None and via is not None:
            a, b = leg[0], via[0]
            path = (a + b if type(a) is int is type(b) else _plus(a, b), leg[1] and via[1])
            if up is None or path < up:
                up = path
        down = old_down = row_j[i]
        leg, via = row_j[k], row_k[i]
        if leg is not None and via is not None:
            a, b = leg[0], via[0]
            path = (a + b if type(a) is int is type(b) else _plus(a, b), leg[1] and via[1])
            if down is None or path < down:
                down = path
        if up is old_up and down is old_down:
            return False
        self.domain_updates += 1
        empty = not _nonempty(down, up)
        if not empty and self.clamp:
            empty = self._below_floor(down, up)
        if empty:
            self.moved.pop((i, j), None)
            self.net.set_pair(i, j, IntervalUnion.empty())
        else:
            row_i[j] = up
            row_j[i] = down
            self.moved[i, j] = None
        return True


def revise(
    net: Tcsp, k: int, m: int, *, weak: bool = False, trace: Optional[Trace] = None
) -> bool:
    """One arc step on its own, k in 1..n: returns whether the domain of X_k changed."""
    net._check(k, m)
    if k == 0:
        raise ValueError(f"arc (0, {m}) revises X0, which has no binarized domain")
    run = _Run(net, "revise", weak=weak, trace=trace, arcs=True)
    changed = run.revise(0, m, k)
    run.write_back()
    return changed


def _worklist(
    run: _Run,
    seed: Sequence[_Triple],
    again: Callable[[int, int, int], List[_Triple]],
    *,
    lifo: bool = False,
    select: Optional[Callable[[Tuple[_Triple, ...]], _Triple]] = None,
) -> Outcome:
    """Run steps (i, k, j) from ``seed`` until none is pending, budget checked first.

    A step that empties entry (i, j) stops the loop; one that narrows it
    queues the steps of ``again(i, k, j)`` not yet pending.  The pending dict
    keeps insertion order, which ``select`` sees; the deque beside it makes a
    FIFO or LIFO pop O(1) (under ``select`` it has length 0 and drops pushes).
    A run over an STP's bounds steps through its path kernel.  The loop only
    steps: a run may span several worklists, and its engine ends it.
    """
    pending = dict.fromkeys(seed)
    queue = deque(pending, maxlen=None if select is None else 0)
    if select is None:
        pop = queue.pop if lifo else queue.popleft
    else:
        def pop() -> _Triple:
            step = select(tuple(pending))
            if step not in pending:
                raise ValueError(f"select returned {step!r}, which is not pending")
            return step
    revise = run.revise if run.w is None else run._path_step
    push, grid, budget = queue.append, run.net.m, run.budget
    while pending:
        if budget is not None and run.revise_calls >= budget:
            return Outcome.BUDGET_EXHAUSTED
        step = pop()
        del pending[step]
        i, k, j = step
        if revise(i, k, j):
            if grid[i][j].is_empty():
                return Outcome.EMPTY_DOMAIN
            for later in again(i, k, j):
                if later not in pending:
                    pending[later] = None
                    push(later)
    return Outcome.CONSISTENT


def _mask_pairs(net: Tcsp) -> List[_Pair]:
    """Both orientations of every constrained pair, sorted."""
    return [(a, b) for a in range(1, net.n_vars + 1) for b in net.neighbours[a]]


def _arcs_reading(net: Tcsp, changed: _Pair) -> List[_Triple]:
    """The constrained arcs whose revise reads entry ``changed`` (either way round).

    A binarized domain m[0][j] is read by every arc (k, j) into X_j; an
    inter-variable entry (i, j) by the arcs (i, j) and (j, i).  Arcs out of
    X_j read m[0][j] only as the domain being narrowed, and narrowing a
    supported domain leaves it supported, so they need no revisit.  Each arc
    (k, m) comes back as its step (0, m, k).
    """
    i, j = changed
    net._check(i, j)
    if i == j:
        raise ValueError("diagonal entries are fixed at {0}")
    i, j = min(i, j), max(i, j)
    if i == 0:
        return [(0, j, k) for k in net.neighbours[j]]
    return [(0, j, i), (0, i, j)] if j in net.neighbours[i] else []


def _bdac3(
    net: Tcsp,
    *,
    weak: bool = False,
    clamp: bool = True,
    budget: Optional[int] = None,
    lifo: bool = False,
    trace: Optional[Trace] = None,
    alg: str = "bdac3",
    changed: Optional[_Pair] = None,
) -> RunReport:
    if changed is None:
        if first_empty_entry(net) is not None:
            return RunReport(Outcome.EMPTY_DOMAIN, 0, 0)
        seed = [(0, m, k) for k, m in _mask_pairs(net)]
    else:
        seed = _arcs_reading(net, changed)
        if net.m[changed[0]][changed[1]].is_empty():
            return RunReport(Outcome.EMPTY_DOMAIN, 0, 0)

    run = _Run(net, alg, weak=weak, clamp=clamp, budget=budget, trace=trace, arcs=True)
    return run.end(_worklist(run, seed, _requeue(net.neighbours, weak), lifo=lifo))


def _requeue(neighbours: List[Tuple[int, ...]], weak: bool) -> Callable[..., List[_Triple]]:
    """The arc steps that a write to X_k through X_m puts back on the queue."""

    def again(_: int, m: int, k: int) -> List[_Triple]:
        # every arc (a, k) reads X_k; bdac3 skips the arc back (see wbdac3)
        return [(0, k, a) for a in neighbours[k] if a != m or weak]

    return again


def bdac3(
    net: Tcsp,
    *,
    lifo: bool = False,
    trace: Optional[Trace] = None,
    changed: Optional[_Pair] = None,
) -> RunReport:
    """Worklist arc pass over the binarized domains, clamped, full-strength composition.

    FIFO is the canonical queue discipline; ``lifo=True`` flips it (the
    fixpoint is the same, the trace is not).

    ``changed=(i, j)`` declares that ``net`` was at this pass's fixpoint
    before entry (i, j) was narrowed (in either orientation, by
    :meth:`~tcsp.network.Tcsp.set_pair`).  The run then seeds only the arcs
    whose revise reads that entry -- for i == 0 every constrained (k, j),
    otherwise (i, j) and (j, i) -- and ends with the same outcome, and when
    consistent the same domains, as a full seed, in fewer revise calls.
    The precondition also means that no entry other than (i, j) is empty:
    a run that ends CONSISTENT never writes an empty entry.  So a seeded run
    checks only the written entry, where a full run first scans the whole
    matrix for an empty one.  Without the precondition it may stop short of
    the fixpoint or miss an empty entry.  The default, None, seeds every
    constrained arc.

    Untraced, with every domain one piece, the run steps over two vectors of
    domain bounds scaled to ints, through ``_Run``'s arc kernel.  At a
    constraint label of more than one piece (or none) it goes on over
    labels, from the domains as the bounds stand.  Traced or not, the run
    holds row 0 and writes each moved domain once, when it ends, whatever
    the outcome, or at once where a step empties it.  Either way the counts,
    the clamp's decisions and the final network are those of a traced run.
    """
    return _bdac3(net, lifo=lifo, trace=trace, changed=changed)


def wbdac3(
    net: Tcsp,
    *,
    lifo: bool = False,
    trace: Optional[Trace] = None,
    changed: Optional[_Pair] = None,
) -> RunReport:
    """Like bdac3 but composing convex closures, so domains stay convex-ish cheap.

    A narrowed X_k puts back every arc reading it, the arc back (m, k)
    included: bdac3's skip of that arc is exact for full composition, not
    for hulls, where the step can shrink the hull that alone supports a
    value of X_m.  So a run that ends CONSISTENT ends at the wbdac3
    fixpoint: a step is ``X_k & H``, with H fixed while X_m is (an arc pass
    writes no constraint label); every arc (k, m) ran after X_m's last
    write, and later writes only narrow X_k inside that H.  The steps are
    monotone narrowings, so this is the greatest fixpoint below the
    run-start network, whatever the queue order.  On an all-convex network,
    row 0 included, hull composition is composition, so it is the bdac3
    fixpoint: a bdac3 run from it changes nothing.  The clamp's termination
    argument does not depend on which arcs are queued.

    ``changed=(i, j)`` seeds only the arcs reading entry (i, j), with the
    precondition (the network ended a CONSISTENT wbdac3 run before (i, j)
    was narrowed) and the guarantee of :func:`bdac3`.

    Untraced, the run steps over domain bounds as :func:`bdac3` describes.
    A weak step reads a constraint label by its hull ends, as ``narrow``
    does, so it keeps a one-piece domain one piece whatever the label's
    pieces, and only an empty label sends the run over to labels.
    """
    return _bdac3(net, weak=True, lifo=lifo, trace=trace, alg="wbdac3", changed=changed)


def _pin_in_turn(
    net: Tcsp, pick: Callable[[Bound, Bound], Union[int, Fraction]]
) -> Tuple[RunReport, Optional[int]]:
    """Pin each X_t whose domain is not a point to ``pick(down, up)`` of its
    bounds, in index order, and re-propagate it as ``bdac3(net, changed=(0,
    t))`` would, each pin a worklist of one run, unclamped: ``net`` is a
    connected STP at the bdac3 fixpoint with no empty entry, where no pin's
    run needs the clamp (``solver.backtrack_free``'s lemma).  The run ends
    once, after the last pin or the first that empties a domain, and writes
    the network then.  Returns the pins' summed report and the variable
    whose pin emptied a domain, or None."""
    run = _Run(net, "bdac3", clamp=False, arcs=True)
    again = _requeue(net.neighbours, False)
    outcome, dead = Outcome.CONSISTENT, None
    for t in range(1, net.n_vars + 1):
        down, up = run.down[t], run.up[t]
        if _add(up, down) == _CLOSED_ZERO:
            continue  # X_t is already a point
        run.pin(t, pick(_unscaled(down, run.scale), _unscaled(up, run.scale)))
        outcome = _worklist(run, _arcs_reading(net, (0, t)), again)
        if outcome is not Outcome.CONSISTENT:
            dead = t
            break
    return run.end(outcome), dead


def _bdac1(
    net: Tcsp,
    *,
    clamp: bool = True,
    budget: Optional[int] = None,
    order: Optional[Sequence[_Pair]] = None,
    trace: Optional[Trace] = None,
    alg: str = "bdac1",
) -> RunReport:
    if first_empty_entry(net) is not None:
        return RunReport(Outcome.EMPTY_DOMAIN, 0, 0)
    if order is None:
        pairs = _mask_pairs(net)
    else:
        pairs = [(int(k), int(m)) for k, m in order]
        # a pass must visit every ordered pair exactly once, or the quiet-pass
        # termination test would be unsound
        if sorted(pairs) != _mask_pairs(net):
            raise ValueError("order must be a permutation of the constrained ordered pairs")
    run = _Run(net, alg, clamp=clamp, budget=budget, trace=trace, arcs=True)
    steps = [(0, m, k) for k, m in pairs]
    while True:  # a pass: every arc once, in order, none queued again
        updates = run.domain_updates
        outcome = _worklist(run, steps, lambda *step: [])
        if outcome is not Outcome.CONSISTENT or run.domain_updates == updates:
            return run.end(outcome)


def bdac1(
    net: Tcsp, *, order: Optional[Sequence[_Pair]] = None, trace: Optional[Trace] = None
) -> RunReport:
    """Round-robin arc passes in a fixed pair order until a pass changes nothing.

    The default order is both orientations of the constrained pairs,
    lexicographically; an explicit ``order`` must list such pairs.  Each
    pass is a worklist of those arcs in that order that puts no arc back, so
    the minus variant's budget is checked before every step, a pass's first
    included.  The passes make one run, which an empty domain stops
    mid-pass.  Untraced, the run steps over domain bounds as :func:`bdac3`
    describes.
    """
    return _bdac1(net, order=order, trace=trace)


def _pc1_on_bounds(run: _Run) -> RunReport:
    """pc1 on an STP, untraced: one Floyd-Warshall pass through the path
    kernel, counted as the label sweep counts it (see pc1)."""
    w, step, grid = run.w, run._path_step, run.net.m
    size = len(w)
    for k in range(size):
        via = w[k]
        ends = []  # j of each pair (i, j) moved in round k
        for i in range(size):
            if i == k or (w[i][k] is None and via[i] is None):
                continue  # no path through X_k leaves or reaches X_i
            for j in range(i + 1, size):
                if j == k or not step(i, k, j):
                    continue
                if grid[i][j].is_empty():
                    # the label sweep leaves the emptied entry as the step
                    # found it, which w still holds; the step comes before
                    # the mirror (j', k, i') of each pair moved this round
                    # whose j' lies past row i
                    run.moved[i, j] = None
                    late = sum(1 for end in ends if end > i)
                    run.revise_calls = (k * size + i) * size + j + 1
                    run.domain_updates = 2 * (run.domain_updates - 1) - late
                    return run.end(Outcome.EMPTY_DOMAIN)
                ends.append(j)
    # each move counts at (i, k, j) and at its mirror (j, k, i); a pass that
    # moved a bound is followed by a second sweep, which the label sweep
    # counts and which changes nothing
    run.domain_updates *= 2
    run.revise_calls = size ** 3 * (2 if run.moved else 1)
    return run.end(Outcome.CONSISTENT)


def _pc1(net: Tcsp, *, trace: Optional[Trace] = None, alg: str = "pc1") -> RunReport:
    if first_empty_entry(net) is not None:
        return RunReport(Outcome.EMPTY_DOMAIN, 0, 0)
    # an STP is settled by its first sweep (see pc1)
    settled = is_stp(net)
    run = _Run(net, alg, clamp=False, trace=trace, stp=settled and trace is None)
    if run.w is not None:
        return _pc1_on_bounds(run)
    grid = net.m
    size = net.n_vars + 1
    sweep = size ** 3
    step = 0
    while True:
        changed_any = False
        for k in range(size):
            # row k and column k stay fixed while k is the middle variable:
            # their triples run through the diagonal, which never narrows
            via = grid[k]
            open_via = [label.is_universal() for label in via]
            for i in range(size):
                row = grid[i]
                leg = row[k]
                open_leg = i == k or leg.is_universal()
                for j in range(size):
                    step += 1
                    old = row[j]
                    if open_leg or j == k or j == i or open_via[j] or (settled and step > sweep):
                        # a path through the pinned diagonal {0} or an
                        # unconstrained leg, a diagonal target (see pc1), or a
                        # settled STP cannot narrow old: temp is old
                        if trace is not None:
                            trace.append(TraceEntry(alg, (i, k, j), old, old, old, False, False))
                        continue
                    temp = narrow(old, leg, via[j])
                    if temp.is_empty():
                        # inconsistency: report without writing the entry
                        if trace is not None:
                            trace.append(TraceEntry(alg, (i, k, j), old, temp, old, False, False))
                        run.revise_calls = step
                        return run.end(Outcome.EMPTY_DOMAIN)
                    changed = temp is not old
                    if changed:
                        # no mirror write: the sweep restores it before k advances
                        row[j] = temp
                        run.moved[min(i, j), max(i, j)] = None
                        run.domain_updates += 1
                        changed_any = True
                    if trace is not None:
                        trace.append(TraceEntry(alg, (i, k, j), old, temp, temp, False, changed))
        if not changed_any:
            run.revise_calls = step
            return run.end(Outcome.CONSISTENT)


def pc1(net: Tcsp, *, trace: Optional[Trace] = None) -> RunReport:
    """Full path-consistency sweeps (every (i, k, j), diagonal included) to fixpoint.

    No clamp: composition through every triangle either converges or proves
    an empty entry.  Each round starts mirrored, and row k and column k stay
    fixed while k is the middle variable, so a diagonal step (i, k, i)
    would compose the label (i, k) with its converse, which holds 0: it
    never narrows, and inconsistency surfaces at a step (i, k, j) with
    i != j.  Every step is counted and traced, but a step that cannot narrow
    its entry -- its target is diagonal, its path runs through the diagonal
    or an unconstrained leg, or it lies past the first sweep of an STP -- is
    not composed.  The sweep writes a narrowed entry alone, and the pair,
    mirror included, goes through ``_Run.write_back`` when the run ends.

    The one-sweep rule for an STP (every label convex on entry): a label is
    one piece, two bounds in the ordered monoid of ``(value, closed)``
    bounds (tuple order, None as +inf, sums by ``intervals._add``, identity
    ``(0, True)``).  The upper bound of (i, j) is the edge i -> j of the
    distance graph, the lower bound's ``_down`` the edge j -> i.  On one
    piece a step takes each bound to the least of itself and the sum of the
    legs' bounds, and leaves one piece or none, so the network stays an STP.
    So the sweep's k-th round is the k-th round of Floyd-Warshall, on the
    upper bounds of every entry and, apart, on the lower bounds.  A step
    empties its entry exactly when its new bounds cross, that is, when it
    closes a circuit i -> j -> i below ``(0, True)``.  A circuit below
    ``(0, True)``, split at its two highest variables, is two paths whose
    inner variables all lie below both, so the rounds before the lower of
    the two close it on that pair, if no other step stops the run first.  A
    first sweep that empties nothing is thus a whole Floyd-Warshall
    pass on a graph with no negative (or strictly zero) circuit: every bound
    is a shortest-path weight, and those obey every triangle, so no later
    step can tighten one.  Later sweeps are counted and traced as steps
    that change nothing.

    Untraced, an STP runs as that one pass through ``_Run``'s path kernel
    and writes the pairs that moved when it ends.  Steps (i, k, j) and (j,
    k, i) take the same two minima, from the same round-k legs, so the pass
    relaxes each pair once per round and counts a moved pair twice, once at
    each position.  A run that stops at step (i, k, j), i < j (the first of
    the two positions of the emptied pair, which keeps the label it held),
    counts ``k*size**2 + i*size + j + 1`` steps, and of each pair (a, b), a < b,
    moved earlier in round k it counts the mirror (b, k, a) only when row b
    comes no later than row i.  A pass that empties nothing counts one
    sweep when no bound moved, and otherwise two.
    """
    return _pc1(net, trace=trace)


def _pc2(
    net: Tcsp,
    *,
    clamp: bool = True,
    budget: Optional[int] = None,
    select: Optional[Callable[[Tuple[_Triple, ...]], _Triple]] = None,
    trace: Optional[Trace] = None,
    alg: str = "pc2",
) -> RunReport:
    if first_empty_entry(net) is not None:
        return RunReport(Outcome.EMPTY_DOMAIN, 0, 0)
    grid = net.m
    size = net.n_vars + 1
    informative = [[not label.is_universal() for label in row] for row in grid]
    seed = [
        (i, k, j)
        for i in range(size) for k in range(size) if k != i and informative[i][k]
        for j in range(i + 1, size) if j != k and informative[k][j]
    ]

    def again(i: int, _: int, j: int) -> List[_Triple]:
        # paths that run through the tightened pair, targets canonical; the
        # write changed both orientations, so legs reading the mirror (j, i)
        # went stale too -- all four patterns re-enter.  An entry only
        # narrows, so this write is the only way one turns informative: kept
        # current here, the seed's matrix answers every later leg test, read
        # along a row since it is symmetric, as the mirror is
        informative[i][j] = informative[j][i] = True
        row_i, row_j = informative[i], informative[j]
        return (
            [(i, j, m) for m in range(i + 1, size) if m != j and row_j[m]]
            + [(m, i, j) for m in range(j) if m != i and row_i[m]]
            + [(j, i, m) for m in range(j + 1, size) if row_i[m]]
            + [(m, j, i) for m in range(i) if row_j[m]]
        )

    run = _Run(net, alg, clamp=clamp, budget=budget, trace=trace,
               stp=trace is None and is_stp(net))
    return run.end(_worklist(run, seed, again, select=select))


def pc2(
    net: Tcsp,
    *,
    select: Optional[Callable[[Tuple[_Triple, ...]], _Triple]] = None,
    trace: Optional[Trace] = None,
) -> RunReport:
    """Worklist path consistency over informative triples, clamped.

    The queue holds triples (i, k, j) with i < j; by default the oldest
    pending triple runs next, but ``select`` may pick any pending one (it
    gets the pending tuple and must return a member).  ``select`` sees only
    that tuple: an untraced run on an STP leaves the network unwritten until
    it ends.

    On an STP a full-strength step keeps one piece or none (see pc1), so the
    network stays an STP, and a step takes each bound of (i, j) to the least
    of itself and the sum of the legs' bounds.  Untraced, an STP runs the
    same worklist -- seed, queue, ``select``, budget and counts -- through
    ``_Run``'s path kernel over the labels' bounds.  A step that empties its
    entry writes it at once and ends the run; every other pair that moved is
    written when the run ends, whatever the outcome.  So the floor, read at
    the first narrowing write, is path_lb of the network the run started
    on, as a traced run reads it before its first write.
    """
    return _pc2(net, select=select, trace=trace)


#: Every algorithm by the name the CLI and the traces use: its engine and
#: the settings that make the engine that algorithm.  The "-minus" entries
#: are their engine without the clamp, run under a revise budget.
ALGORITHMS = {
    "bdac3": (_bdac3, {"weak": False}),
    "wbdac3": (_bdac3, {"weak": True}),
    "bdac1": (_bdac1, {}),
    "pc1": (_pc1, {}),
    "pc2": (_pc2, {}),
    "bdac3-minus": (_bdac3, {"weak": False, "clamp": False}),
    "bdac1-minus": (_bdac1, {"clamp": False}),
    "pc2-minus": (_pc2, {"clamp": False}),
}


def run_algorithm(
    name: str,
    net: Tcsp,
    *,
    budget: int = 10000,
    trace: Optional[Trace] = None,
    **option,
) -> RunReport:
    """Run the algorithm ``ALGORITHMS`` lists as ``name`` on ``net``, in place.

    ``budget`` bounds the "-minus" variants only.  ``option`` goes to the
    engine as given: ``lifo`` for the bdac3 family, ``order`` for bdac1,
    ``select`` for pc2; an option the engine lacks raises ``TypeError``.
    """
    engine, settings = ALGORITHMS[name]
    if not settings.get("clamp", True):
        settings = dict(settings, budget=budget)
    return engine(net, trace=trace, alg=name, **settings, **option)


def minus_variant(
    alg: str, net: Tcsp, *, budget: int = 10000, trace: Optional[Trace] = None, **option
) -> RunReport:
    """Run bdac3/bdac1/pc2 with the clamp removed, under a hard call budget.

    Exists for exhibiting divergence; the budget is checked before each
    revise, so an exhausted run reports exactly ``budget`` calls.  ``option``
    is the algorithm's queue option, as :func:`run_algorithm` takes it.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    name = alg if alg.endswith("-minus") else alg + "-minus"
    if name not in ALGORITHMS:
        raise ValueError(f"no minus variant for {alg!r}")
    return run_algorithm(name, net, budget=budget, trace=trace, **option)


def refinements(root: Tcsp, propagate: Callable[..., RunReport]) -> Iterator[tuple]:
    """Refine ``root`` (owned by the caller) depth first, on an explicit stack.

    Each node that ``propagate`` leaves CONSISTENT is yielded as ``(node,
    branch)``: the root, propagated from a full seed, then its descendants.
    ``branch(pair)`` stacks one child per convex piece of the node's entry
    ``pair``, the first piece on top.  A child is copied from its parent
    when reached, its piece written with ``set_pair``, and run through
    ``propagate(child, changed=pair)``.
    """
    stack: list = [(root, None, None)]
    while stack:
        node, pair, piece = stack.pop()
        if piece is not None:
            node = node.copy()
            node.set_pair(*pair, piece)
        if propagate(node, changed=pair).outcome is not Outcome.CONSISTENT:
            continue
        children: list = []

        def branch(pair: _Pair) -> None:
            i, j = pair
            children.extend((node, pair, piece) for piece in node.m[i][j].convex_parts())

        yield node, branch
        stack.extend(reversed(children))


def is_bd_arc_consistent(net: Tcsp) -> bool:
    """Is every binarized domain supported through every explicit constraint, that
    is, does revising each arc (k, m) hand the domain of X_k back unchanged?"""
    domains = net.m[0]
    return all(
        narrow(domains[k], domains[m], net.m[m][k]) is domains[k] for k, m in _mask_pairs(net)
    )

"""Reference computations the benchmark checks the program against.

Nothing here imports tcsp.  Every function works on the benchmark's own
description of an input (the constraint lists and task tuples that
``corpus`` generates), never on a parsed network, so a fault in the
program's readers or algorithms cannot make a wrong output look right.

Representations:

* a piece is ``(lo, hi, lo_closed, hi_closed)``; ``None`` is an infinite end;
* a label is a list of pieces; a constraint ``(i, j, label)`` bounds
  ``x_j - x_i``;
* a weight is ``None`` (+inf) or ``(value, strict)``: at most ``value``,
  strictly below it when ``strict``.
"""

from __future__ import annotations

from itertools import permutations

ZERO = (0, False)


def w_lt(a, b) -> bool:
    """a < b, with value~ just below value and +inf above everything."""
    if a is None:
        return False
    if b is None:
        return True
    if a[0] != b[0]:
        return a[0] < b[0]
    return a[1] and not b[1]


def edge_matrix(n: int, constraints):
    """Distance-graph weights of an all-convex constraint list on X0..Xn."""
    size = n + 1
    w = [[ZERO if i == j else None for j in range(size)] for i in range(size)]
    for i, j, label in constraints:
        if len(label) != 1:
            raise ValueError(f"({i}, {j}) is not convex")
        lo, hi, lo_closed, hi_closed = label[0]
        if hi is not None and w_lt((hi, not hi_closed), w[i][j]):
            w[i][j] = (hi, not hi_closed)
        if lo is not None and w_lt((-lo, not lo_closed), w[j][i]):
            w[j][i] = (-lo, not lo_closed)
    return w


def shortest_paths(n: int, constraints):
    """All-pairs shortest path weights, or None when a circuit is negative.

    A circuit of weight 0~ (zero reached only through a strict edge) counts
    as negative: no assignment satisfies it.
    """
    d = edge_matrix(n, constraints)
    size = n + 1
    for k in range(size):
        dk = d[k]
        for i in range(size):
            dik = d[i][k]
            if dik is None:
                continue
            di = d[i]
            for j in range(size):
                dkj = dk[j]
                if dkj is None:
                    continue
                # sum and w_lt written out: this loop is most of a run's untimed work
                value, strict = dik[0] + dkj[0], dik[1] or dkj[1]
                cur = di[j]
                if cur is None or value < cur[0] or (value == cur[0] and strict and not cur[1]):
                    di[j] = (value, strict)
    if any(w_lt(d[i][i], ZERO) for i in range(size)):
        return None
    return d


def entry_from_distances(d, i: int, j: int):
    """The minimal label of (i, j): ``[-d(j,i), d(i,j)]`` with strict ends open."""
    down, up = d[j][i], d[i][j]
    lo = None if down is None else -down[0]
    hi = None if up is None else up[0]
    return (lo, hi, down is not None and not down[1], up is not None and not up[1])


def piece_text(piece) -> str:
    """The program's canonical text of one piece: "[1,2)", "{3}", "(-inf,+inf)"."""
    lo, hi, lo_closed, hi_closed = piece
    if lo is not None and lo == hi:
        return "{%s}" % lo
    return "%s%s,%s%s" % (
        "[" if lo_closed else "(",
        "-inf" if lo is None else lo,
        "+inf" if hi is None else hi,
        "]" if hi_closed else ")",
    )


def weight_text(w) -> str:
    """The program's canonical text of a weight: "7", "-10~", "+inf"."""
    if w is None:
        return "+inf"
    return f"{w[0]}~" if w[1] else str(w[0])


def piece_contains(piece, x) -> bool:
    lo, hi, lo_closed, hi_closed = piece
    if lo is not None and (x < lo or (x == lo and not lo_closed)):
        return False
    if hi is not None and (x > hi or (x == hi and not hi_closed)):
        return False
    return True


def satisfies(constraints, values) -> bool:
    """Does ``values`` (X0..Xn) meet every constraint, open and closed ends exact?"""
    return all(
        any(piece_contains(p, values[j] - values[i]) for p in label)
        for i, j, label in constraints
    )


def best_makespan(tasks):
    """Optimal single-machine makespan, or None when no order fits.

    ``tasks`` holds ``(duration, release, due)`` with ``None`` for a missing
    release or due.  Each order is left-shifted: a task starts at the later
    of its release and its predecessor's end.  Left-shifting minimises every
    end time of that order, so it meets the due times whenever any schedule
    with that order does, and the best order gives the optimum.
    """
    best = None
    for order in permutations(range(len(tasks))):
        t = 0
        for k in order:
            duration, release, due = tasks[k]
            start = max(t, release or 0)
            t = start + duration
            if due is not None and t > due:
                break
        else:
            if best is None or t < best:
                best = t
    return best


def schedule_violation(tasks, starts):
    """Why ``starts`` is not a single-machine schedule of ``tasks``; None if it is."""
    if len(starts) != len(tasks):
        return f"{len(starts)} start times for {len(tasks)} tasks"
    for k, ((duration, release, due), s) in enumerate(zip(tasks, starts), 1):
        if s < (release or 0):
            return f"task {k} starts at {s}, before its release"
        if due is not None and s + duration > due:
            return f"task {k} ends at {s + duration}, after its due time"
    spans = sorted((s, s + t[0], k) for k, (t, s) in enumerate(zip(tasks, starts), 1))
    for (_, end, a), (start, _, b) in zip(spans, spans[1:]):
        if start < end:
            return f"tasks {a} and {b} overlap"
    return None

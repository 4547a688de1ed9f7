"""Seeded random generators and brute-force oracles shared across the tests.

Everything takes an explicit random.Random so failures reproduce; the
oracles are deliberately dumb (exhaustive enumeration, shortest paths) and
share no code with the algorithms under test.
"""

from __future__ import annotations

import importlib
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import List, Optional, Tuple

from tcsp import (
    EmptyLabel,
    Interval,
    IntervalUnion,
    NegativeCircuit,
    SchedulingInstance,
    Task,
    Tcsp,
    Weight,
    build_tcsp,
    compile_instance,
    floyd_warshall,
    graph_to_stp,
    stp_to_graph,
    w_add,
)


class CappedTrace(list):
    """A trace list whose ``append`` fails once it holds ``cap`` entries.

    A clamped engine with a trace and no budget ends on a diverging circuit
    only through its clamp; passed this list, a run whose clamp never fires
    fails the test at ``cap`` steps instead of growing the trace without end.
    """

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def append(self, entry) -> None:
        if len(self) >= self.cap:
            raise AssertionError(f"the trace grew past {self.cap} entries")
        super().append(entry)


# -- the four worked networks used as goldens throughout the suite -------------------


def chain_stp() -> Tcsp:
    """Five time points in a consistent chain with a window on the last one."""
    U = IntervalUnion.span
    return build_tcsp(
        4,
        [
            (0, 1, U(10, 20)),
            (0, 4, U(60, 70)),
            (1, 2, U(30, 40)),
            (2, 3, U(-20, -10)),
            (3, 4, U(40, 50)),
        ],
    )


def hidden_circuit_stp() -> Tcsp:
    """Inconsistent STP whose negative circuit is unreachable from the origin."""
    U = IntervalUnion.span
    return build_tcsp(
        4,
        [
            (0, 1, U(10, 20)),
            (1, 2, U(30, None, True, False)),
            (2, 3, U(-20, -10)),
            (2, 4, U(None, 4, False, True)),
            (3, 4, U(40, 50)),
        ],
    )


def creeping_circuit_stp() -> Tcsp:
    """Inconsistent STP whose domains creep up by 16 per pass; bound-free
    propagation never terminates on it."""
    U = IntervalUnion.span
    return build_tcsp(
        3,
        [
            (0, 1, U(30, None, True, False)),
            (1, 2, U(-20, -10)),
            (1, 3, U(None, 4, False, True)),
            (2, 3, U(40, 50)),
        ],
    )


def fragmenting_tcsp() -> Tcsp:
    """Three-variable disjunctive network whose labels fragment under composition."""
    from tcsp import parse_union

    return build_tcsp(
        2,
        [
            (0, 1, parse_union("[-2,-1] u [5,6]")),
            (1, 2, parse_union("[-4,-3] u [10,15]")),
            (0, 2, parse_union("[-7,-1] u [1,20]")),
        ],
    )


def strict_zero_circuit_stp() -> Tcsp:
    """Inconsistent STP whose circuit X1 -> X2 -> X3 -> X1 weighs (-2)~ + (-3)
    + 5: strictly negative with zero slack, so propagation keeps every domain
    nonempty and only extraction disproves it."""
    from tcsp import parse_union as U

    return build_tcsp(
        3,
        [
            (0, 1, U("[-6,0)")),
            (1, 2, U("[-5,-2)")),
            (1, 3, U("{-5}")),
            (2, 3, U("{-3}")),
        ],
    )


_BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def bench_module(name: str):
    """A module of the benchmark under ``bench/`` (``corpus``, ``reference``),
    which import their siblings by bare name."""
    if _BENCH not in sys.path:
        sys.path.append(_BENCH)
    return importlib.import_module(name)


def random_consistent_stp(rng: random.Random, n: Optional[int] = None) -> Tuple[Tcsp, List[int]]:
    """A connected, consistent STP built around a hidden integer witness.

    Bounds are integers within [-50, 50] with random open/closed ends; the
    witness sits strictly inside every label, so any end may be open.  A
    chain of finite two-sided constraints guarantees connectivity.
    """
    if n is None:
        n = rng.randint(2, 8)
    xs = [0] + [rng.randint(-20, 20) for _ in range(n)]
    constraints = []
    for i in range(1, n + 1):
        anchor = rng.randrange(0, i)
        diff = xs[i] - xs[anchor]
        a = diff - 1 - rng.randint(0, 8)
        b = diff + 1 + rng.randint(0, 8)
        constraints.append(
            (anchor, i, IntervalUnion.span(a, b, rng.random() < 0.5, rng.random() < 0.5))
        )
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() >= 0.25:
                continue
            diff = xs[j] - xs[i]
            a = diff - 1 - rng.randint(0, 8)
            b = diff + 1 + rng.randint(0, 8)
            shape = rng.random()
            if shape < 0.3:
                label = IntervalUnion.span(a, None, rng.random() < 0.5, False)
            elif shape < 0.6:
                label = IntervalUnion.span(None, b, False, rng.random() < 0.5)
            else:
                label = IntervalUnion.span(a, b, rng.random() < 0.5, rng.random() < 0.5)
            constraints.append((i, j, label))
    return build_tcsp(n, constraints), xs


def random_zero_circuit_stp(rng: random.Random) -> Tcsp:
    """A consistent random STP with one label closed on its tightest upper end.

    A pair (i, j) whose upper end u in the minimal network is finite gets the
    lower end u too, so a circuit through it weighs exactly zero: strictly
    (the STP is inconsistent) when u or the new end is open, and closed
    (consistent, with x_j - x_i = u forced) when both are closed.
    """
    while True:
        net, _ = random_consistent_stp(rng)
        minimal = graph_to_stp(floyd_warshall(stp_to_graph(net)))
        size = net.n_vars + 1
        # the spanning chain bounds X1 from both sides, so (0, 1) always qualifies
        ends = [(i, j) for i in range(size) for j in range(i + 1, size)
                if minimal.m[i][j].upper_bound() is not None]
        i, j = rng.choice(ends)
        value, _ = minimal.m[i][j].upper_bound()
        label = net.m[i][j] & IntervalUnion.span(value, None, rng.random() < 0.5, False)
        if not label.is_empty():  # an empty label would stop pc1 before any step
            net.set_pair(i, j, label)
            return net


def random_detached_stp(rng: random.Random) -> Tcsp:
    """An STP in parts that no constraint joins; only the first holds X0.

    So every variable outside the first part starts disconnected from X0.
    Labels lie around a hidden integer witness, but about one in five is
    shifted off it, so inconsistent parts occur too; a label may be
    one-sided, universal, or have open ends.
    """
    n = rng.randint(2, 8)
    part = [0] + [rng.randrange(3) for _ in range(n)]
    xs = [0] + [rng.randint(-20, 20) for _ in range(n)]
    constraints = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if part[i] != part[j] or rng.random() >= 0.5:
                continue
            diff = xs[j] - xs[i] + (rng.randint(-30, 30) if rng.random() < 0.2 else 0)
            a = diff - 1 - rng.randint(0, 8)
            b = diff + 1 + rng.randint(0, 8)
            shape = rng.random()
            if shape < 0.25:
                label = IntervalUnion.span(a, None, rng.random() < 0.5, False)
            elif shape < 0.5:
                label = IntervalUnion.span(None, b, False, rng.random() < 0.5)
            elif shape < 0.55:
                label = IntervalUnion.universal()
            else:
                label = IntervalUnion.span(a, b, rng.random() < 0.5, rng.random() < 0.5)
            constraints.append((i, j, label))
    return build_tcsp(n, constraints)


_BOUND_KINDS = ("none", "closed", "open")


def random_bounded_stp(rng: random.Random, cells: Optional[set] = None) -> Tcsp:
    """An arbitrary normalized STP mixing every bound shape (no consistency claim).

    When ``cells`` is given, each constrained pair records its
    (lower-kind, upper-kind) combination there, so a corpus can prove it
    exercised all nine shapes.
    """
    n = rng.randint(1, 6)
    constraints = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() >= 0.6:
                continue
            lo_kind = rng.choice(_BOUND_KINDS)
            hi_kind = rng.choice(_BOUND_KINDS)
            a = rng.randint(-20, 20)
            b = a + rng.randint(0, 15)
            if a == b and not (lo_kind == "closed" and hi_kind == "closed"):
                b += 1
            if lo_kind == "closed" and hi_kind == "closed" and rng.random() < 0.1:
                b = a
            label = IntervalUnion(
                (
                    Interval(
                        None if lo_kind == "none" else a,
                        None if hi_kind == "none" else b,
                        lo_kind == "closed",
                        hi_kind == "closed",
                    ),
                )
            )
            if cells is not None:
                cells.add((lo_kind, hi_kind))
            constraints.append((i, j, label))
    return build_tcsp(n, constraints)


def random_disjunctive_tcsp(rng: random.Random, n: Optional[int] = None) -> Tcsp:
    """A small general network: up to two pieces per label, bounds in [-10, 10].

    ``n`` variables when given, else 1 to 3 drawn from ``rng``.
    """
    if n is None:
        n = rng.randint(1, 3)
    constraints = []
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() >= 0.7:
                continue
            if rng.random() < 0.55:
                span = rng.randint(0, 6)
                a = rng.randint(-10, 10 - span)
                shape = rng.random()
                if shape < 0.15:
                    label = IntervalUnion.span(a, None, rng.random() < 0.5, False)
                elif shape < 0.3:
                    label = IntervalUnion.span(None, a + span, False, rng.random() < 0.5)
                elif span == 0:
                    label = IntervalUnion.point(a)
                else:
                    label = IntervalUnion.span(a, a + span, rng.random() < 0.5, rng.random() < 0.5)
            else:
                w1 = rng.randint(0, 3)
                gap = 2 + rng.randint(0, 3)
                w2 = rng.randint(0, 3)
                total = w1 + gap + w2
                a = rng.randint(-10, 10 - total)
                c = a + w1 + gap
                label = IntervalUnion(
                    (Interval(a, a + w1), Interval(c, c + w2))
                )
            constraints.append((i, j, label))
    return build_tcsp(n, constraints)


def rebuilt_by_set_pair(net: Tcsp, rng: random.Random) -> Tcsp:
    """``net``'s non-universal labels written into ``Tcsp(n)`` with ``set_pair``.

    The pairs are written in shuffled order, each in a random orientation,
    the way a caller that does not use ``build_tcsp`` would assemble them.
    The matrix equals ``net``'s; the structure lacks the pairs that ``net``
    declared with a universal label.
    """
    size = net.n_vars + 1
    pairs = [
        (i, j) for i in range(size) for j in range(i + 1, size) if not net.m[i][j].is_universal()
    ]
    rng.shuffle(pairs)
    fresh = Tcsp(net.n_vars)
    for i, j in pairs:
        if rng.random() < 0.5:
            i, j = j, i
        fresh.set_pair(i, j, net.m[i][j])
    return fresh


def _disjunctive_pairs(net: Tcsp) -> List[Tuple[int, int]]:
    return [
        (i, j)
        for i in range(net.n_vars + 1)
        for j in range(i + 1, net.n_vars + 1)
        if len(net.m[i][j].parts) > 1
    ]


def oracle_consistent(net: Tcsp) -> bool:
    """Exhaustive: some choice of one piece per disjunctive label admits no
    negative circuit."""
    pairs = _disjunctive_pairs(net)
    options = [net.m[i][j].convex_parts() for (i, j) in pairs]
    for combo in product(*options):
        stp = net.copy()
        for (i, j), piece in zip(pairs, combo):
            stp.set_pair(i, j, piece)
        try:
            floyd_warshall(stp_to_graph(stp))
            return True
        except (NegativeCircuit, EmptyLabel):
            continue
    return False


def minimal_domain(dist_to_origin: Weight, dist_from_origin: Weight) -> IntervalUnion:
    """The domain [-d(i,0), d(0,i)] with strict weights opening the ends."""
    lo = None if dist_to_origin.value is None else -dist_to_origin.value
    lo_closed = dist_to_origin.value is not None and not dist_to_origin.strict
    hi = dist_from_origin.value
    hi_closed = dist_from_origin.value is not None and not dist_from_origin.strict
    return IntervalUnion.span(lo, hi, lo_closed, hi_closed)


def fw_minimal_domains(net: Tcsp) -> List[IntervalUnion]:
    """Oracle domains for a consistent STP, straight from Floyd-Warshall."""
    fw = floyd_warshall(stp_to_graph(net))
    return [minimal_domain(fw.w[i][0], fw.w[0][i]) for i in range(1, net.n_vars + 1)]


def random_instance(rng: random.Random) -> SchedulingInstance:
    """A valid scheduling instance: <= 5 tasks, durations 1..9, <= 5 disjunctions."""
    n = rng.randint(1, 5)
    tasks = []
    for _ in range(n):
        d = rng.randint(1, 9)
        release = rng.randint(0, 10) if rng.random() < 0.5 else None
        due = None
        if rng.random() < 0.4:
            due = (release or 0) + d + rng.randint(0, 12)
        tasks.append(Task(Fraction(d), release, due))
    all_pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    rng.shuffle(all_pairs)
    precedences = tuple(all_pairs[: rng.randint(0, min(3, len(all_pairs)))])
    unordered = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    rng.shuffle(unordered)
    disjunctions = tuple(unordered[: rng.randint(0, min(5, len(unordered)))])
    return SchedulingInstance(tasks=tuple(tasks), precedences=precedences, disjunctions=disjunctions)


def oracle_makespan(inst: SchedulingInstance) -> Optional[Fraction]:
    """Try every resolution of the disjunctive entries; per orientation, take
    earliest starts from shortest paths and the latest completion among them;
    return the best orientation's value."""
    try:
        net = compile_instance(inst)
    except EmptyLabel:
        return None
    durations = [task.duration for task in inst.tasks]
    pairs = _disjunctive_pairs(net)
    options = [net.m[i][j].convex_parts() for (i, j) in pairs]
    best: Optional[Fraction] = None
    for combo in product(*options):
        stp = net.copy()
        for (i, j), piece in zip(pairs, combo):
            stp.set_pair(i, j, piece)
        try:
            fw = floyd_warshall(stp_to_graph(stp))
        except NegativeCircuit:
            continue
        starts = [-fw.w[i][0].value for i in range(1, net.n_vars + 1)]
        finish = max(s + d for s, d in zip(starts, durations))
        if best is None or finish < best:
            best = finish
    return best


def elementary_path_weights(net: Tcsp) -> List[Weight]:
    """Total weights of every finite elementary (vertex-distinct) path."""
    g = stp_to_graph(net)
    out: List[Weight] = []

    def grow(path: List[int], acc: Weight):
        last = path[-1]
        for nxt in g.vertices():
            if nxt in path:
                continue
            w = g.w[last][nxt]
            if w.value is None:
                continue
            total = w_add(acc, w)
            out.append(total)
            path.append(nxt)
            grow(path, total)
            path.pop()

    from tcsp import ZERO

    for start in g.vertices():
        grow([start], ZERO)
    return out

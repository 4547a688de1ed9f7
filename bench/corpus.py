"""Seeded input generators for the four workloads.

Each generator takes a ``random.Random`` and returns the JSON text the
program reads together with the benchmark's own description of the same
input (see ``reference``), from which the expected outputs are computed.
Endpoints are integers; every size and count below is fixed, so inputs
drawn from different seeds cost about the same to solve.
"""

from __future__ import annotations

import json
import random

from reference import piece_text, shortest_paths

STP_VARS = 20          # stp-extract
STP_DETACHED = 3       # variables of an stp-extract network not linked to X0
STP_EXTRA = 30         # constraints beyond the spanning tree
PATHCONS_VARS = 16     # stp-pathcons
PATHCONS_EXTRA = 24
DISJ_VARS = 10         # disjunctive-solve
DISJ_EXTRA = 10
DISJ_TWO_PIECE = 8     # labels of two pieces per disjunctive network
JOB_TASKS = 5          # jobshop
JOB_WINDOW_TASKS = 2   # tasks with a release, and tasks with a due time, when windowed
JOB_WINDOWED = (1, 3, 5, 7, 9, 11, 13)  # positions k % 16 of windowed instances


def network_json(n: int, constraints) -> str:
    doc = {
        "variables": n,
        "constraints": [
            {"i": i, "j": j, "label": " u ".join(piece_text(p) for p in label)}
            for i, j, label in constraints
        ],
    }
    return json.dumps(doc)


def _around(rng, diff, shape="both"):
    """A piece holding ``diff`` strictly inside, so either end may be open."""
    lo = diff - rng.randint(1, 9)
    hi = diff + rng.randint(1, 9)
    return (
        None if shape == "upper" else lo,
        None if shape == "lower" else hi,
        shape != "upper" and rng.random() < 0.5,
        shape != "lower" and rng.random() < 0.5,
    )


def _shape(rng) -> str:
    r = rng.random()
    return "lower" if r < 0.3 else "upper" if r < 0.6 else "both"


def _extra_pairs(rng, candidates, used, count):
    free = [p for p in candidates if p not in used]
    rng.shuffle(free)
    return sorted(free[:count])


def consistent_stp(rng, n, extra, detached=0):
    """A consistent STP built around a hidden integer witness.

    X1..X(n-detached) hang off X0 by a random tree of two-sided labels; the
    last ``detached`` variables form a tree of their own that no label links
    to X0, so anchoring has work to do.  ``extra`` further pairs get a
    random shape: lower end only, upper end only, or both.
    """
    xs = [0] + [rng.randint(-40, 40) for _ in range(n)]
    linked = n - detached
    constraints = {}
    for i in range(1, n + 1):
        if i <= linked:
            anchor = rng.randrange(0, i)
        elif i == linked + 1:
            continue
        else:
            anchor = rng.randrange(linked + 1, i)
        constraints[(anchor, i)] = [_around(rng, xs[i] - xs[anchor])]
    group = lambda v: v > linked  # noqa: E731
    candidates = [
        (i, j) for i in range(n + 1) for j in range(i + 1, n + 1) if group(i) == group(j)
    ]
    for i, j in _extra_pairs(rng, candidates, constraints, extra):
        constraints[(i, j)] = [_around(rng, xs[j] - xs[i], _shape(rng))]
    return [(i, j, constraints[(i, j)]) for i, j in sorted(constraints)]


def circuit_stp(rng, n, extra):
    """An inconsistent STP: one added lower bound exceeds a shortest path.

    The new label on an unconstrained pair (i, j) starts g above d(i, j),
    closing a circuit of weight -g through finite labels.
    """
    base = consistent_stp(rng, n, extra)
    d = shortest_paths(n, base)
    used = {(i, j) for i, j, _ in base}
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in used and d[i][j] is not None
    ]
    i, j = rng.choice(pairs)
    lo = d[i][j][0] + rng.randint(1, 12)
    piece = (lo, lo + rng.randint(0, 9), True, True) if rng.random() < 0.5 else (lo, None, True, False)
    return sorted(base + [(i, j, [piece])])


def creeping_stp(rng, n, extra):
    """An inconsistent STP whose circuit only the path-bounds clamp stops.

    The last third of the variables get lower bounds from the others and
    never an upper bound, so their domains stay unbounded above.  Three of
    them carry a circuit of weight -g through an unbounded label: every
    pass around it raises their lower bounds by g, and no domain empties.
    """
    xs = [0] + [rng.randint(-40, 40) for _ in range(n)]
    free = n - n // 3
    constraints = {}
    for i in range(1, free + 1):
        anchor = rng.randrange(0, i)
        constraints[(anchor, i)] = [_around(rng, xs[i] - xs[anchor])]
    for i in range(free + 1, n + 1):
        anchor = rng.randrange(0, free + 1)
        constraints[(anchor, i)] = [_around(rng, xs[i] - xs[anchor], "lower")]
    candidates = [
        (i, j) for i in range(n + 1) for j in range(i + 1, n + 1) if j <= free or i <= free
    ]
    for i, j in _extra_pairs(rng, candidates, constraints, extra):
        constraints[(i, j)] = [_around(rng, xs[j] - xs[i], _shape(rng) if j <= free else "lower")]
    a, b, c = sorted(rng.sample(range(free + 1, n + 1), 3))
    p, r = rng.randint(-30, 30), rng.randint(-30, 30)
    constraints[(a, b)] = [(p, p + rng.randint(0, 9), True, True)]
    constraints[(b, c)] = [(r, r + rng.randint(0, 9), True, True)]
    constraints[(a, c)] = [(None, p + r - rng.randint(6, 16), False, True)]
    return [(i, j, constraints[(i, j)]) for i, j in sorted(constraints)]


def stp_extract(rng, count):
    """Every fourth network is inconsistent, alternately by circuit and by creep."""
    items = []
    for k in range(count):
        if k % 8 == 3:
            kind, cons = "circuit", circuit_stp(rng, STP_VARS, STP_EXTRA)
        elif k % 8 == 7:
            kind, cons = "creep", creeping_stp(rng, STP_VARS, STP_EXTRA)
        else:
            kind, cons = "consistent", consistent_stp(rng, STP_VARS, STP_EXTRA, STP_DETACHED)
        items.append({"kind": kind, "n": STP_VARS, "constraints": cons,
                      "text": network_json(STP_VARS, cons)})
    return items


def stp_pathcons(rng, count):
    items = []
    for _ in range(count):
        cons = consistent_stp(rng, PATHCONS_VARS, PATHCONS_EXTRA)
        items.append({"kind": "consistent", "n": PATHCONS_VARS, "constraints": cons,
                      "text": network_json(PATHCONS_VARS, cons)})
    return items


def disjunctive(rng, count):
    """Two-piece networks around a hidden witness; the decoy piece lies a gap away."""
    items = []
    for _ in range(count):
        n = DISJ_VARS
        cons = consistent_stp(rng, n, DISJ_EXTRA)
        for k in sorted(rng.sample(range(len(cons)), DISJ_TWO_PIECE)):
            i, j, (piece,) = cons[k]
            lo, hi, lo_closed, hi_closed = piece
            width = rng.randint(0, 6)
            gap = rng.randint(2, 12)
            if hi is not None and (lo is None or rng.random() < 0.5):
                decoy = (hi + gap, hi + gap + width, True, True)
            else:
                decoy = (lo - gap - width, lo - gap, True, True)
            label = sorted([piece, decoy], key=lambda p: (p[0] is not None, p[0] or 0))
            cons[k] = (i, j, label)
        items.append({"kind": "disjunctive", "n": n, "constraints": cons,
                      "text": network_json(n, cons)})
    return items


def jobshop(rng, count):
    """Single-machine instances of 5 tasks, every pair disjunctive.

    Seven in sixteen are windowed: two tasks get a release time and two a
    due time, taken from a hidden left-shifted schedule plus slack, so
    every instance is feasible.  The others have no windows at all, which
    makes their search the same size whatever the durations; with them in
    the majority the median operation is one of them.
    """
    items = []
    for k in range(count):
        durations = [rng.randint(1, 9) for _ in range(JOB_TASKS)]
        releases = [None] * JOB_TASKS
        dues = [None] * JOB_TASKS
        windowed = k % 16 in JOB_WINDOWED
        if windowed:
            for task in rng.sample(range(JOB_TASKS), JOB_WINDOW_TASKS):
                releases[task] = rng.randint(0, 10)
            order = list(range(JOB_TASKS))
            rng.shuffle(order)
            t, ends = 0, {}
            for task in order:
                t = max(t, releases[task] or 0) + durations[task]
                ends[task] = t
            for task in rng.sample(range(JOB_TASKS), JOB_WINDOW_TASKS):
                dues[task] = ends[task] + rng.randint(0, 6)
        tasks = list(zip(durations, releases, dues))
        doc = {
            "tasks": [
                {"d": d, **({"release": r} if r is not None else {}),
                 **({"due": u} if u is not None else {})}
                for d, r, u in tasks
            ],
            "disjunctions": [[a, b] for a in range(1, JOB_TASKS + 1)
                             for b in range(a + 1, JOB_TASKS + 1)],
        }
        items.append({"kind": "windowed" if windowed else "open", "tasks": tasks,
                      "text": json.dumps(doc)})
    return items


GENERATORS = {
    "stp-extract": stp_extract,
    "stp-pathcons": stp_pathcons,
    "disjunctive-solve": disjunctive,
    "jobshop": jobshop,
}


def make(workload: str, seed, count: int):
    """``count`` inputs of ``workload``; the same seed gives the same inputs."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), count)

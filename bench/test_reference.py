"""Tests of the benchmark's reference computations.

    python3 -m pytest bench -q

The hand-made cases pin each reference on its own; the agreement cases
check that the references and today's program agree on generated inputs,
so a disagreement in a benchmark run points at the program.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import corpus
from reference import (
    best_makespan,
    entry_from_distances,
    piece_contains,
    piece_text,
    satisfies,
    schedule_violation,
    shortest_paths,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

INF = None


def closed(lo, hi):
    return [(lo, hi, lo is not None, hi is not None)]


# -- shortest paths ------------------------------------------------------------


def test_chain_domains_are_the_shortest_path_bounds():
    chain = [(0, 1, closed(10, 20)), (0, 4, closed(60, 70)), (1, 2, closed(30, 40)),
             (2, 3, closed(-20, -10)), (3, 4, closed(40, 50))]
    d = shortest_paths(4, chain)
    assert [piece_text(entry_from_distances(d, 0, i)) for i in range(1, 5)] == [
        "[10,20]", "[40,50]", "[20,30]", "[60,70]"]


def test_open_ends_make_strict_distances():
    d = shortest_paths(2, [(0, 1, [(0, 5, True, False)]), (1, 2, [(1, 2, False, True)])])
    assert d[0][2] == (7, True)
    assert d[2][0] == (-1, True)
    assert entry_from_distances(d, 0, 2) == (1, 7, False, False)


def test_unreachable_pairs_stay_infinite():
    d = shortest_paths(2, [(0, 1, [(3, None, True, False)])])
    assert d[0][1] is INF and d[1][0] == (-3, False)
    assert entry_from_distances(d, 0, 2) == (None, None, False, False)


@pytest.mark.parametrize("constraints", [
    # a hidden circuit of weight -16 away from the origin
    [(0, 1, closed(10, 20)), (1, 2, [(30, None, True, False)]), (2, 3, closed(-20, -10)),
     (2, 4, [(None, 4, False, True)]), (3, 4, closed(40, 50))],
    # a circuit through an unbounded label that creeps by 16 per pass
    [(0, 1, [(30, None, True, False)]), (1, 2, closed(-20, -10)),
     (1, 3, [(None, 4, False, False)]), (2, 3, closed(40, 50))],
    # a strictly-zero circuit: x1 < -2 but x1 = -5 - (-3)
    [(0, 1, [(-5, -2, True, False)]), (0, 2, closed(-5, -5)), (1, 2, closed(-3, -3))],
])
def test_negative_and_strictly_zero_circuits_are_inconsistent(constraints):
    n = max(j for _, j, _ in constraints)
    assert shortest_paths(n, constraints) is None


def test_a_zero_circuit_of_closed_edges_is_consistent():
    cons = [(0, 1, [(-5, -2, True, True)]), (0, 2, closed(-5, -5)), (1, 2, closed(-3, -3))]
    d = shortest_paths(2, cons)
    assert d is not None and entry_from_distances(d, 0, 1) == (-2, -2, True, True)


# -- constraint evaluation -----------------------------------------------------


def test_pieces_respect_open_and_closed_ends():
    piece = (0, 5, False, True)
    assert not piece_contains(piece, 0)
    assert piece_contains(piece, Fraction(1, 1000))
    assert piece_contains(piece, 5)
    assert not piece_contains(piece, Fraction(5001, 1000))
    assert piece_contains((None, None, False, False), -10**9)
    assert not piece_contains((None, 3, False, False), 3)


def test_satisfies_needs_one_piece_of_every_label():
    cons = [(0, 1, [(None, -2, False, True), (3, 4, True, False)]), (1, 2, closed(1, 1))]
    assert satisfies(cons, [0, 3, 4])
    assert satisfies(cons, [0, -2, -1])
    assert not satisfies(cons, [0, 4, 5])       # 4 is the open end
    assert not satisfies(cons, [0, 0, 1])       # in the gap
    assert not satisfies(cons, [0, 3, 5])       # second label broken


# -- the single-machine oracle --------------------------------------------------


def test_fragmentation_counterexample_has_makespan_6():
    # task 1 (d=2, release 4, due 7) and task 2 (d=3), one machine
    tasks = [(2, 4, 7), (3, None, None)]
    assert best_makespan(tasks) == 6
    assert schedule_violation(tasks, [4, 0]) is None


def test_due_times_force_the_order_and_can_make_it_infeasible():
    assert best_makespan([(3, None, None), (2, 0, 2)]) == 5
    assert best_makespan([(5, 0, 5), (5, 0, 5)]) is None
    assert best_makespan([(2, 10, None), (1, None, None)]) == 12


def test_schedule_violations_are_named():
    tasks = [(2, 1, 5), (3, None, None)]
    assert "before its release" in schedule_violation(tasks, [0, 3])
    assert "after its due time" in schedule_violation(tasks, [4, 0])
    assert "overlap" in schedule_violation(tasks, [1, 2])
    assert schedule_violation(tasks, [1, 3]) is None


# -- the generators say what they make --------------------------------------------


def test_stp_extract_corpus_kinds_match_the_reference():
    items = corpus.make("stp-extract", 7, 16)
    kinds = [item["kind"] for item in items]
    assert kinds.count("circuit") == 2 and kinds.count("creep") == 2
    for item in items:
        d = shortest_paths(item["n"], item["constraints"])
        assert (d is not None) == (item["kind"] == "consistent")


def test_jobshop_instances_are_feasible():
    for item in corpus.make("jobshop", 7, 20):
        assert best_makespan(item["tasks"]) is not None


# -- agreement with the program ----------------------------------------------------


def test_references_agree_with_the_program_on_stps():
    from tcsp import Outcome, bdac3, network_from_json, pc1, pc2

    rng = random.Random(12)
    for _ in range(30):
        cons = corpus.consistent_stp(rng, 12, 16, detached=2)
        d = shortest_paths(12, cons)
        net = network_from_json(corpus.network_json(12, cons))
        first, second, third = net.copy(), net.copy(), net.copy()
        assert bdac3(first).outcome is Outcome.CONSISTENT
        assert [str(x) for x in first.domains()] == [
            piece_text(entry_from_distances(d, 0, i)) for i in range(1, 13)]
        assert pc1(second).outcome is Outcome.CONSISTENT
        assert pc2(third).outcome is Outcome.CONSISTENT
        for i in range(13):
            for j in range(13):
                if i != j:
                    want = piece_text(entry_from_distances(d, i, j))
                    assert str(second.entry(i, j)) == want
                    assert str(third.entry(i, j)) == want


def test_the_oracle_agrees_with_the_scheduler():
    from tcsp import SchedulingInstance, Task, optimum

    rng = random.Random(34)
    for k in range(40):
        n = 3 + k % 3
        tasks = []
        for _ in range(n):
            d = rng.randint(1, 9)
            release = rng.randint(0, 10) if rng.random() < 0.5 else None
            due = (release or 0) + d + rng.randint(0, 20) if rng.random() < 0.4 else None
            tasks.append((d, release, due))
        inst = SchedulingInstance(
            tasks=tuple(Task(d, r, u) for d, r, u in tasks),
            disjunctions=tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)),
        )
        best = best_makespan(tasks)
        found = optimum(inst)
        if best is None:
            assert found is None
        else:
            assert found.makespan == best
            assert schedule_violation(tasks, found.start_times) is None

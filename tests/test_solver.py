"""Origin connection, backtrack-free solution reading, and the disjunctive solver."""

from __future__ import annotations

import collections
import functools
import itertools
import random
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randnets import (
    bench_module,
    chain_stp,
    fragmenting_tcsp,
    hidden_circuit_stp,
    oracle_consistent,
    random_consistent_stp,
    random_detached_stp,
    random_disjunctive_tcsp,
    random_zero_circuit_stp,
    rebuilt_by_set_pair,
    strict_zero_circuit_stp,
)
from tcsp import (
    ExtractionDeadEnd,
    Interval,
    IntervalUnion,
    NegativeCircuit,
    NotSingleton,
    Outcome,
    PreconditionViolated,
    Tcsp,
    backtrack_free,
    bdac3,
    build_tcsp,
    check_solution,
    connect_x0,
    consistent,
    disconnected_variables,
    extract_solution,
    floyd_warshall,
    is_bd_arc_consistent,
    is_refinement,
    is_stp,
    parse_union,
    pc1,
    pc2,
    solve,
    stp_to_graph,
    wbdac3,
)
from tcsp import propagation, solver
from tcsp.network import first_empty_entry

U = parse_union


def _filtered_chain():
    net = chain_stp()
    bdac3(net)
    return net


# -- connect_x0 -----------------------------------------------------------------------


def test_connect_x0_leaves_connected_networks_alone():
    net = _filtered_chain()
    snapshot = net.copy()
    assert connect_x0(net)
    assert net == snapshot


def test_connect_x0_anchors_isolated_variables():
    net = build_tcsp(2, [(0, 1, U("[1,2]"))])
    bdac3(net)
    assert connect_x0(net)
    assert net.entry(0, 2) == U("[0,+inf)")
    assert net.entry(2, 0) == U("(-inf,0]")


def test_connect_x0_anchors_the_lowest_disconnected_variable_first():
    net = build_tcsp(3, [(2, 3, U("[5,5]"))])
    bdac3(net)
    assert connect_x0(net)
    # X1 and X2 both got anchored; X3 follows from X2 through the constraint
    assert net.entry(0, 1) == U("[0,+inf)")
    assert net.entry(0, 2) == U("[0,+inf)")
    assert net.entry(0, 3) == U("[5,+inf)")


def test_connect_x0_exposes_a_circuit_hiding_in_a_disconnected_component():
    # the creeping circuit among X2..X4, with X1 tied to the origin
    net = build_tcsp(
        4,
        [
            (0, 1, U("[0,1]")),
            (2, 3, U("[-20,-10]")),
            (2, 4, U("(-inf,4]")),
            (3, 4, U("[40,50]")),
        ],
    )
    assert bdac3(net).outcome is Outcome.CONSISTENT  # the circuit is invisible from X0
    assert not connect_x0(net)


def _loose_iff_universal(net) -> bool:
    loose = set(disconnected_variables(net))
    return all((v in loose) == net.m[0][v].is_universal() for v in range(1, net.n_vars + 1))


def test_a_consistent_fixpoint_is_disconnected_exactly_where_a_domain_is_universal():
    # the property connect_x0's one connectivity search rests on, checked
    # at a bdac3 fixpoint, after each anchor connect_x0 would set, and after
    # pc2, whose derived entries join the constrained pairs
    rng = random.Random(2024)
    anchored = after_pc2 = 0
    for _ in range(300):
        net = random_detached_stp(rng)
        closed = net.copy()
        if pc2(closed).outcome is Outcome.CONSISTENT:
            assert _loose_iff_universal(closed), str(net.domains())
            after_pc2 += 1
        if bdac3(net).outcome is not Outcome.CONSISTENT:
            continue
        assert _loose_iff_universal(net), str(net.domains())
        while disconnected_variables(net):
            net.set_pair(0, disconnected_variables(net)[0], U("[0,+inf)"))
            if bdac3(net).outcome is not Outcome.CONSISTENT:
                break
            assert _loose_iff_universal(net), str(net.domains())
            anchored += 1
    assert anchored >= 100 and after_pc2 >= 100, (anchored, after_pc2)


def test_lemma_a_a_bd_arc_consistent_stp_is_loose_exactly_where_a_domain_is_universal():
    # lemma (a) of backtrack_free, the one connectivity read it makes: on
    # detached, fractional (a tree of three apart from X0) and strict-zero
    # networks, at the bdac3 fixpoint
    rng = random.Random(3131)
    nets = [random_detached_stp(rng) for _ in range(500)]
    for _ in range(300):
        n = rng.randint(9, 12)  # fewer pairs lie within the parts than it asks for
        nets.append(build_tcsp(n, [
            (i, j, IntervalUnion([Interval(*piece) for piece in label]))
            for i, j, label in _fractional_constraints(rng, n)]))
    nets += [random_zero_circuit_stp(rng) for _ in range(300)]
    checked = loose = 0
    for net in nets:
        if bdac3(net).outcome is not Outcome.CONSISTENT:
            continue
        assert is_bd_arc_consistent(net) and first_empty_entry(net) is None
        assert _loose_iff_universal(net), str(net.domains())
        checked += 1
        loose += bool(disconnected_variables(net))
    assert checked >= 900 and loose >= 700, (checked, loose)


def _connect_x0_spec(net, trace, anchored) -> bool:
    """connect_x0 as it was first written: search connectivity after every
    anchor.  Each anchored variable is appended to ``anchored``."""
    anchor = U("[0,+inf)")
    first = True
    while True:
        loose = disconnected_variables(net)
        if not loose:
            return True
        anchored.append(loose[0])
        net.set_pair(0, loose[0], anchor)
        changed = None if first else (0, loose[0])
        if bdac3(net, changed=changed, trace=trace).outcome is not Outcome.CONSISTENT:
            return False
        first = False


def test_connect_x0_matches_a_connectivity_search_after_every_anchor(monkeypatch):
    trace: list = []
    monkeypatch.setattr(solver, "bdac3", functools.partial(bdac3, trace=trace))
    rng = random.Random(77)
    skipped = refuted = 0
    for _ in range(300):
        raw = random_detached_stp(rng)
        fixpoint = raw.copy()
        closed = raw.copy()
        inputs = [raw]  # off the fixpoint
        if bdac3(fixpoint).outcome is Outcome.CONSISTENT:
            inputs.append(fixpoint)
        if pc2(closed).outcome is Outcome.CONSISTENT:
            inputs.append(closed)
        for net in inputs:
            expected_net, expected_trace, anchored = net.copy(), [], []
            expected = _connect_x0_spec(expected_net, expected_trace, anchored)
            loose = len(disconnected_variables(net))
            trace.clear()
            assert connect_x0(net) == expected, str(raw.domains())
            assert net == expected_net and trace == expected_trace, str(raw.domains())
            refuted += not expected
            # an earlier anchor reached a variable the up-front search found loose
            skipped += expected and len(anchored) < loose
    assert skipped >= 100 and refuted >= 10, (skipped, refuted)


def test_connect_x0_requires_an_stp():
    with pytest.raises(Exception) as err:
        connect_x0(fragmenting_tcsp())
    assert "stp" in type(err.value).__name__.lower() or "Stp" in type(err.value).__name__


# -- backtrack-free solution extraction ---------------------------------------------------


def test_backtrack_free_reads_off_the_chain_solution():
    net = backtrack_free(_filtered_chain())
    assert extract_solution(net) == [0, 10, 40, 20, 60]
    assert check_solution(chain_stp(), extract_solution(net))


def test_backtrack_free_works_in_place():
    net = _filtered_chain()
    assert backtrack_free(net) is net
    assert net.entry(0, 1) == U("{10}")


@pytest.mark.parametrize(
    "label, value",
    [
        ("[2,4]", 2),  # a closed lower bound is taken as-is
        ("(2,4)", 3),  # fully open: the midpoint
        ("(2,4]", 3),  # half-open below: still the midpoint
        ("(5,+inf)", 6),  # open and unbounded above: one past the bound
        ("[5,+inf)", 5),
        ("(-inf,7]", 7),
        ("(-inf,3)", 2),  # open above with no lower bound: one before
        ("(0,1)", "1/2"),
    ],
)
def test_backtrack_free_value_selection(label, value):
    net = build_tcsp(1, [(0, 1, U(label))])
    bdac3(net)
    solved = backtrack_free(net)
    assert extract_solution(solved) == [0, Fraction(value)]


def test_backtrack_free_propagates_each_pin():
    # pinning X1 must narrow X2 before its value is chosen
    net = build_tcsp(2, [(0, 1, U("[3,9]")), (1, 2, U("[1,2]"))])
    bdac3(net)
    solution = extract_solution(backtrack_free(net))
    assert solution == [0, 3, 4]
    assert check_solution(build_tcsp(2, [(0, 1, U("[3,9]")), (1, 2, U("[1,2]"))]), solution)


def test_backtrack_free_preconditions():
    with pytest.raises(PreconditionViolated, match="^not an all-convex network$"):
        backtrack_free(fragmenting_tcsp())
    with pytest.raises(PreconditionViolated, match="^network is not bdArc-consistent$"):
        backtrack_free(chain_stp())  # not filtered yet
    disconnected = build_tcsp(2, [(0, 1, U("[1,2]"))])
    bdac3(disconnected)
    with pytest.raises(PreconditionViolated, match="^X2 is not connected with the origin$"):
        backtrack_free(disconnected)  # X2 floats free
    # the universal-domain read is lemma (a) only at a bdArc-consistent
    # network, so that check comes first: X2 is universal but connected
    # through X1, and X3 floats free
    unfiltered = build_tcsp(3, [(0, 1, U("[1,5]")), (1, 2, U("[0,1]"))])
    with pytest.raises(PreconditionViolated, match="^network is not bdArc-consistent$"):
        backtrack_free(unfiltered)
    empty = _filtered_chain()
    empty.set_pair(0, 2, IntervalUnion.empty())
    with pytest.raises(PreconditionViolated, match=r"^entry \(0, 2\) is already empty$"):
        backtrack_free(empty)
    # an empty constraint between two nonempty domains is named, too
    empty_pair = build_tcsp(2, [(0, 1, U("[0,5]")), (0, 2, U("[0,5]"))])
    empty_pair.set_pair(1, 2, IntervalUnion.empty())
    with pytest.raises(PreconditionViolated, match=r"entry \(1, 2\)"):
        backtrack_free(empty_pair)


def test_backtrack_free_never_backtracks_on_random_networks():
    rng = random.Random(6060)
    for _ in range(120):
        net, _ = random_consistent_stp(rng)
        original = net.copy()
        bdac3(net)
        solution = extract_solution(backtrack_free(net))
        assert check_solution(original, solution)


def test_extract_solution_requires_singletons():
    with pytest.raises(NotSingleton):
        extract_solution(_filtered_chain())


# -- the disjunctive solver -----------------------------------------------------------------


def _select_by_full_scan(net):
    """Reference for ``_select_disjunctive``: every disjunctive entry of the
    upper triangle, fewest pieces first, then lowest (i, j)."""
    found = [(len(net.m[i][j].parts), (i, j))
             for i in range(net.n_vars + 1) for j in range(i + 1, net.n_vars + 1)
             if not net.m[i][j].is_convex()]
    return min(found)[1] if found else None


def test_select_disjunctive_takes_the_fewest_pieces_then_the_lowest_pair():
    two, three, four = U("[0,1] u [3,4]"), U("[0,1] u [3,4] u [6,7]"), U("{0} u {2} u {4} u {6}")
    cases = (
        ([(0, 1, three), (1, 2, two), (0, 3, two), (2, 3, three)], (0, 3)),
        ([(0, 1, three), (0, 2, three), (1, 3, two)], (1, 3)),
        ([(0, 1, four), (1, 2, three), (2, 3, three), (1, 3, four)], (1, 2)),
        ([(2, 3, two), (0, 3, three), (1, 2, two)], (1, 2)),
        ([(0, 1, U("[0,1]")), (2, 3, U("(-inf,5)"))], None),
    )
    for constraints, expected in cases:
        net = build_tcsp(3, constraints)
        assert solver._select_disjunctive(net) == expected == _select_by_full_scan(net)
    rng = random.Random(5151)
    for _ in range(200):
        net = random_disjunctive_tcsp(rng)
        assert solver._select_disjunctive(net) == _select_by_full_scan(net)


def test_consistent_golden_verdicts():
    assert consistent(fragmenting_tcsp())
    assert consistent(chain_stp())
    assert not consistent(hidden_circuit_stp())


def test_solve_fragmenting_network():
    result = solve(fragmenting_tcsp())
    assert result.consistent
    assert result.solution == [0, -2, -6]
    assert check_solution(fragmenting_tcsp(), result.solution)
    assert result.witness is None


def test_solve_returns_an_stp_witness_on_request():
    original = fragmenting_tcsp()
    result = solve(original, witness=True)
    assert result.consistent and result.witness is not None
    assert is_stp(result.witness)
    assert is_bd_arc_consistent(result.witness)
    assert is_refinement(result.witness, original)
    assert check_solution(result.witness, result.solution)


def test_solve_does_not_mutate_its_input():
    net = fragmenting_tcsp()
    solve(net, witness=True)
    assert net == fragmenting_tcsp()
    bad = hidden_circuit_stp()
    solve(bad)
    assert bad == hidden_circuit_stp()


def test_solve_inconsistent_network():
    result = solve(hidden_circuit_stp())
    assert not result.consistent and result.solution is None and result.witness is None


def test_solve_handles_degenerate_networks():
    assert solve(build_tcsp(0, [])).solution == [0]
    assert solve(build_tcsp(3, [])).solution == [0, 0, 0, 0]
    poisoned = chain_stp()
    poisoned.set_pair(1, 2, IntervalUnion.empty())
    assert not solve(poisoned).consistent


def test_a_strict_zero_circuit_hides_from_propagation_but_not_from_extraction():
    # the circuit X1 -> X2 -> X3 -> X1 weighs (-2)~ + (-3) + 5: strictly
    # negative with zero slack, so each pass tightens domains only by a
    # strictness flip and the fixpoint keeps every domain nonempty --
    # propagation alone cannot disprove this network
    net = strict_zero_circuit_stp()
    with pytest.raises(NegativeCircuit):
        floyd_warshall(stp_to_graph(net))  # the oracle's view: inconsistent
    probe = net.copy()
    assert bdac3(probe).outcome is Outcome.CONSISTENT
    assert is_bd_arc_consistent(probe)
    assert [str(probe.m[0][i]) for i in (1, 2, 3)] == ["(-6,0)", "(-8,-2)", "(-11,-5)"]
    with pytest.raises(ExtractionDeadEnd):
        backtrack_free(probe)
    assert not consistent(net)
    result = solve(net)
    assert not result.consistent and result.solution is None


def test_solve_branches_through_deep_disjunctions():
    # force the solver off the first convex piece: X1 in [0,1] u [10,11] but
    # X2 - X1 in [0,1] while X2 must sit in [10,12]
    net = build_tcsp(
        2,
        [
            (0, 1, U("[0,1] u [10,11]")),
            (1, 2, U("[0,1]")),
            (0, 2, U("[10,12]")),
        ],
    )
    result = solve(net)
    assert result.consistent
    assert check_solution(net, result.solution)
    assert result.solution[1] >= 10  # the first piece cannot work


def test_solve_agrees_with_the_exhaustive_oracle():
    rng = random.Random(777003)
    order = random.Random(3)
    consistent_seen = inconsistent_seen = 0
    for _ in range(60):
        net = random_disjunctive_tcsp(rng)
        expected = oracle_consistent(net)
        result = solve(net, witness=True)
        assert result.consistent == expected, str(net.domains())
        assert solve(rebuilt_by_set_pair(net, order), witness=True) == result
        if expected:
            consistent_seen += 1
            assert check_solution(net, result.solution)
            assert is_refinement(result.witness, net)
        else:
            inconsistent_seen += 1
            assert result.solution is None
    # the generator must exercise both verdicts for the comparison to mean much
    assert consistent_seen >= 10 and inconsistent_seen >= 5


@pytest.mark.slow
@pytest.mark.parametrize("n, count", [(5, 300), (6, 150)])
def test_solve_agrees_with_the_exhaustive_oracle_at_scale(n, count):
    # the oracle tries every choice of pieces: on a 2-CPU Python 3.11 box
    # these 150 networks of six variables take about 4 s, 40 of seven take 5 s
    # and one of eight up to 23 s; few random networks this size are consistent
    rng = random.Random(n)
    consistent_seen = 0
    for _ in range(count):
        net = random_disjunctive_tcsp(rng, n)
        result = solve(net, witness=True)
        assert result.consistent == oracle_consistent(net), str(net.domains())
        if result.consistent:
            consistent_seen += 1
            assert check_solution(net, result.solution)
            assert is_refinement(result.witness, net)
    assert consistent_seen >= 3


_DENOMINATORS = (2, 3, 7)


def _fractional_constraints(rng, n):
    """The constraints of a consistent STP on n variables, in the reference's
    form, around a hidden witness whose values have denominators 2, 3 and 7.

    X1..X(n-3) hang off X0 by a random tree, and the last three variables
    form a tree of their own, which anchoring has to reach.  2n - 2 more
    pairs within a part get a label too.  Each label holds the witness strictly
    inside, its ends a fraction of denominator 2, 3 or 7 away and open or
    closed at random; one end in five is missing.  Below n = 9 the parts
    hold fewer than 3n - 3 pairs, which raises ``ValueError``.
    """
    linked = n - 3
    if linked < 0 or comb(linked + 1, 2) + 3 < 3 * n - 3:
        raise ValueError(f"the parts of {n} variables hold fewer than {3 * n - 3} pairs")
    xs = [Fraction(0)] + [Fraction(rng.randint(-300, 300), rng.choice(_DENOMINATORS))
                          for _ in range(n)]
    pairs = {(rng.randrange(i), i) for i in range(1, linked + 1)}
    pairs |= {(rng.randrange(linked + 1, j), j) for j in range(linked + 2, n + 1)}
    while len(pairs) < 3 * n - 3:
        i, j = sorted(rng.sample(range(n + 1), 2))
        if (i <= linked) == (j <= linked):
            pairs.add((i, j))
    constraints = []
    for i, j in sorted(pairs):
        diff = xs[j] - xs[i]
        lo, hi = (None if rng.random() < 0.2 else
                  diff + sign * Fraction(rng.randint(1, 30), rng.choice(_DENOMINATORS))
                  for sign in (-1, 1))
        constraints.append((i, j, [(lo, hi, lo is not None and rng.random() < 0.5,
                                    hi is not None and rng.random() < 0.5)]))
    return constraints


def test_fractional_constraints_refuse_too_few_variables_before_drawing():
    rng = random.Random(9)
    state = rng.getstate()
    for n in range(1, 9):
        with pytest.raises(ValueError, match=f"fewer than {3 * n - 3} pairs$"):
            _fractional_constraints(rng, n)
        assert rng.getstate() == state
    assert len(_fractional_constraints(rng, 9)) == 24  # every pair within the parts


@pytest.mark.slow
@pytest.mark.parametrize("n", [40, 80])
def test_extraction_agrees_with_the_reference_at_scale(monkeypatch, n):
    # the program against bench/reference.py, which shares no code with it:
    # bdac3's domains are the shortest-path domains, and the extracted
    # solution meets every constraint, open and closed ends exact
    reference = bench_module("reference")
    rescaled = []
    pin = propagation._Run.pin

    def pinned(run, j, value):
        scale = run.scale
        pin(run, j, value)
        rescaled.append(run.scale != scale)

    monkeypatch.setattr(propagation._Run, "pin", pinned)
    rng = random.Random(n)
    for _ in range(3):  # the reference's Fraction sums take about 2 s at n = 80
        constraints = _fractional_constraints(rng, n)
        net = build_tcsp(n, [(i, j, IntervalUnion([Interval(*piece) for piece in label]))
                             for i, j, label in constraints])
        distances = reference.shortest_paths(n, constraints)
        assert distances is not None
        assert bdac3(net).outcome is Outcome.CONSISTENT
        pieces = [domain.parts[0] for domain in net.domains()]
        assert [(p.lo, p.hi, p.lo_closed, p.hi_closed) for p in pieces] == [
            reference.entry_from_distances(distances, 0, i) for i in range(1, n + 1)]
        assert connect_x0(net)
        assert reference.satisfies(constraints, extract_solution(backtrack_free(net)))
    assert any(rescaled) and not all(rescaled)


@pytest.mark.slow
@pytest.mark.parametrize("n, count", [(40, 2), (80, 1)])
def test_path_consistency_agrees_with_the_reference_at_scale(n, count):
    # pc1 and pc2, traced (over labels) and untraced (over the labels'
    # bounds), against bench/reference.py: every entry is the shortest-path
    # entry, open and closed ends exact, the detached variables' universal.
    # A trace that keeps no entry sends a run over labels all the same; pc1
    # traces about a million steps at n = 80
    reference = bench_module("reference")
    rng = random.Random(n)
    for _ in range(count):
        constraints = _fractional_constraints(rng, n)
        net = build_tcsp(n, [(i, j, IntervalUnion([Interval(*piece) for piece in label]))
                             for i, j, label in constraints])
        distances = reference.shortest_paths(n, constraints)
        assert distances is not None
        for algorithm in (pc1, pc2):
            for trace in (None, collections.deque(maxlen=0)):
                worked = net.copy()
                assert algorithm(worked, trace=trace).outcome is Outcome.CONSISTENT
                mismatched = [
                    (i, j) for i in range(n + 1) for j in range(n + 1)
                    if [(p.lo, p.hi, p.lo_closed, p.hi_closed) for p in worked.m[i][j].parts]
                    != [reference.entry_from_distances(distances, i, j)]
                ]
                assert mismatched == [], (algorithm.__name__, trace is not None)


def _two_piece_constraints(rng, n):
    """The constraints of a network on n variables, in the reference's form,
    with at most 6 labels of two pieces and every other label convex.

    A random tree over X0..Xn and n more pairs get a label around a hidden
    integer witness, its ends 0..2 away, closed at 0 and otherwise open or
    closed at random, one end in seven missing.
    One to six of them are two closed pieces instead, 1..12 apart, one of
    them around the witness.  In half the networks one of those has its
    pieces on either side of the witness instead, 1..12 away, which may
    leave no solution that the pieces' hulls would show.
    """
    xs = [0] + [rng.randint(-100, 100) for _ in range(n)]
    pairs = {(rng.randrange(i), i) for i in range(1, n + 1)}
    while len(pairs) < 2 * n:
        pairs.add(tuple(sorted(rng.sample(range(n + 1), 2))))
    pairs = sorted(pairs)
    split = set(rng.sample(pairs, rng.randint(1, 6)))
    moved = rng.choice(sorted(split)) if rng.random() < 0.5 else None
    constraints = []
    for i, j in pairs:
        diff = xs[j] - xs[i]
        if (i, j) == moved:
            below, above = diff - rng.randint(1, 12), diff + rng.randint(1, 12)
            label = [(below - rng.randint(0, 3), below, True, True),
                     (above, above + rng.randint(0, 3), True, True)]
        elif (i, j) in split:
            lo, hi = diff - rng.randint(0, 3), diff + rng.randint(0, 3)
            gap, width = rng.randint(1, 12), rng.randint(0, 3)
            decoy = ((hi + gap, hi + gap + width, True, True) if rng.random() < 0.5
                     else (lo - gap - width, lo - gap, True, True))
            label = sorted([(lo, hi, True, True), decoy])
        else:
            lo, hi = (None if rng.random() < 1 / 7 else diff + sign * rng.randint(0, 2)
                      for sign in (-1, 1))
            label = [(lo, hi, lo is not None and (lo == diff or rng.random() < 0.5),
                      hi is not None and (hi == diff or rng.random() < 0.5))]
        constraints.append((i, j, label))
    return constraints


def _reference_consistent(reference, n, constraints) -> bool:
    """Does any choice of one piece per label leave an STP that the
    reference's shortest paths find consistent?"""
    choices = itertools.product(*([(i, j, [piece]) for piece in label]
                                  for i, j, label in constraints))
    return any(reference.shortest_paths(n, list(choice)) is not None for choice in choices)


@pytest.mark.slow
@pytest.mark.parametrize("n, count", [(20, 60), (30, 40), (40, 30)])
def test_solve_agrees_with_the_reference_on_two_piece_networks(n, count):
    # the reference enumerates every piece choice, 64 at most, and decides
    # each with its own shortest paths; it shares no code with tcsp
    reference = bench_module("reference")
    rng = random.Random(n)
    verdicts = set()
    for _ in range(count):
        constraints = _two_piece_constraints(rng, n)
        net = build_tcsp(n, [(i, j, IntervalUnion([Interval(*piece) for piece in label]))
                             for i, j, label in constraints])
        result = solve(net)
        assert result.consistent == _reference_consistent(reference, n, constraints), constraints
        if result.consistent:
            assert reference.satisfies(constraints, result.solution), constraints
        verdicts.add(result.consistent)
    assert verdicts == {True, False}


def test_solve_a_network_assembled_with_set_pair():
    # Tcsp(n) starts with no constrained pair; the off-origin write declares one
    net = Tcsp(2)
    net.set_pair(1, 2, U("[1,2]"))
    net.set_pair(0, 1, U("[0,5]"))
    result = solve(net)
    assert result.consistent and check_solution(net, result.solution)


@st.composite
def _constraints(draw):
    """A network size and one constraint per drawn pair, pieces in [-8, 8]."""
    n = draw(st.integers(1, 4))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda p: p[0] != p[1]),
        max_size=7,
        unique_by=frozenset,
    ))
    # a point piece is closed at both ends
    piece = st.tuples(st.integers(-8, 8), st.integers(0, 5), st.booleans(), st.booleans()).map(
        lambda t: Interval(t[0], t[0] + t[1], t[2] or not t[1], t[3] or not t[1])
    )
    label = st.one_of(
        st.just(IntervalUnion.universal()),
        st.lists(piece, min_size=1, max_size=2).map(IntervalUnion),
    )
    return n, [(i, j, draw(label)) for i, j in pairs]


@settings(max_examples=200, deadline=None)
@given(_constraints(), st.randoms(use_true_random=False))
def test_set_pair_networks_agree_with_build_tcsp(case, rng):
    n, constraints = case
    built = build_tcsp(n, constraints)
    assembled = rebuilt_by_set_pair(built, rng)
    assert assembled == built
    assert consistent(assembled) == consistent(built)
    assert solve(assembled, witness=True) == solve(built, witness=True)
    for algorithm in (bdac3, wbdac3):
        a, b = assembled.copy(), built.copy()
        assert algorithm(a).outcome is algorithm(b).outcome
        assert a == b


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_search_depth_is_not_bound_by_the_recursion_limit():
    # each inter-variable disjunction is one level of search, and the arc
    # passes never rewrite an inter-variable label, so this search goes 80
    # levels deep before its first leaf
    depth = 80
    net = build_tcsp(depth + 1, [(i, i + 1, U("{-1} u {1}")) for i in range(1, depth + 1)])
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 40)
    try:
        result = solve(net)
    finally:
        sys.setrecursionlimit(saved)
    assert result.consistent
    # the first piece of every label is taken, and X1 is anchored at 0
    assert result.solution == [Fraction(0)] + [Fraction(-k) for k in range(depth + 1)]

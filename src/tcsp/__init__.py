"""Exact temporal constraint networks.

Difference constraints ``x_j - x_i in label`` with interval-union labels
over exact rationals; arc- and path-consistency passes with divergence
clamps; conversions to rooted distance graphs and shortest paths with
open/closed strictness; a backtracking solver for disjunctive networks;
and a branch-and-bound job-shop scheduler built on all of it.

The usual entry points:

* build a network -- :func:`build_tcsp`, :func:`network_from_json`
* propagate -- :func:`bdac3`, :func:`wbdac3`, :func:`bdac1`, :func:`pc1`,
  :func:`pc2`, :func:`minus_variant`
* decide/solve -- :func:`consistent`, :func:`solve`
* graphs -- :func:`stp_to_graph`, :func:`graph_to_stp`, :func:`floyd_warshall`,
  :func:`bellman_ford`
* schedule -- :func:`compile_instance`, :func:`optimum`
"""

from .errors import (
    DimensionMismatch,
    EmptyLabel,
    ExtractionDeadEnd,
    InvalidInstance,
    MalformedDomain,
    NegativeCircuit,
    NegativeCircuitReachable,
    NetworkFormatError,
    NotAnStp,
    NotSingleton,
    PreconditionViolated,
    TcspError,
    UnionParseError,
)
from .graph import (
    RootedDistanceGraph,
    bellman_ford,
    floyd_warshall,
    reachable,
    reachable_set,
    read_edge_list,
    write_edge_list,
)
from .intervals import (
    Interval,
    IntervalUnion,
    as_rational,
    format_union,
    parse_union,
)
from .network import (
    PathBounds,
    Tcsp,
    build_tcsp,
    check_solution,
    connectivity,
    convex_closure,
    disconnected_variables,
    down_weight,
    graph_to_stp,
    is_refinement,
    is_stp,
    network_from_json,
    network_to_json,
    path_bounds,
    path_range,
    stp_to_graph,
    up_weight,
)
from .propagation import (
    Outcome,
    RunReport,
    TraceEntry,
    bdac1,
    bdac3,
    format_trace_line,
    is_bd_arc_consistent,
    minus_variant,
    pc1,
    pc2,
    revise,
    wbdac3,
)
from .scheduling import (
    Schedule,
    SchedulingInstance,
    Task,
    clique_cover,
    compile_instance,
    head_bound,
    instance_from_json,
    olb,
    optimum,
    schedule_metrics,
)
from .solver import (
    SolveResult,
    backtrack_free,
    connect_x0,
    consistent,
    extract_solution,
    solve,
)
from .weights import (
    INF,
    ZERO,
    Weight,
    format_weight,
    parse_weight,
    w_add,
    w_leq,
    w_less,
    w_min,
    weight,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatch", "EmptyLabel", "ExtractionDeadEnd", "InvalidInstance",
    "MalformedDomain",
    "NegativeCircuit", "NegativeCircuitReachable", "NetworkFormatError",
    "NotAnStp", "NotSingleton", "PreconditionViolated", "TcspError",
    "UnionParseError",
    "RootedDistanceGraph", "bellman_ford", "floyd_warshall", "reachable",
    "reachable_set", "read_edge_list", "write_edge_list",
    "Interval", "IntervalUnion", "as_rational", "format_union",
    "parse_union",
    "PathBounds", "Tcsp", "build_tcsp", "check_solution", "connectivity",
    "convex_closure", "disconnected_variables", "down_weight", "graph_to_stp",
    "is_refinement", "is_stp", "network_from_json", "network_to_json",
    "path_bounds", "path_range", "stp_to_graph", "up_weight",
    "Outcome", "RunReport", "TraceEntry", "bdac1", "bdac3",
    "format_trace_line", "is_bd_arc_consistent", "minus_variant", "pc1",
    "pc2", "revise", "wbdac3",
    "Schedule", "SchedulingInstance", "Task", "clique_cover", "compile_instance",
    "head_bound", "instance_from_json", "olb", "optimum", "schedule_metrics",
    "SolveResult", "backtrack_free", "connect_x0", "consistent",
    "extract_solution", "solve",
    "INF", "ZERO", "Weight", "format_weight", "parse_weight", "w_add",
    "w_leq", "w_less", "w_min", "weight",
    "__version__",
]

"""A committed mutation check: broken copies of the code that the tests must fail.

Each entry names a file, an exact snippet of it, the snippet's replacement
and the tests expected to fail on the broken copy.  For each entry the
script copies ``src/``, ``tests/``, ``bench/`` and ``pyproject.toml`` to a
temporary directory, runs the entry's tests there unmutated and requires
them to pass, applies the replacement, runs them again under a timeout and
requires a failure (a run past the timeout counts as one).  An entry whose
snippet is not found exactly once is reported as stale, so a refactor
updates the list instead of silently dropping an entry.

Run from anywhere, with the test dependencies installed::

    python tests/mutants.py             # every entry
    python tests/mutants.py NAME ...    # the named entries only

It exits 0 when every entry is killed, 1 otherwise, and 2 on an unknown
name.  pytest does not collect this file: its name does not match
``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: Tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    Mutant(
        "backtrack-free-reads-no-universal-domain",
        "src/tcsp/solver.py",
        "        if net.m[0][v].is_universal():",
        "        if False:",
        ("tests/test_solver.py::test_backtrack_free_preconditions",),
    ),
    Mutant(
        "is-bd-arc-consistent-always-true",
        "src/tcsp/propagation.py",
        "            if run.revise(0, m, k):",
        "            if run.revise(0, m, k) and False:",
        ("tests/test_solver.py::test_backtrack_free_preconditions",
         "tests/test_propagation.py::test_is_bd_arc_consistent_flags_unfiltered_networks",
         "tests/test_propagation.py::"
         "test_is_bd_arc_consistent_agrees_with_composition_and_subset",
         "tests/test_propagation.py::"
         "test_is_bd_arc_consistent_reads_one_piece_arcs_off_their_bounds"),
    ),
    Mutant(
        "is-bd-arc-consistent-narrows-on-a-tie",
        "src/tcsp/propagation.py",
        "                if down is None or path < down:",
        "                if down is None or path <= down:",
        ("tests/test_propagation.py::test_is_bd_arc_consistent_flags_unfiltered_networks",
         "tests/test_propagation.py::"
         "test_is_bd_arc_consistent_agrees_with_composition_and_subset",
         "tests/test_propagation.py::"
         "test_is_bd_arc_consistent_reads_one_piece_arcs_off_their_bounds"),
    ),
    Mutant(
        "is-bd-arc-consistent-ends-its-run",
        "src/tcsp/propagation.py",
        "            if run.revise(0, m, k):\n                return False",
        "            if run.revise(0, m, k):\n                run.end(Outcome.CONSISTENT)\n"
        "                return False",
        ("tests/test_propagation.py::test_is_bd_arc_consistent_writes_nothing",),
    ),
    Mutant(
        "pick-value-takes-an-excluded-lower-end",
        "src/tcsp/solver.py",
        "        if down[1]:\n            return -down[0]",
        "        if True:\n            return -down[0]",
        ("tests/test_solver.py::test_backtrack_free_value_selection",),
    ),
    Mutant(
        "held-pins-run-clamped",
        "src/tcsp/propagation.py",
        'run = _Run(net, "bdac3", clamp=False, arcs=True)',
        'run = _Run(net, "bdac3", arcs=True)',
        ("tests/test_propagation.py::test_the_held_pins_run_as_one_bdac3_run_per_pin",),
    ),
    Mutant(
        "clamp-floor-at-path-ub",
        "src/tcsp/propagation.py",
        "            floor = self.floor = path_bounds(self.net).path_lb.bound",
        "            floor = self.floor = path_bounds(self.net).path_ub.bound",
        ("tests/test_propagation.py::test_the_held_pins_run_as_one_bdac3_run_per_pin",),
    ),
    Mutant(
        "held-pins-corpus-without-leaves",
        "tests/test_propagation.py",
        "    leaves = list(_disjunctive_leaves(400))\n    dead_ends = floor_reads",
        "    leaves = []\n    dead_ends = floor_reads",
        ("tests/test_propagation.py::test_the_held_pins_run_as_one_bdac3_run_per_pin",),
    ),
    Mutant(
        "floor-read-off-a-written-network",
        "src/tcsp/propagation.py",
        "        if floor is None:\n            floor = self.floor",
        "        if floor is None:\n"
        "            if self.down is not None:\n"
        "                self.write_back()\n"
        "            floor = self.floor",
        ("tests/test_propagation.py::test_untraced_arc_passes_equal_the_label_run",),
    ),
    Mutant(
        "bdac1-stops-after-one-pass",
        "src/tcsp/propagation.py",
        "        if outcome is not Outcome.CONSISTENT or run.domain_updates == updates:",
        "        if True:",
        ("tests/test_propagation.py::"
         "test_the_clamp_ends_every_clamped_engine_on_a_diverging_circuit",),
    ),
    Mutant(
        "worklist-takes-a-step-past-the-budget",
        "src/tcsp/propagation.py",
        "        if budget is not None and run.revise_calls >= budget:",
        "        if budget is not None and run.revise_calls > budget:",
        ("tests/test_propagation.py::test_bdac3_minus_runs_out_of_budget_on_the_hidden_circuit",),
    ),
    Mutant(
        "connectivity-forward-only",
        "src/tcsp/network.py",
        "    return [a or b for a, b in zip(forward, backward)]",
        "    return forward",
        ("tests/test_solver.py::"
         "test_lemma_a_a_bd_arc_consistent_stp_is_loose_exactly_where_a_domain_is_universal",),
    ),
    Mutant(
        "connectivity-skips-row-0",
        "src/tcsp/network.py",
        "        for v in neighbours[u] if u else range(1, len(seen)):",
        "        for v in neighbours[u]:",
        ("tests/test_network.py::"
         "test_connectivity_matches_the_distance_graph_of_the_convex_closure",),
    ),
    Mutant(
        "check-solution-ignores-the-scale-on-label-ends",
        "src/tcsp/network.py",
        "                if scale != 1:\n                    up = up and",
        "                if False:\n                    up = up and",
        ("tests/test_network.py::test_check_solution_agrees_with_the_per_pair_reference",),
    ),
    Mutant(
        "select-disjunctive-ignores-the-piece-count",
        "src/tcsp/solver.py",
        "            if width > 1 and (best is None or width < fewest):",
        "            if width > 1:\n                return (i, j)\n            if False:",
        ("tests/test_solver.py::"
         "test_select_disjunctive_takes_the_fewest_pieces_then_the_lowest_pair",),
    ),
    Mutant(
        "search-branches-on-the-first-piece-only",
        "src/tcsp/propagation.py",
        "for piece in node.m[i][j].convex_parts())",
        "for piece in node.m[i][j].convex_parts()[:1])",
        ("tests/test_solver.py::test_solve_agrees_with_the_reference_on_two_piece_networks",),
    ),
    Mutant(
        "olb-maxes-over-no-tasks",
        "src/tcsp/scheduling.py",
        "    if net.n_vars == 0:\n        raise InvalidInstance",
        "    if net.n_vars < 0:\n        raise InvalidInstance",
        ("tests/test_scheduling.py::test_olb_error_cases",),
    ),
    Mutant(
        "graph-accepts-a-negative-vertex-count",
        "src/tcsp/graph.py",
        "        if n_vars < 0:",
        "        if n_vars < -1:",
        ("tests/test_weights_graph.py::test_graph_needs_a_nonnegative_vertex_count",),
    ),
    Mutant(
        "set-pair-writes-any-label",
        "src/tcsp/network.py",
        "        if not isinstance(label, IntervalUnion):\n"
        '            raise TypeError(f"label must be an IntervalUnion, got {type(label).__name__}")\n'
        "        self.m[i][j] = label",
        "        self.m[i][j] = label",
        ("tests/test_network.py::"
         "test_set_pair_rejects_the_diagonal_and_a_label_that_is_not_a_union",),
    ),
    Mutant(
        "weight-text-of-a-bare-tilde-parses",
        "src/tcsp/weights.py",
        "    if not t:\n        raise",
        "    if not t:\n        t = '0'\n    if not t:\n        raise",
        ("tests/test_cli.py::test_a_malformed_document_exits_2_with_its_message",),
    ),
    Mutant(
        "worklist-ignores-an-emptied-entry",
        "src/tcsp/propagation.py",
        "            if run.emptied is not None:\n                return Outcome.EMPTY_DOMAIN",
        "            if False:\n                return Outcome.EMPTY_DOMAIN",
        ("tests/test_propagation.py::"
         "test_bdac3_detects_the_circuit_hidden_behind_an_infinite_edge",),
    ),
    Mutant(
        "write-back-drops-the-emptied-entry",
        "src/tcsp/propagation.py",
        "        if self.emptied is not None:\n            net.set_pair(*self.emptied",
        "        if False:\n            net.set_pair(*self.emptied",
        ("tests/test_propagation.py::"
         "test_bdac3_detects_the_circuit_hidden_behind_an_infinite_edge",
         "tests/test_propagation.py::test_the_worklist_runs_pc2_as_specified"),
    ),
    Mutant(
        "pc1-on-bounds-ends-the-run-at-its-stop",
        "src/tcsp/propagation.py",
        "                    return None",
        "                    return run.end(Outcome.EMPTY_DOMAIN)",
        ("tests/test_propagation.py::test_untraced_pc1_on_an_stp_equals_the_label_sweep",),
    ),
    Mutant(
        "up-weight-closes-a-strict-end",
        "src/tcsp/network.py",
        "    return _weight(label.parts[-1]._up) if label.parts else INF",
        "    _up = label.parts[-1]._up if label.parts else None\n"
        "    return _weight(_up and (_up[0], True)) if label.parts else INF",
        ("tests/test_acceptance.py::"
         "test_c10_graph_round_trip_is_the_identity_on_all_bound_shapes",),
    ),
    Mutant(
        "head-bound-sorts-earliest-starts-ascending",
        "src/tcsp/scheduling.py",
        "sorted(clique, key=est.__getitem__, reverse=True)",
        "sorted(clique, key=est.__getitem__)",
        ("tests/test_scheduling.py::"
         "test_head_bound_sums_the_tasks_that_cannot_start_earlier",),
    ),
    Mutant(
        "refinements-stack-children-unreversed",
        "src/tcsp/propagation.py",
        "        stack.extend(reversed(children))",
        "        stack.extend(children)",
        ("tests/test_propagation.py::"
         "test_refinements_visit_children_depth_first_in_piece_order",),
    ),
    Mutant(
        "floyd-warshall-misses-a-strict-zero-circuit",
        "src/tcsp/graph.py",
        "                    if i == j and cand < _CLOSED_ZERO:",
        "                    if i == j and cand < (0, False):",
        ("tests/test_weights_graph.py::"
         "test_floyd_warshall_treats_zero_strict_diagonal_as_negative",),
    ),
    Mutant(
        "clamp-floor-1000-times-too-low",
        "src/tcsp/propagation.py",
        "        if self.scale != 1:\n            floor = (floor[0] * self.scale, floor[1])",
        "        floor = (floor[0] * 1000, floor[1])\n"
        "        if self.scale != 1:\n            floor = (floor[0] * self.scale, floor[1])",
        ("tests/test_propagation.py::"
         "test_the_clamp_ends_every_clamped_engine_on_a_diverging_circuit",),
    ),
    Mutant(
        "earliest-start-reads-the-last-piece",
        "src/tcsp/scheduling.py",
        "    return -parts[0]._down[0]",
        "    return -parts[-1]._down[0]",
        ("tests/test_scheduling.py::"
         "test_no_child_of_a_search_node_lowers_the_completion_bound",),
    ),
    Mutant(
        "due-window-open-above",
        "src/tcsp/scheduling.py",
        "            window = IntervalUnion.span(lo, hi)",
        "            window = IntervalUnion.span(lo, hi, True, False)",
        ("tests/test_scheduling.py::"
         "test_every_search_node_keeps_the_label_forms_that_optimum_reads",),
    ),
    Mutant(
        "pins-skip-the-re-enqueue",
        "src/tcsp/propagation.py",
        "        outcome = _worklist(run, _arcs_reading(net, (0, t)), again)",
        "        outcome = _worklist(run, _arcs_reading(net, (0, t)), lambda *step: [])",
        ("tests/test_solver.py::test_extraction_agrees_with_the_reference_at_scale",),
    ),
    Mutant(
        "seeded-bdac3-skips-the-emptiness-check",
        "src/tcsp/propagation.py",
        "        if net.m[changed[0]][changed[1]].is_empty():",
        "        if False:",
        ("tests/test_propagation.py::"
         "test_a_seeded_run_reports_an_emptied_entry_without_revising",),
    ),
    Mutant(
        "add-closes-a-sum-when-either-end-is-closed",
        "src/tcsp/intervals.py",
        "    return (_plus(a[0], b[0]), a[1] and b[1])",
        "    return (_plus(a[0], b[0]), a[1] or b[1])",
        ("tests/test_intervals.py::test_compose_openness_and_infinities",),
    ),
)


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "out", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _passes(tree: Path, tests: Tuple[str, ...]) -> bool:
    """Do ``tests`` pass against the copy at ``tree``?  False on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def run(mutant: Mutant, unmutated: Dict[Tuple[str, ...], bool]) -> str:
    """The verdict on one entry: killed, survived, stale or unsound."""
    with tempfile.TemporaryDirectory(prefix="tcsp-mutant-") as copy:
        tree = Path(copy)
        _copy_tree(tree)
        target = tree / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            return "stale: the snippet is not found exactly once"
        if mutant.tests not in unmutated:
            unmutated[mutant.tests] = _passes(tree, mutant.tests)
        if not unmutated[mutant.tests]:
            return "unsound: the tests fail on the unmutated copy"
        target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        return "survived" if _passes(tree, mutant.tests) else "killed"


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such entries: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    unmutated: Dict[Tuple[str, ...], bool] = {}
    failed = 0
    for mutant in chosen:
        verdict = run(mutant, unmutated)
        failed += verdict != "killed"
        print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces public functions of the tcsp modules with wrappers at
the names their callers look up (``solver.bdac3`` is the name the solver
calls, ``propagation.path_bounds`` the one propagation calls), so no file
under ``src/`` changes.  Each wrapper opens a span; a span's self time is
its duration minus the time of the spans it encloses.  Self times are kept
raw per operation and scaled by that operation's calibration factor when
``flush`` is called; counts are kept per round.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

EXTRACT = "solver.extract"


class Tracer:
    def __init__(self):
        self.stack = []                 # [key, time of enclosed spans]
        self.raw = defaultdict(float)   # self seconds of the open operation
        self.scaled = defaultdict(float)
        self.counts = Counter()
        self._undo = []

    # -- spans --------------------------------------------------------------

    def wrap(self, key, fn, before=None, after=None):
        """``fn`` timed as layer ``key``; ``before(tracer)`` runs on entry,
        ``after(tracer, result, error)`` on exit."""
        stack, raw, clock = self.stack, self.raw, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(self)
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                spent = clock() - t0
                stack.pop()
                raw[key] += spent - frame[1]
                if stack:
                    stack[-1][1] += spent
                if after is not None:
                    after(self, result, error)

        return traced

    def patch(self, owner, name, key, before=None, after=None):
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, self.wrap(key, original, before, after))

    def unpatch(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def run(self, key, fn, *args):
        """Run ``fn`` as the root span of one operation."""
        return self.wrap(key, fn)(*args)

    def flush(self, factor: float):
        """Scale the finished operation's self times and add them up."""
        for key, seconds in self.raw.items():
            self.scaled[key] += seconds * factor
        self.raw.clear()


# -- what each layer counts ---------------------------------------------------


def _count(name):
    def before(tracer):
        tracer.counts[name] += 1
    return before


def _report(tracer, result, error):
    if result is not None:
        tracer.counts["propagation.revise_calls"] += result.revise_calls
        tracer.counts["propagation.domain_updates"] += result.domain_updates


def _leaf_count(name):
    def before(tracer):
        # bdac3 calls the solver makes outside extraction are leaves
        if not any(frame[0] == EXTRACT for frame in tracer.stack):
            tracer.counts[name] += 1
    return before


def _dead_end(dead_end_type):
    def after(tracer, result, error):
        if isinstance(error, dead_end_type):
            tracer.counts["solver.dead_ends"] += 1
    return after


def install(tracer: Tracer, T):
    """Wrap every layer boundary of the program modules in ``T``."""
    P, N, I, G, S, J = T.propagation, T.network, T.intervals, T.graph, T.solver, T.scheduling
    for alg in ("bdac3", "wbdac3", "pc1", "pc2"):
        tracer.patch(P, alg, f"propagation.{alg}", after=_report)
    tracer.patch(S, "bdac3", "propagation.bdac3", before=_leaf_count("solver.leaves"), after=_report)
    tracer.patch(S, "wbdac3", "propagation.wbdac3", before=_count("solver.search_nodes"), after=_report)
    tracer.patch(J, "bdac3", "propagation.bdac3", before=_count("scheduling.nodes"), after=_report)
    tracer.patch(P, "path_bounds", "network.path_bounds", before=_count("network.path_bounds_calls"))
    tracer.patch(N.Tcsp, "copy", "network.copy", before=_count("network.copy_calls"))
    tracer.patch(I.IntervalUnion, "compose", "intervals.compose", before=_count("intervals.compose_calls"))
    for name in ("intersect", "__and__"):
        tracer.patch(I.IntervalUnion, name, "intervals.intersect",
                     before=_count("intervals.intersect_calls"))
    tracer.patch(G, "floyd_warshall", "graph.floyd_warshall")
    tracer.patch(S, "connect_x0", EXTRACT)
    tracer.patch(S, "backtrack_free", EXTRACT, after=_dead_end(T.errors.ExtractionDeadEnd))
    tracer.patch(S, "solve", "solver.self")
    tracer.patch(J, "olb", "scheduling.olb", before=_count("scheduling.bounded_nodes"))
    if T.cli is not None:
        tracer.patch(T.cli, "optimum", "scheduling.self")
        tracer.patch(T.cli, "main", "cli.self")

"""Benchmark of the tcsp exact solver: one workload per invocation.

    python3 bench/run.py --workload stp-extract --seed 1 --seconds 15 --trace 0

Generates the workload's inputs from the seed, sets the program up, then
runs whole rounds over the inputs in a closed loop (one caller, one
thread): at least one, and more while they fit in ``--seconds``.  Every
output is checked against ``reference``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its full report to ``bench/out/``.  Every time is
scaled by the calibration loop (``calib``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import corpus
from calib import CAL_REF, calibrate
from tracing import Tracer, install
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
SETUP_CAL_SAMPLES = 3  # calibration loops on each side of a set-up; their median scales it

COUNTS = (
    "propagation.revise_calls", "propagation.domain_updates",
    "network.path_bounds_calls", "network.copy_calls",
    "intervals.compose_calls", "intervals.intersect_calls",
    "solver.search_nodes", "solver.leaves", "solver.dead_ends",
    "scheduling.nodes", "scheduling.bounded_nodes",
)
SELF_TIMES = (  # span key + "_ms"; milliseconds per operation
    "propagation.bdac3_ms", "propagation.wbdac3_ms", "propagation.pc1_ms",
    "propagation.pc2_ms", "network.path_bounds_ms", "network.copy_ms",
    "intervals.compose_ms", "intervals.intersect_ms", "graph.floyd_warshall_ms",
    "solver.extract_ms", "solver.self_ms", "scheduling.olb_ms",
    "scheduling.self_ms", "cli.self_ms",
)


def load_program(with_cli: bool) -> SimpleNamespace:
    """Import tcsp from this checkout's ``src/`` afresh and return its modules."""
    for name in [m for m in sys.modules if m == "tcsp" or m.startswith("tcsp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tcsp")
    if Path(pkg.__file__).resolve().parent != SRC / "tcsp":
        raise ImportError(f"tcsp was imported from {pkg.__file__}, not from {SRC}")
    mod = lambda name: importlib.import_module(f"tcsp.{name}")  # noqa: E731
    return SimpleNamespace(
        errors=mod("errors"), intervals=mod("intervals"), network=mod("network"),
        graph=mod("graph"), propagation=mod("propagation"), solver=mod("solver"),
        scheduling=mod("scheduling"), cli=mod("cli") if with_cli else None,
    )


def scaled_call(fn, *args, samples=1):
    """(result, scaled seconds, raw seconds) of ``fn(*args)``, calibrated on
    both sides by the median of ``samples`` calibration loops."""
    before = statistics.median(calibrate() for _ in range(samples))
    t0 = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - t0
    after = statistics.median(calibrate() for _ in range(samples))
    return result, raw * CAL_REF * 2 / (before + after), raw


class Run:
    """One workload's inputs, their reference answers and what went wrong."""

    def __init__(self, wl, items, warm):
        self.wl, self.items, self.warm = wl, items, warm
        self.expected = [wl.expect(item) for item in items]
        self.problems = []   # wrong outputs
        self.failures = []   # operations that raised
        self.attempted = 0

    def tear_down(self):
        """Drop the last set-up, so that the next one starts from the state a
        fresh process is in, with no earlier corpus alive."""
        self.T = self.copy = self.parsed = self.warm_out = None
        gc.collect()

    def set_up(self):
        """Import the program, read every input, run the warm-up operation.

        The warm-up input does not depend on the seed, so set-up costs the
        same on every seed.
        """
        wl = self.wl
        self.T = load_program(wl.needs_cli)
        self.copy = self.T.network.Tcsp.copy
        self.parsed = [wl.read(self.T, item) for item in self.items]
        self.warm_out = wl.op(self.T, wl.prepare(self.copy, wl.read(self.T, self.warm)))

    def rounds(self, seconds, tracer=None):
        """At least one whole round, and more while they fit in ``seconds``;
        returns scaled and raw op times and, when traced, each round's counts."""
        wl, T = self.wl, self.T
        scaled, raw, per_round = [], [], []
        start = time.perf_counter()
        while True:
            for k, item in enumerate(self.items):
                arg = wl.prepare(self.copy, self.parsed[k])
                self.attempted += 1
                try:
                    if tracer is None:
                        out, s, r = scaled_call(wl.op, T, arg)
                    else:
                        out, s, r = scaled_call(tracer.run, "bench.op", wl.op, T, arg)
                        tracer.flush(s / r)
                except Exception:
                    self.failures.append(f"{wl.name} #{k} raised: {traceback.format_exc(limit=3)}")
                    if tracer is not None:
                        tracer.raw.clear()
                    continue
                scaled.append(s)
                raw.append(r)
                trouble = wl.check(item, self.expected[k], out)
                if trouble is not None:
                    self.problems.append(f"{wl.name} #{k}: {trouble}")
            per_round.append(dict(tracer.counts) if tracer is not None else {})
            if tracer is not None:
                tracer.counts.clear()
            # another round only if it should end within the budget
            elapsed = time.perf_counter() - start
            if elapsed * (len(per_round) + 1) / len(per_round) > seconds:
                return scaled, raw, per_round


def end_to_end(scaled, raw):
    return {
        "ops_per_s": len(scaled) / sum(scaled),
        "op_ms_p50": statistics.median(scaled) * 1e3,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_ms_p50": statistics.median(raw) * 1e3,
    }


def traced(run, seed, seconds):
    """Per-layer metrics from a traced pass, against an untraced pass of the same inputs."""
    wl = run.wl
    plain = end_to_end(*run.rounds(seconds / 2)[:2])
    tracer = Tracer()
    install(tracer, run.T)
    tracer.patch(run.T.network, "network_from_json", "network.parse")
    tracer.patch(run.T.scheduling, "instance_from_json", "network.parse")
    _, s, r = scaled_call(lambda: [wl.read(run.T, item) for item in run.items])
    tracer.flush(s / r)
    parse_ms = tracer.scaled.pop("network.parse") * 1e3
    tracer.scaled.clear()
    scaled, raw, per_round = run.rounds(seconds / 2, tracer)
    tracer.unpatch()
    counts = per_round[0]
    ops = len(scaled)
    metrics = {name: (counts.get(name, 0), "count/round") for name in COUNTS}
    revise = counts.get("propagation.revise_calls", 0)
    metrics["propagation.update_ratio"] = (
        counts.get("propagation.domain_updates", 0) / revise if revise else 0.0, "ratio")
    for name in SELF_TIMES:
        metrics[name] = (tracer.scaled.get(name.removesuffix("_ms"), 0.0) * 1e3 / ops, "ms/op")
    metrics["network.parse_ms"] = (parse_ms, "ms")
    with_trace = end_to_end(scaled, raw)
    overhead = 100 * (plain["ops_per_s"] / with_trace["ops_per_s"] - 1)
    metrics["trace.overhead_pct"] = (overhead, "%")
    called = {name.split(".")[0] for name, (value, _) in metrics.items() if value} | {"trace"}
    report = {
        "workload": wl.name, "seed": seed, "rounds": len(per_round),
        "inputs_per_round": len(run.items), "cal_ref_s": CAL_REF,
        "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()
                      if name.split(".")[0] in called},
        "unattributed_ms_per_op": tracer.scaled.get("bench.op", 0.0) * 1e3 / ops,
        "untraced": plain, "traced": with_trace,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{wl.name}-seed{seed}.json").write_text(json.dumps(report, indent=2) + "\n")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tcsp" / "__init__.py").is_file():
        print(f"error: no tcsp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]

    items = corpus.make(wl.name, args.seed, wl.count)
    warm = corpus.make(wl.name, "warm-up", 1)[0]
    inputs = OUT / f"inputs-{os.getpid()}"
    try:
        if wl.needs_cli:
            inputs.mkdir(parents=True, exist_ok=True)
            for k, item in enumerate(items + [warm]):
                item["path"] = str(inputs / f"{k}.json")
                Path(item["path"]).write_text(item["text"], encoding="utf-8")
        run = Run(wl, items, warm)
        setups = []
        for _ in range(SETUP_REPEATS):
            run.tear_down()
            setups.append(scaled_call(run.set_up, samples=SETUP_CAL_SAMPLES)[1])
        trouble = wl.check(warm, wl.expect(warm), run.warm_out)
        if trouble is not None:
            run.problems.append(f"warm-up: {trouble}")
        # the inputs and references live for the whole run: keep the
        # collector from walking them during timed operations
        gc.collect()
        gc.freeze()
        if args.trace:
            metrics = traced(run, args.seed, args.seconds)
        else:
            e2e = end_to_end(*run.rounds(args.seconds)[:2])
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (e2e["ops_per_s"], "op/s"),
                "op_ms_p50": (e2e["op_ms_p50"], "ms"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    for line in (run.problems + run.failures)[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

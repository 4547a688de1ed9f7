"""Steadiness check: every workload in two sets of runs, medians and quartiles.

    python3 bench/steady.py [--runs 5]

Runs every workload of BENCHMARK.json for its ``run_seconds``.  Set A
uses seeds 1..runs, set B seeds 1001..1000+runs; the runs alternate A, B,
A, B so that a slow stretch of the machine hits both sets.  For each
end-to-end metric and workload it prints both sets' medians and quartiles,
the spread (interquartile range over median) of each set and of all runs
together, and the shift of B's median from A's in the metric's worse
direction.  A metric passes when every spread and the shift stay within its
bound in BENCHMARK.json.  The "needs" column is the bound the runs would
justify: three times the spread of all runs, or twice the shift, whichever
is larger.
Raw results go to ``bench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: correct={result['correct']} failed={result['failed']}\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    results = {w: {"A": [], "B": []} for w in workloads}
    for k in range(args.runs):
        for w in workloads:
            for label, seed in (("A", 1 + k), ("B", 1001 + k)):
                t0 = time.perf_counter()
                results[w][label].append(one_run(w, seed, seconds))
                print(f"  {w} set {label} seed {seed}: {time.perf_counter() - t0:.1f} s",
                      file=sys.stderr, flush=True)

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(
        json.dumps({"seconds": seconds, "runs": args.runs, "results": results}, indent=2))

    ok = True
    print(f"{'workload':18} {'metric':13} {'A median [q1, q3]':>30} {'spread':>7}"
          f" {'B median [q1, q3]':>30} {'spread':>7} {'all':>6} {'shift':>7} {'bound':>6} {'needs':>6}")
    for w in workloads:
        for name, m in metrics.items():
            a = summary([r[name] for r in results[w]["A"]])
            b = summary([r[name] for r in results[w]["B"]])
            both = summary([r[name] for r in results[w]["A"] + results[w]["B"]])
            worse = 1 if m["better"] == "lower" else -1
            shift = worse * (b[1] - a[1]) / a[1]
            passed = max(a[3], b[3], both[3]) <= m["bound"] and shift <= m["bound"]
            ok &= passed
            needs = max(3 * both[3], 2 * abs(shift))
            print(f"{w:18} {name:13} {a[1]:>12.5g} [{a[0]:.5g}, {a[2]:.5g}] {a[3]:>7.3f}"
                  f" {b[1]:>12.5g} [{b[0]:.5g}, {b[2]:.5g}] {b[3]:>7.3f} {both[3]:>6.3f} {shift:>+7.3f}"
                  f" {m['bound']:>6.3f} {needs:>6.3f}{'' if passed else '  FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

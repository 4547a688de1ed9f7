"""The four workloads: how each reads its inputs, what one operation does,
and how its output is checked against ``reference``.

Every workload is a closed loop with one caller.  ``T`` is the namespace of
freshly imported tcsp modules (see ``run.load_program``); operations look
functions up through it at call time, so the tracer's wrappers take effect.
Outputs are compared through the program's canonical text forms (label and
weight strings, JSON), which the CLI contract keeps stable.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

from reference import (
    best_makespan,
    entry_from_distances,
    piece_text,
    satisfies,
    schedule_violation,
    shortest_paths,
    weight_text,
)


class Workload:
    name = ""
    count = 0        # inputs per round
    needs_cli = False

    def read(self, T, item):
        """The program's reader; runs during set-up."""
        return T.network.network_from_json(item["text"])

    def expect(self, item):
        """The reference answer; computed once, outside every timed region."""
        return shortest_paths(item["n"], item["constraints"])

    def prepare(self, copy, parsed):
        """Untimed: the argument of one operation (a fresh copy if it mutates)."""
        return copy(parsed)

    def op(self, T, arg):
        raise NotImplementedError

    def check(self, item, expected, out):
        """None when ``out`` is right, else what is wrong."""
        raise NotImplementedError


class StpExtract(Workload):
    name = "stp-extract"
    count = 200

    def op(self, T, net):
        P, S = T.propagation, T.solver
        if P.bdac3(net).outcome is not P.Outcome.CONSISTENT:
            return None
        domains = net.domains()
        if not S.connect_x0(net):
            return None
        try:
            S.backtrack_free(net)
        except T.errors.ExtractionDeadEnd:
            return None
        return domains, S.extract_solution(net)

    def check(self, item, d, out):
        if d is None or out is None:
            return None if d is None and out is None else (
                f"verdict {'consistent' if out else 'inconsistent'}, reference says otherwise")
        domains, solution = out
        n = item["n"]
        want = [piece_text(entry_from_distances(d, 0, i)) for i in range(1, n + 1)]
        got = [str(x) for x in domains]
        if got != want:
            k = next(k for k in range(n) if got[k] != want[k])
            return f"domain of X{k + 1} is {got[k]}, shortest paths give {want[k]}"
        if not satisfies(item["constraints"], solution):
            return "extracted solution violates a constraint"
        return None


class StpPathcons(Workload):
    name = "stp-pathcons"
    count = 56

    def prepare(self, copy, net):
        return net, copy(net), copy(net)

    def op(self, T, arg):
        net, first, second = arg
        P = T.propagation
        r1 = P.pc1(first)
        r2 = P.pc2(second)
        fw = T.graph.floyd_warshall(T.network.stp_to_graph(net))
        return r1, first, r2, second, fw

    def check(self, item, d, out):
        r1, first, r2, second, fw = out
        if r1.outcome.value != "consistent" or r2.outcome.value != "consistent":
            return f"pc1 said {r1.outcome.value}, pc2 said {r2.outcome.value} on a consistent network"
        size = item["n"] + 1
        for i in range(size):
            for j in range(size):
                want = "{0}" if i == j else piece_text(entry_from_distances(d, i, j))
                for alg, net in (("pc1", first), ("pc2", second)):
                    got = str(net.entry(i, j))
                    if got != want:
                        return f"{alg} entry ({i}, {j}) is {got}, the minimal network has {want}"
                got = str(fw.edge(i, j))
                if got != weight_text(d[i][j]):
                    return f"floyd_warshall d({i}, {j}) is {got}, reference {weight_text(d[i][j])}"
        return None


class DisjunctiveSolve(Workload):
    name = "disjunctive-solve"
    count = 400

    def expect(self, item):
        return None  # built around a witness: consistent by construction

    def prepare(self, copy, net):
        return net  # solve never mutates its input

    def op(self, T, net):
        return T.solver.solve(net)

    def check(self, item, expected, result):
        if not result.consistent:
            return "solve says inconsistent, but the network has a witness"
        if not satisfies(item["constraints"], result.solution):
            return "solution violates an original constraint"
        return None


class Jobshop(Workload):
    name = "jobshop"
    count = 112
    needs_cli = True

    def read(self, T, item):
        path = item["path"]
        T.scheduling.instance_from_json(Path(path).read_text(encoding="utf-8"))
        return path

    def expect(self, item):
        return best_makespan(item["tasks"])

    def prepare(self, copy, path):
        return path

    def op(self, T, path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = T.cli.main(["schedule", path, "--format", "json"])
        return code, buf.getvalue()

    def check(self, item, best, out):
        code, text = out
        if code != 0:
            return f"tcsp schedule exited {code} on a feasible instance"
        doc = json.loads(text)
        makespan = Fraction(doc["makespan"])
        if makespan != best:
            return f"makespan {makespan}, order enumeration gives {best}"
        starts = [Fraction(s) for s in doc["starts"]]
        trouble = schedule_violation(item["tasks"], starts)
        if trouble is not None:
            return trouble
        if max(s + t[0] for s, t in zip(starts, item["tasks"])) != makespan:
            return "printed makespan is not the latest end of the printed starts"
        return None


WORKLOADS = {w.name: w for w in (StpExtract(), StpPathcons(), DisjunctiveSolve(), Jobshop())}

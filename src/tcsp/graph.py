"""Rooted distance graphs and exact shortest-path machinery.

A network on variables X0..Xn turns into a complete digraph on vertices
0..n where the weight of (i, j) bounds ``x_j - x_i`` from above.  Upper
endpoints of labels become forward weights, lower endpoints become negated
backward weights, and open endpoints become strict weights, so shortest
paths computed here are exact including open/closed distinctions.  A
weight holds the bound the interval kernel stores for that end (``_up`` or
``_down``, see :mod:`tcsp.intervals`), and Floyd-Warshall relaxes on the
bounds directly.
"""

from __future__ import annotations

import re
from typing import Callable, List, Sequence, Set, Tuple

from .errors import NegativeCircuit, NegativeCircuitReachable, NetworkFormatError
from .intervals import _CLOSED_ZERO, _add
from .weights import INF, ZERO, Weight, _weight, format_weight, parse_weight, w_add, w_less


class RootedDistanceGraph:
    """Complete weighted digraph on vertices 0..n_vars; vertex 0 is the root.

    Missing edges carry +inf, the diagonal is pinned at 0.
    """

    __slots__ = ("n_vars", "w")

    def __init__(self, n_vars: int):
        if n_vars < 0:
            raise ValueError("n_vars must be >= 0")
        self.n_vars = n_vars
        size = n_vars + 1
        self.w = [
            [ZERO if i == j else INF for j in range(size)] for i in range(size)
        ]

    def vertices(self) -> range:
        return range(self.n_vars + 1)

    def _check(self, i: int, j: int):
        if not (0 <= i <= self.n_vars and 0 <= j <= self.n_vars):
            raise IndexError(f"vertex out of range: ({i}, {j})")

    def edge(self, i: int, j: int) -> Weight:
        self._check(i, j)
        return self.w[i][j]

    def set_edge(self, i: int, j: int, weight: Weight):
        self._check(i, j)
        if i == j:
            raise ValueError("the diagonal is fixed at weight 0")
        self.w[i][j] = weight

    def finite_edges(self) -> List[Tuple[int, int, Weight]]:
        """All off-diagonal finite-weight edges, sorted by (i, j)."""
        out = []
        for i in self.vertices():
            row = self.w[i]
            for j in self.vertices():
                if i != j and row[j].bound is not None:
                    out.append((i, j, row[j]))
        return out

    def copy(self) -> "RootedDistanceGraph":
        dup = RootedDistanceGraph(self.n_vars)
        dup.w = [row[:] for row in self.w]
        return dup

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootedDistanceGraph):
            return NotImplemented
        return self.n_vars == other.n_vars and self.w == other.w

    def __repr__(self):
        return f"<RootedDistanceGraph on {self.n_vars + 1} vertices>"


def floyd_warshall(g: RootedDistanceGraph) -> RootedDistanceGraph:
    """All-pairs shortest paths; raises NegativeCircuit as soon as one shows up.

    A circuit of weight 0~ (zero reached only with a strict edge) counts as
    negative: no assignment can satisfy it.
    """
    # relax on the weights' bounds and build a Weight only where an entry
    # ends up shorter
    given = [[w.bound for w in row] for row in g.w]
    dist = [row[:] for row in given]
    size = g.n_vars + 1
    for k in range(size):
        dk = dist[k]
        for i in range(size):
            dik = dist[i][k]
            if dik is None or i == k:
                continue
            di = dist[i]
            for j in range(size):
                dkj = dk[j]
                if dkj is None or j == k:
                    continue  # +inf absorbs, and the zero diagonal adds nothing
                cand = _add(dik, dkj)
                cur = di[j]
                if cur is None or cand < cur:
                    di[j] = cand
                    if i == j and cand < _CLOSED_ZERO:
                        raise NegativeCircuit(i)
    d = g.copy()
    for i in range(size):
        for j, bound in enumerate(dist[i]):
            if bound is not given[i][j]:
                d.w[i][j] = _weight(bound)
    return d


def bellman_ford(g: RootedDistanceGraph, source: int = 0) -> List[Weight]:
    """One-to-all shortest path weights from ``source``.

    Runs n_vars relaxation passes over the finite edges in sorted order
    (stopping early once a pass changes nothing), then one detection pass;
    any remaining slack means a negative circuit is reachable.
    """
    if not (0 <= source <= g.n_vars):
        raise IndexError(f"source out of range: {source}")
    edges = g.finite_edges()
    dist = [INF] * (g.n_vars + 1)
    dist[source] = ZERO
    for _ in range(g.n_vars):
        changed = False
        for i, j, w in edges:
            cand = w_add(dist[i], w)
            if w_less(cand, dist[j]):
                dist[j] = cand
                changed = True
        if not changed:
            break
    else:
        for i, j, w in edges:
            if w_less(w_add(dist[i], w), dist[j]):
                raise NegativeCircuitReachable(source)
    return dist


def _reached(rows: Sequence[Sequence], source: int, finite: Callable) -> List[bool]:
    """Which vertices ``source`` reaches over the entries rows[u][v] that are ``finite``."""
    seen = [False] * len(rows)
    seen[source] = True
    frontier = [source]
    while frontier:
        u = frontier.pop()
        for v, entry in enumerate(rows[u]):
            if not seen[v] and finite(entry):
                seen[v] = True
                frontier.append(v)
    return seen


def reachable_set(g: RootedDistanceGraph, source: int, reverse: bool = False) -> Set[int]:
    """Vertices reachable from ``source`` over finite edges (backwards if reverse)."""
    g._check(source, source)
    rows = list(zip(*g.w)) if reverse else g.w
    seen = _reached(rows, source, lambda w: w.bound is not None)
    return {v for v, hit in enumerate(seen) if hit}


def reachable(g: RootedDistanceGraph, frm: int, to: int) -> bool:
    """True when a finite-weight path leads from ``frm`` to ``to`` (reflexively)."""
    g._check(frm, to)
    return to in reachable_set(g, frm)


# -- edge-list text form -----------------------------------------------------
#
#   # vertices 5
#   0 1 20
#   1 0 -10~
#
# One finite edge per line as "i j weight"; +inf edges are implicit.  The
# header keeps isolated vertices alive across round-trips.  '#' starts a
# comment line; the first "# vertices N" comment fixes the vertex count.

_HEADER = re.compile(r"#\s*vertices\s+(\d+)\s*$")

#: The most vertices an edge list may have.  The graph is a full matrix,
#: allocated before any edge is read, so a count from a header or an edge
#: index must not size it freely; 1000 vertices keep a matrix near 8 MiB.
MAX_VERTICES = 1000


def write_edge_list(g: RootedDistanceGraph) -> str:
    lines = [f"# vertices {g.n_vars + 1}"]
    for i, j, w in g.finite_edges():
        lines.append(f"{i} {j} {format_weight(w)}")
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> RootedDistanceGraph:
    n_vertices = None
    edges: dict[Tuple[int, int], Weight] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER.match(line)
            if m:
                if n_vertices is None:
                    try:
                        n_vertices = int(m.group(1))
                    except ValueError as exc:  # past the integer digit limit
                        raise NetworkFormatError(f"line {lineno}: {exc}") from None
            elif re.match(r"#\s*vertices\b", line):
                raise NetworkFormatError(
                    f"line {lineno}: malformed header {raw.strip()!r}; "
                    "expected '# vertices N'"
                )
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise NetworkFormatError(
                f"line {lineno}: expected 'i j weight', got {raw.strip()!r}"
            )
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise NetworkFormatError(
                f"line {lineno}: bad vertex index in {raw.strip()!r}"
            ) from None
        if i < 0 or j < 0:
            raise NetworkFormatError(f"line {lineno}: negative vertex index")
        if i == j:
            raise NetworkFormatError(
                f"line {lineno}: diagonal entry ({i}, {j}) is not allowed"
            )
        if (i, j) in edges:
            raise NetworkFormatError(f"line {lineno}: duplicate edge ({i}, {j})")
        try:
            w = parse_weight(tokens[2])
        except ValueError as exc:
            raise NetworkFormatError(f"line {lineno}: {exc}") from None
        if w.is_inf():
            raise NetworkFormatError(
                f"line {lineno}: +inf edges are implicit; drop the line"
            )
        edges[(i, j)] = w
    if n_vertices is None:
        if not edges:
            raise NetworkFormatError(
                "no '# vertices N' header and no edges: cannot size the graph"
            )
        n_vertices = max(max(i, j) for i, j in edges) + 1
    if n_vertices < 1:
        raise NetworkFormatError("vertex count must be at least 1")
    if n_vertices > MAX_VERTICES:
        raise NetworkFormatError(f"{n_vertices} vertices exceed the limit of {MAX_VERTICES}")
    for i, j in edges:
        if i >= n_vertices or j >= n_vertices:
            raise NetworkFormatError(
                f"edge ({i}, {j}) exceeds the declared vertex count {n_vertices}"
            )
    g = RootedDistanceGraph(n_vertices - 1)
    for (i, j), w in edges.items():
        g.set_edge(i, j, w)
    return g

"""Static initiation-interval analysis of instruction graphs.

The acknowledge discipline makes a machine-level data flow program a
*marked graph*: every destination arc holds at most one token, and the
reverse acknowledge path behaves like a complementary place.  Model:

* for every arc ``u -> v`` add a forward edge ``u -> v`` carrying the
  arc's initial token count (0 or 1), and a reverse edge ``v -> u``
  carrying ``1 - tokens`` (the free slot / pending acknowledge);
* each edge is one instruction time long.

The steady-state firing rate of every cell in a strongly connected
component is then the **minimum cycle mean** of token count over the
component's directed cycles (classic marked-graph result), and the
graph's rate is the minimum over components reachable on the output
path.  This analysis reproduces the paper's numbers:

* a simple chain: each 2-edge forward/reverse loop carries one token ->
  rate 1/2 (the "two instruction times" refire period);
* Todd's 3-cell feedback loop with one initial value -> 1/3 (Section 7);
* the companion scheme's 4-cell loop with two values -> 2/4 = 1/2, and
  the reverse cycle of an *odd* 3-cell loop with two values -> 1/3,
  which is why the paper inserts an ID to make the loop even;
* an unbalanced fork/join: the cycle through the short arc's reverse
  edge has mean 1/3.

Gated (conditionally consumed/produced) arcs make the model an
approximation: the analysis treats them as unconditional, which matches
steady-state behaviour of the paper's constructions; the simulator is
the ground truth and the test suite cross-validates the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..errors import AnalysisError
from ..graph.graph import DataflowGraph
from ..graph.lower import lower_fifos
from ..graph.opcodes import Op
from .scc import strongly_connected

#: The machine's hard rate ceiling: one firing per two instruction times.
MAX_RATE = Fraction(1, 2)


@dataclass
class RateReport:
    """Outcome of the static rate analysis."""

    rate: Fraction                   # firings per instruction time
    critical_cycle: list[int]        # cell ids on a rate-limiting cycle
    n_components: int

    @property
    def initiation_interval(self) -> Fraction:
        if self.rate == 0:
            return Fraction(0)  # deadlocked; II undefined
        return 1 / self.rate

    @property
    def fully_pipelined(self) -> bool:
        return self.rate == MAX_RATE


def _marked_edges(g: DataflowGraph) -> list[tuple[int, int, int]]:
    """(src, dst, tokens) edges of the marked graph (forward + reverse)."""
    edges = []
    for arc in g.arcs.values():
        tokens = 1 if arc.has_initial else 0
        edges.append((arc.src, arc.dst, tokens))
        edges.append((arc.dst, arc.src, 1 - tokens))
    return edges


def _karp_min_cycle_mean(
    comp: list[int], adj: dict[int, list[tuple[int, int]]]
) -> tuple[Optional[Fraction], list[int]]:
    """Karp's minimum cycle mean on one SCC.

    Returns (mean, cycle) where ``mean`` is the minimum over directed
    cycles of (sum of edge token counts) / (number of edges), or None if
    the component has no cycle (single node without self-loop).
    """
    comp_set = set(comp)
    n = len(comp)
    if n == 1:
        v = comp[0]
        self_loops = [t for (w, t) in adj.get(v, []) if w == v]
        if not self_loops:
            return None, []
        return Fraction(min(self_loops), 1), [v]

    idx = {v: i for i, v in enumerate(comp)}
    INF = float("inf")
    # d[k][i]: min token weight of a k-edge walk from a fixed root to i.
    d = [[INF] * n for _ in range(n + 1)]
    pred: list[list[Optional[int]]] = [[None] * n for _ in range(n + 1)]
    d[0][0] = 0.0  # root = comp[0]
    edges = [
        (idx[u], idx[w], t)
        for u in comp
        for (w, t) in adj.get(u, [])
        if w in comp_set
    ]
    for k in range(1, n + 1):
        dk, dk1, pk = d[k], d[k - 1], pred[k]
        for ui, wi, t in edges:
            cand = dk1[ui] + t
            if cand < dk[wi]:
                dk[wi] = cand
                pk[wi] = ui
    best_mean: Optional[Fraction] = None
    best_v = -1
    for v in range(n):
        if d[n][v] == INF:
            continue
        worst: Optional[Fraction] = None
        for k in range(n):
            if d[k][v] == INF:
                continue
            mean = Fraction(int(d[n][v] - d[k][v]), n - k)
            if worst is None or mean > worst:
                worst = mean
        if worst is not None and (best_mean is None or worst < best_mean):
            best_mean = worst
            best_v = v
    if best_mean is None:
        return None, []
    # Recover a cycle on the critical walk: walk the predecessor chain
    # back from best_v; within n+1 hops some vertex repeats, and the
    # portion between the repeats is a cycle of the critical mean.
    walk: list[int] = []
    pos: dict[int, int] = {}
    cycle: list[int] = []
    k, v = n, best_v
    while k >= 0:
        if v in pos:
            cycle = walk[pos[v]:]
            break
        pos[v] = len(walk)
        walk.append(v)
        p = pred[k][v]
        if p is None:
            break
        v = p
        k -= 1
    if not cycle:
        cycle = walk
    return best_mean, [comp[i] for i in cycle]


def analyze_rate(g: DataflowGraph, expand_fifos: bool = True) -> RateReport:
    """Compute the steady-state firing rate bound of ``g``.

    ``expand_fifos`` lowers FIFO(d) cells to their identity chains first
    so buffer capacity participates correctly in the cycle structure.
    """
    if expand_fifos and g.cells_by_op(Op.FIFO):
        g = lower_fifos(g)
    if not g.cells:
        raise AnalysisError("empty graph")

    adj: dict[int, list[tuple[int, int]]] = {}
    for src, dst, tokens in _marked_edges(g):
        adj.setdefault(src, []).append((dst, tokens))

    sccs = strongly_connected(
        g.cells, {v: [w for w, _ in out] for v, out in adj.items()}
    )
    best: Optional[Fraction] = None
    best_cycle: list[int] = []
    for comp in sccs:
        mean, cycle = _karp_min_cycle_mean(comp, adj)
        if mean is None:
            continue
        if best is None or mean < best:
            best = mean
            best_cycle = cycle
    if best is None:
        # No cycles at all: cannot happen once reverse edges exist for
        # any arc; a graph with no arcs has undefined rate.
        raise AnalysisError("graph has no arcs; rate undefined")
    return RateReport(rate=best, critical_cycle=best_cycle, n_components=len(sccs))


def initiation_interval_bound(g: DataflowGraph) -> Fraction:
    """Shorthand: the analytical initiation interval (steps per result)."""
    return analyze_rate(g).initiation_interval


def is_fully_pipelined(g: DataflowGraph) -> bool:
    """True when the static bound equals the machine maximum of 1/2."""
    return analyze_rate(g).fully_pipelined

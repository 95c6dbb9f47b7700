"""Balancing of acyclic instruction graphs (Sections 3 and 8).

A dataflow instruction graph sustains the maximum pipelined rate only
if every reconvergent pair of paths has equal weighted length; the
compiler restores that property by inserting FIFO buffers.  Three
algorithms are provided, mirroring the paper's Section 8 conclusions:

1. **naive** (Montz) -- label every cell with its longest-path level
   and buffer each arc by its slack.  Polynomial, correct, wasteful.
2. **reduce** -- the naive labeling improved by coordinate descent:
   each cell moves within its feasible window toward the side with more
   incident arcs, often removing much of the buffering (conclusion 2).
3. **optimal** -- minimize total inserted buffer stages exactly.  The
   problem ``min sum(pi_dst - pi_src - w)`` subject to ``pi_dst -
   pi_src >= w`` is a difference-constraint LP, the linear programming
   dual of a min-cost flow (conclusion 3).  networkx's network simplex
   solves the flow; the levels are then the residual graph's
   shortest-path potentials, which pick the pointwise-earliest of the
   tied optima -- a unique answer, so buffer placement depends on
   neither pivot order nor library version.

Arc weights come from :func:`repro.analysis.paths.default_arc_weight`:
one instruction time per hop plus the array-window phase extras the
expression compiler records (Figure 4's skew).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..analysis.paths import (
    check_balance,
    default_arc_weight,
    longest_path_levels,
)
from ..errors import AnalysisError, CompileError
from ..graph.graph import DataflowGraph
from ..graph.opcodes import Op

METHODS = ("naive", "reduce", "optimal")


@dataclass
class BalanceResult:
    """Outcome of one balancing pass."""

    method: str
    levels: dict[int, int]
    inserted_stages: int = 0
    fifo_cells: list[int] = field(default_factory=list)


def _feedback_arcs(g: DataflowGraph, extra: Iterable[int] = ()) -> set[int]:
    ignored = set(extra)
    ignored.update(g.meta.get("feedback_arcs", ()))
    return ignored


def compute_levels(
    g: DataflowGraph,
    method: str = "optimal",
    ignore_arcs: Iterable[int] = (),
) -> dict[int, int]:
    """Level (pipeline stage time) assignment for every cell."""
    if method not in METHODS:
        raise CompileError(f"unknown balancing method {method!r}")
    ignored = tuple(_feedback_arcs(g, ignore_arcs))
    if method == "naive":
        return longest_path_levels(g, ignore_arcs=ignored)
    if method == "reduce":
        naive = longest_path_levels(g, ignore_arcs=ignored)
        return _reduce_levels(g, naive, ignored)
    return _optimal_levels(g, ignored)


def _arcs_considered(g: DataflowGraph, ignored: Iterable[int]):
    skip = set(ignored)
    return [a for a in g.arcs.values() if a.aid not in skip]


def _reduce_levels(
    g: DataflowGraph, levels: dict[int, int], ignored: tuple[int, ...]
) -> dict[int, int]:
    """Coordinate-descent slack reduction from a feasible labeling."""
    w = default_arc_weight(g)
    skip = set(ignored)
    in_arcs: dict[int, list] = {cid: [] for cid in g.cells}
    out_arcs: dict[int, list] = {cid: [] for cid in g.cells}
    for a in g.arcs.values():
        if a.aid in skip:
            continue
        in_arcs[a.dst].append(a)
        out_arcs[a.src].append(a)
    levels = dict(levels)
    for _sweep in range(len(g.cells)):
        changed = False
        for cid in g.cells:
            ins, outs = in_arcs[cid], out_arcs[cid]
            lb = max((levels[a.src] + w(a) for a in ins), default=None)
            ub = min((levels[a.dst] - w(a) for a in outs), default=None)
            if lb is None and ub is None:
                continue
            gain_down = len(ins) - len(outs)  # d(total slack)/d(level)
            if gain_down > 0 and lb is not None and levels[cid] > lb:
                levels[cid] = lb
                changed = True
            elif gain_down < 0 and ub is not None and levels[cid] < ub:
                levels[cid] = ub
                changed = True
        if not changed:
            break
    return levels


def _optimal_levels(
    g: DataflowGraph, ignored: tuple[int, ...]
) -> dict[int, int]:
    """The earliest minimum-total-buffer levels, via the min-cost flow.

    Total slack 0 is the LP's lower bound, so longest-path levels that
    leave every considered arc tight are already an optimum -- and every
    optimum then buffers nothing.  Only a graph with slack somewhere
    pays for the solver: networkx is imported here, so that no process
    loads it before it has a flow to solve.

    Past that exit, network simplex solves the dual flow (one edge per
    arc, cost ``-w``; node demand indegree minus outdegree).  An optimal
    level assignment is a potential of the flow's residual graph: every
    arc ``src -> dst`` costs ``-w`` forward, and an arc that carries flow
    (a tight arc in every optimum) also costs ``+w`` backward.
    Bellman-Ford from a virtual root at distance 0 to every cell gives
    the largest such potentials ``d <= 0``, so ``max(d) - d`` is the
    pointwise-earliest optimum with lowest level 0: unique, whatever
    pivots the simplex took.
    """
    naive = check_balance(g, ignore_arcs=ignored)
    if naive.balanced:
        return naive.levels
    import networkx as nx

    w = default_arc_weight(g)
    arcs = _arcs_considered(g, ignored)
    flow = nx.MultiDiGraph()
    flow.add_nodes_from(g.cells, demand=0)
    for a in arcs:
        flow.nodes[a.dst]["demand"] += 1
        flow.nodes[a.src]["demand"] -= 1
        flow.add_edge(a.src, a.dst, key=a.aid, weight=-w(a))
    _cost, flows = nx.network_simplex(flow)
    edges = []
    for a in arcs:
        edges.append((a.src, a.dst, -w(a)))
        if flows[a.src][a.dst][a.aid]:
            edges.append((a.dst, a.src, w(a)))
    dist = dict.fromkeys(g.cells, 0)
    changed = True
    while changed:  # ends: an optimal flow leaves no negative cycle
        changed = False
        for u, v, c in edges:
            if dist[u] + c < dist[v]:
                dist[v] = dist[u] + c
                changed = True
    top = max(dist.values())
    return {cid: top - d for cid, d in dist.items()}


def balance_graph(
    g: DataflowGraph,
    method: str = "optimal",
    ignore_arcs: Iterable[int] = (),
    levels: Optional[dict[int, int]] = None,
) -> BalanceResult:
    """Insert FIFO buffers so all reconvergent paths of ``g`` are equal.

    Mutates ``g`` in place (splicing FIFO cells onto slack arcs) and
    returns the :class:`BalanceResult`.  Arcs listed in ``ignore_arcs``
    or in ``g.meta['feedback_arcs']`` (for-iter loops) are left alone.
    """
    ignored = _feedback_arcs(g, ignore_arcs)
    if levels is None:
        levels = compute_levels(g, method=method, ignore_arcs=tuple(ignored))
    w = default_arc_weight(g)
    result = BalanceResult(method=method, levels=levels)
    for aid in list(g.arcs):
        arc = g.arcs[aid]
        if arc.aid in ignored:
            continue
        dst_cell = g.cells[arc.dst]
        if dst_cell.op is Op.SINK:
            continue  # sinks consume greedily; slack there cannot stall
        slack = levels[arc.dst] - levels[arc.src] - w(arc)
        if slack < 0:
            raise AnalysisError(
                f"negative slack {slack} on arc {arc!r}; levels infeasible"
            )
        if slack > 0:
            fifo = g.splice_fifo(aid, slack, name=f"bal{aid}")
            result.fifo_cells.append(fifo)
            result.inserted_stages += slack
    return result


def verify_balanced(g: DataflowGraph, ignore_arcs: Iterable[int] = ()) -> bool:
    """Post-condition: some potential gives zero slack on every arc
    outside sink arcs and feedback loops.

    Longest-path anchoring would falsely flag arcs out of self-paced
    SOURCE cells (they start late under backpressure, which costs no
    throughput), so the check takes the optimal levels -- the
    min-cost-flow solve when longest-path levels leave slack -- and
    requires their total slack to be zero.
    """
    ignored = _feedback_arcs(g, ignore_arcs)
    sink_arcs = {
        a.aid for a in g.arcs.values() if g.cells[a.dst].op is Op.SINK
    }
    skip = tuple(ignored | sink_arcs)
    levels = _optimal_levels(g, skip)
    w = default_arc_weight(g)
    return all(
        levels[a.dst] - levels[a.src] == w(a)
        for a in _arcs_considered(g, skip)
    )

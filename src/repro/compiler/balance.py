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
   pi_src >= w`` is a difference-constraint LP -- the linear programming
   dual of a min-cost flow (conclusion 3) -- with a totally unimodular
   constraint matrix, so the LP optimum (scipy HiGHS) is integral.

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
    """Exact minimum-total-buffer levels via the LP dual of min-cost flow.

    Total slack 0 is the LP's lower bound, so longest-path levels that
    leave every considered arc tight are already an optimum -- and every
    optimum then buffers nothing.  Only a graph with slack somewhere
    pays for the solver, numpy and scipy included: they are imported
    here so that no process loads them before it has an LP to solve.
    """
    naive = check_balance(g, ignore_arcs=ignored)
    if naive.balanced:
        return naive.levels
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    w = default_arc_weight(g)
    arcs = _arcs_considered(g, ignored)
    cells = list(g.cells)
    index = {cid: k for k, cid in enumerate(cells)}
    n, m = len(cells), len(arcs)
    # objective: sum over arcs of (pi_dst - pi_src)  (constant -sum w dropped)
    c = np.zeros(n)
    for a in arcs:
        c[index[a.dst]] += 1.0
        c[index[a.src]] -= 1.0
    # constraints: pi_src - pi_dst <= -w
    rows = np.repeat(np.arange(m), 2)
    cols = np.empty(2 * m, dtype=int)
    data = np.empty(2 * m)
    b_ub = np.empty(m)
    for k, a in enumerate(arcs):
        cols[2 * k] = index[a.src]
        data[2 * k] = 1.0
        cols[2 * k + 1] = index[a.dst]
        data[2 * k + 1] = -1.0
        b_ub[k] = -float(w(a))
    A_ub = csr_matrix((data, (rows, cols)), shape=(m, n))
    res = linprog(
        c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * n, method="highs"
    )
    if not res.success:
        raise AnalysisError(f"balance LP failed: {res.message}")
    x = res.x - res.x.min()
    levels = {cid: int(round(x[index[cid]])) for cid in cells}
    # verify integrality / feasibility after rounding
    for a in arcs:
        if levels[a.dst] - levels[a.src] < w(a):
            raise AnalysisError("balance LP produced an infeasible rounding")
    return levels


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
    throughput), so the check solves the optimal-levels LP and requires
    its total slack to be zero.
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


def min_buffer_stages_via_flow(
    g: DataflowGraph, ignore_arcs: Iterable[int] = ()
) -> int:
    """The minimum total buffering computed through the *min-cost-flow
    dual* -- the paper's Section 8 conclusion (3) made literal.

    The balancing LP ``min sum(pi_h - pi_t - w)`` s.t.
    ``pi_h - pi_t >= w`` has the Lagrangian dual

        max  sum_a w_a y_a - W      (W = sum of arc weights)
        s.t. inflow(v) - outflow(v) = indeg(v) - outdeg(v),  y >= 0,

    a minimum-cost flow with edge costs ``-w``.  This function solves it
    with networkx's network simplex and returns the optimal buffer
    count; the test suite asserts it equals the scipy LP optimum.
    """
    import networkx as nx

    ignored = _feedback_arcs(g, ignore_arcs)
    arcs = _arcs_considered(g, tuple(ignored))
    if not arcs:
        return 0
    w = default_arc_weight(g)
    flow = nx.DiGraph()
    indeg: dict[int, int] = {}
    outdeg: dict[int, int] = {}
    for a in arcs:
        indeg[a.dst] = indeg.get(a.dst, 0) + 1
        outdeg[a.src] = outdeg.get(a.src, 0) + 1
    for cid in g.cells:
        demand = indeg.get(cid, 0) - outdeg.get(cid, 0)
        flow.add_node(("c", cid), demand=demand)
    # one dummy node per arc so parallel arcs stay distinct
    for a in arcs:
        mid = ("a", a.aid)
        flow.add_node(mid, demand=0)
        flow.add_edge(("c", a.src), mid, weight=-w(a))
        flow.add_edge(mid, ("c", a.dst), weight=0)
    cost, _flows = nx.network_simplex(flow)
    total_w = sum(w(a) for a in arcs)
    return int(-cost - total_w)

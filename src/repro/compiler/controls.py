"""Dataflow generation of control sequences (Todd's construction).

The compiler emits boolean control sequences (``T..TFF`` etc.) as
pattern SOURCE cells -- compile-time tables.  The paper states they
"can be generated by straightforward arrangements of data flow
instructions" (Todd [15]); this pass makes that literal:
:func:`expand_controls` replaces every eligible pattern source with a
self-clocked counter loop plus a comparator network computing the same
sequence, so the compiled program contains *only* ordinary machine
instructions (constants live in operand fields).

The counter is the classic two-cell loop::

      +--------- inc (+1) <--[T]-+
      v                          |
    MERGE --+--> consumers ------+        control/gate operands come
      ^ ^   |                             from the comparison itself,
      | |   +--> cmp (k < n-1) --+        bootstrapped by initial
      | +---------(control)------+        tokens on the arcs
      +-----------(gate)---------+

Boolean patterns become run comparisons (``a <= k <= b`` per T-run,
OR-joined); numeric sequences that are affine in the position
(``c0 + c1*k``, e.g. index streams) become MUL/ADD on the counter.
Irregular numeric tables stay as pattern sources (a real machine would
hold them in array memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..graph.cell import GATE_PORT
from ..graph.graph import DataflowGraph
from ..graph.opcodes import (
    MERGE_CONTROL_PORT,
    MERGE_FALSE_PORT,
    MERGE_TRUE_PORT,
    Op,
)


def build_selfclocked_counter(
    g: DataflowGraph, n: int, name: str = "ctr"
) -> int:
    """A counter emitting 0, 1, ..., n-1 with no external control.

    The loop's own comparison ``k < n-1`` drives both the merge's input
    selection and its gated feedback destination; two initial tokens on
    the comparison arcs bootstrap the first firing.  Returns the cell
    whose output carries the counter values (the merge).

    Requires n >= 2 (a 1-value counter is just a constant).
    """
    assert n >= 2
    merge = g.add_merge(name=f"{name}_k")
    inc = g.add_cell(Op.ADD, name=f"{name}_inc", consts={1: 1})
    # Firing j of the merge emits k = j-1 and feeds it back iff its gate
    # token is true; gate token j is the comparison of k = j-2, so the
    # bound n-2 stops the feedback exactly after k = n-2 -- the merge
    # then starves on I1 and the counter quiesces.
    cmp_cell = g.add_cell(Op.LT, name=f"{name}_cmp", consts={1: n - 2})
    # The control permanently selects I1 after the bootstrap firing (an
    # initial False token picks the constant 0 once).
    true_src = g.add_const(True, name=f"{name}_true")
    g.set_const(merge, MERGE_FALSE_PORT, 0)
    g.connect(inc, merge, MERGE_TRUE_PORT)
    g.connect(merge, cmp_cell, 0)
    g.connect(true_src, merge, MERGE_CONTROL_PORT, initial=False)
    g.connect(cmp_cell, merge, GATE_PORT, initial=True)
    g.connect(merge, inc, 0, tag=True)
    return merge


def _true_runs(pattern: list[bool]) -> list[tuple[int, int]]:
    runs = []
    start: Optional[int] = None
    for k, b in enumerate(pattern):
        if b and start is None:
            start = k
        elif not b and start is not None:
            runs.append((start, k - 1))
            start = None
    if start is not None:
        runs.append((start, len(pattern) - 1))
    return runs


def _affine_fit(values: list[Any]) -> Optional[tuple[Any, Any]]:
    """(c0, c1) with values[k] == c0 + c1*k, or None."""
    if len(values) < 2:
        return None
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values):
        return None
    c0 = values[0]
    c1 = values[1] - values[0]
    if all(values[k] == c0 + c1 * k for k in range(len(values))):
        return (c0, c1)
    return None


@dataclass
class ExpansionReport:
    """What :func:`expand_controls` did."""

    expanded_boolean: int = 0
    expanded_affine: int = 0
    kept_tables: int = 0
    counters: int = 0


def _emit_run_predicate(
    g: DataflowGraph, counter: int, run: tuple[int, int], n: int, name: str
) -> int:
    """Cells computing ``a <= k <= b`` from the counter stream."""
    a, b = run
    if a == 0:
        cell = g.add_cell(Op.LE, name=f"{name}_le{b}", consts={1: b})
        g.connect(counter, cell, 0)
        return cell
    if b == n - 1:
        cell = g.add_cell(Op.GE, name=f"{name}_ge{a}", consts={1: a})
        g.connect(counter, cell, 0)
        return cell
    ge = g.add_cell(Op.GE, name=f"{name}_ge{a}", consts={1: a})
    le = g.add_cell(Op.LE, name=f"{name}_le{b}", consts={1: b})
    g.connect(counter, ge, 0)
    g.connect(counter, le, 0)
    both = g.add_cell(Op.AND, name=f"{name}_and")
    g.connect(ge, both, 0)
    g.connect(le, both, 1)
    return both


def expand_controls(g: DataflowGraph) -> ExpansionReport:
    """Replace pattern SOURCE cells by counter subgraphs, in place.

    Boolean patterns with at least one T and one F become run
    comparators; affine numeric sequences become counter arithmetic;
    constant patterns and irregular tables are left alone.  Sources
    feeding gate/control ports of loop cells keep their timing
    semantics: the new subgraphs are self-paced exactly like the pattern
    sources they replace.
    """
    report = ExpansionReport()
    for cell in list(g.cells.values()):
        if cell.op is not Op.SOURCE or "values" not in cell.params:
            continue
        values = cell.params["values"]
        n = len(values)
        if n < 2:
            report.kept_tables += 1
            continue
        is_bool = all(isinstance(v, bool) for v in values)
        out_cell: Optional[int] = None
        if is_bool and any(values) and not all(values):
            counter = build_selfclocked_counter(
                g, n, name=f"{cell.label}_ctr"
            )
            report.counters += 1
            runs = _true_runs(values)
            preds = [
                _emit_run_predicate(g, counter, run, n, cell.label)
                for run in runs
            ]
            acc = preds[0]
            for nxt in preds[1:]:
                orc = g.add_cell(Op.OR, name=f"{cell.label}_or")
                g.connect(acc, orc, 0)
                g.connect(nxt, orc, 1)
                acc = orc
            out_cell = acc
            report.expanded_boolean += 1
        elif not is_bool:
            fit = _affine_fit(values)
            if fit is not None:
                c0, c1 = fit
                counter = build_selfclocked_counter(
                    g, n, name=f"{cell.label}_ctr"
                )
                report.counters += 1
                out_cell = counter
                if c1 != 1:
                    mul = g.add_cell(
                        Op.MUL, name=f"{cell.label}_scale", consts={1: c1}
                    )
                    g.connect(out_cell, mul, 0)
                    out_cell = mul
                if c0 != 0:
                    add = g.add_cell(
                        Op.ADD, name=f"{cell.label}_shift", consts={1: c0}
                    )
                    g.connect(out_cell, add, 0)
                    out_cell = add
                report.expanded_affine += 1
        if out_cell is None:
            report.kept_tables += 1
            continue
        # rewire the pattern source's destinations onto the subgraph
        for arc in list(g.out_arcs[cell.cid]):
            g.remove_arc(arc.aid)
            g.connect(
                out_cell, arc.dst, arc.dst_port,
                tag=arc.tag, initial=arc.initial, weight=arc.weight,
            )
        g.remove_cell(cell.cid)
    return report

"""Lowering passes on instruction graphs.

The compiler emits FIFO(d) cells as single nodes for readability and for
the balancing arithmetic; the real machine implements them as chains of
identity instruction cells.  :func:`lower_fifos` performs that expansion.
The shift-register FIFO implementation inside the simulator is checked
against the expanded form by the test suite (same timing, fewer Python
objects).
"""

from __future__ import annotations

from .graph import DataflowGraph
from .opcodes import Op


def lower_fifos(g: DataflowGraph) -> DataflowGraph:
    """Return a copy of ``g`` with every FIFO(d) expanded into d ID cells.

    The expansion preserves timing exactly: a FIFO(d) cell is *defined*
    as a chain of ``d`` identity cells (one token capacity and one
    instruction-time of latency per cell).
    """
    out = DataflowGraph(g.name)
    out.meta = dict(g.meta)
    mapping: dict[int, int] = {}          # old cid -> new cid (non-FIFO)
    fifo_ends: dict[int, tuple[int, int]] = {}  # old FIFO cid -> (head, tail)

    for cid, cell in g.cells.items():
        if cell.op is Op.FIFO:
            depth = cell.params["depth"]
            chain = [
                out.add_cell(Op.ID, name=f"{cell.label}_s{k}")
                for k in range(depth)
            ]
            for a, b in zip(chain, chain[1:]):
                out.connect(a, b, 0)
            fifo_ends[cid] = (chain[0], chain[-1])
        else:
            mapping[cid] = out.add_cell(
                cell.op,
                name=cell.name,
                consts=cell.consts,
                gated=cell.gated,
                **cell.params,
            )

    def tail_of(cid: int) -> int:
        return fifo_ends[cid][1] if cid in fifo_ends else mapping[cid]

    for arc in g.arcs.values():
        src = tail_of(arc.src)
        if arc.dst in fifo_ends:
            out.connect(
                src, fifo_ends[arc.dst][0], 0,
                tag=arc.tag, initial=arc.initial, weight=arc.weight,
            )
        else:
            out.connect(
                src, mapping[arc.dst], arc.dst_port,
                tag=arc.tag, initial=arc.initial, weight=arc.weight,
            )
    return out

"""The dataflow instruction graph container and builder API.

:class:`DataflowGraph` owns the cells and arcs of one machine-level
program (or of one program block before linking).  It offers a small
builder API used throughout the compiler:

>>> from repro.graph import DataflowGraph, Op
>>> g = DataflowGraph()
>>> a = g.add_source("a", stream="a")
>>> b = g.add_source("b", stream="b")
>>> m = g.add_cell(Op.MUL, name="mult")
>>> g.connect(a, m, 0); g.connect(b, m, 1)
>>> out = g.add_sink("y", stream="y")
>>> g.connect(m, out, 0)

Graphs can be merged (:meth:`absorb`), validated
(:func:`repro.graph.validate.validate`), lowered
(:func:`repro.graph.lower.lower_fifos`) and exported to Graphviz dot
(:func:`repro.graph.dot.to_dot`).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional

from ..errors import GraphError
from .cell import _NO_TOKEN, GATE_PORT, Arc, Cell
from .opcodes import Op


class DataflowGraph:
    """A mutable machine-level dataflow program."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.cells: dict[int, Cell] = {}
        self.arcs: dict[int, Arc] = {}
        #: (cid, port) -> Arc feeding that operand port
        self.in_arc: dict[tuple[int, int], Arc] = {}
        #: cid -> list of destination arcs, in insertion order
        self.out_arcs: dict[int, list[Arc]] = {}
        #: free-form metadata (stream ranges, block info, ...)
        self.meta: dict[str, Any] = {}
        self._next_cid = 0
        self._next_aid = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_cell(
        self,
        op: Op,
        name: str = "",
        consts: Optional[dict[int, Any]] = None,
        gated: bool = False,
        **params: Any,
    ) -> int:
        """Add a cell and return its id."""
        cid = self._next_cid
        self._next_cid += 1
        self.cells[cid] = Cell(
            cid=cid,
            op=op,
            name=name,
            consts=dict(consts or {}),
            gated=gated,
            params=params,
        )
        self.out_arcs[cid] = []
        return cid

    def add_source(self, name: str, stream: str) -> int:
        """Add a SOURCE cell emitting the host stream named ``stream``."""
        return self.add_cell(Op.SOURCE, name=name, stream=stream)

    def add_pattern_source(self, name: str, values: list[Any]) -> int:
        """Add a SOURCE cell emitting a fixed (compile-time) value sequence.

        Used for the boolean control sequences of Figures 4-8 (``T..TFF``
        etc.), which the paper generates with Todd's counter subgraphs; we
        model them as pattern sources (see :mod:`repro.compiler.controls`
        for the Todd-style expansion).
        """
        return self.add_cell(Op.SOURCE, name=name, values=list(values))

    def add_const(self, value: Any, name: str = "") -> int:
        """Add a free-running CONST cell (rarely needed; prefer constant
        operands via ``consts``)."""
        return self.add_cell(Op.CONST, name=name or f"const_{value}", value=value)

    def add_sink(self, name: str, stream: str, limit: Optional[int] = None) -> int:
        """Add a SINK cell recording its input stream under key ``stream``.

        ``limit`` optionally declares how many tokens are expected, letting
        the simulator stop as soon as all sinks are satisfied.
        """
        params: dict[str, Any] = {"stream": stream}
        if limit is not None:
            params["limit"] = limit
        return self.add_cell(Op.SINK, name=name, **params)

    def add_fifo(self, depth: int, name: str = "") -> int:
        """Add a FIFO buffer cell of the given depth (chain of ``depth``
        identity cells, semantically)."""
        if depth < 1:
            raise GraphError(f"FIFO depth must be >= 1, got {depth}")
        return self.add_cell(Op.FIFO, name=name or f"fifo{depth}", depth=depth)

    def add_merge(self, name: str = "merge") -> int:
        """Add a MERGE cell (control = port 0, I1 = port 1, I2 = port 2)."""
        return self.add_cell(Op.MERGE, name=name)

    def connect(
        self,
        src: int,
        dst: int,
        dst_port: int = 0,
        tag: Optional[bool] = None,
        initial: Any = _NO_TOKEN,
        weight: int = 1,
    ) -> Arc:
        """Add a destination field from ``src`` to ``(dst, dst_port)``."""
        if src not in self.cells:
            raise GraphError(f"unknown source cell {src}")
        if dst not in self.cells:
            raise GraphError(f"unknown destination cell {dst}")
        key = (dst, dst_port)
        if key in self.in_arc:
            raise GraphError(
                f"port {dst_port} of cell {self.cells[dst].label} already driven"
            )
        dcell = self.cells[dst]
        if dst_port == GATE_PORT:
            dcell.gated = True
        elif dst_port < 0 or dst_port >= dcell.n_data_ports:
            raise GraphError(
                f"cell {dcell.label} ({dcell.op.value}) has no port {dst_port}"
            )
        if dst_port in dcell.consts:
            raise GraphError(
                f"port {dst_port} of cell {dcell.label} is a constant operand"
            )
        if tag is not None and not self.cells[src].gated:
            # Tagging a destination implies the source has a gate operand;
            # mark it so validation insists the gate port gets connected.
            self.cells[src].gated = True
        arc = Arc(
            aid=self._next_aid,
            src=src,
            dst=dst,
            dst_port=dst_port,
            tag=tag,
            initial=initial,
            weight=weight,
        )
        self._next_aid += 1
        self.arcs[arc.aid] = arc
        self.in_arc[key] = arc
        self.out_arcs[src].append(arc)
        return arc

    def connect_gate(self, src: int, dst: int, initial: Any = _NO_TOKEN) -> Arc:
        """Feed ``dst``'s gate control operand from ``src``."""
        return self.connect(src, dst, GATE_PORT, initial=initial)

    def set_const(self, cid: int, port: int, value: Any) -> None:
        """Bind a literal to an operand port (instruction immediate)."""
        if (cid, port) in self.in_arc:
            raise GraphError(f"port {port} of cell {cid} already driven by an arc")
        self.cells[cid].consts[port] = value

    # ------------------------------------------------------------------
    # editing (used by balancing / lowering passes)
    # ------------------------------------------------------------------
    def remove_arc(self, aid: int) -> Arc:
        arc = self.arcs.pop(aid)
        del self.in_arc[(arc.dst, arc.dst_port)]
        self.out_arcs[arc.src].remove(arc)
        return arc

    def remove_cell(self, cid: int) -> None:
        """Remove a cell and every arc touching it."""
        for arc in list(self.out_arcs.get(cid, [])):
            self.remove_arc(arc.aid)
        for (dst, _port), arc in list(self.in_arc.items()):
            if dst == cid:
                self.remove_arc(arc.aid)
        self.cells.pop(cid)
        self.out_arcs.pop(cid, None)

    def splice_fifo(self, aid: int, depth: int, name: str = "") -> int:
        """Replace arc ``aid`` by ``src -> FIFO(depth) -> dst``.

        Returns the new FIFO cell id.  The arc's tag stays on the upstream
        half (the gate decision is made at the original source); an initial
        token stays on the downstream half (nearest the consumer).
        """
        arc = self.remove_arc(aid)
        fifo = self.add_fifo(depth, name=name)
        self.connect(arc.src, fifo, 0, tag=arc.tag, weight=arc.weight)
        self.connect(fifo, arc.dst, arc.dst_port, initial=arc.initial)
        return fifo

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells.values())

    def cells_by_op(self, op: Op) -> list[Cell]:
        return [c for c in self.cells.values() if c.op is op]

    def sources(self) -> list[Cell]:
        return self.cells_by_op(Op.SOURCE)

    def sinks(self) -> list[Cell]:
        return self.cells_by_op(Op.SINK)

    def find(self, name: str) -> Cell:
        for c in self.cells.values():
            if c.name == name:
                return c
        raise GraphError(f"no cell named {name!r}")

    def successors(self, cid: int) -> list[int]:
        return [arc.dst for arc in self.out_arcs[cid]]

    def in_arcs_of(self, cid: int) -> list[Arc]:
        cell = self.cells[cid]
        arcs = []
        for port in cell.all_ports():
            arc = self.in_arc.get((cid, port))
            if arc is not None:
                arcs.append(arc)
        return arcs

    def cell_count(self, *, expanded: bool = False) -> int:
        """Number of instruction cells; with ``expanded=True`` FIFO(d)
        counts as ``d`` cells (its identity-chain size)."""
        if not expanded:
            return len(self.cells)
        total = 0
        for c in self.cells.values():
            total += c.params.get("depth", 1) if c.op is Op.FIFO else 1
        return total

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def absorb(self, other: "DataflowGraph") -> dict[int, int]:
        """Copy every cell/arc of ``other`` into this graph.

        Returns the mapping from ``other``'s cell ids to the new ids.
        ``other`` is left untouched.
        """
        mapping: dict[int, int] = {}
        for cid, cell in other.cells.items():
            new = self.add_cell(
                cell.op,
                name=cell.name,
                consts=cell.consts,
                gated=cell.gated,
                **cell.params,
            )
            mapping[cid] = new
        for arc in other.arcs.values():
            self.connect(
                mapping[arc.src],
                mapping[arc.dst],
                arc.dst_port,
                tag=arc.tag,
                initial=arc.initial,
                weight=arc.weight,
            )
        return mapping

    def copy(self) -> "DataflowGraph":
        g = DataflowGraph(self.name)
        g.meta = dict(self.meta)
        mapping = g.absorb(self)
        # absorb() assigns fresh consecutive ids; remember nothing else.
        assert all(old == new for old, new in mapping.items()) or True
        return g

    # ------------------------------------------------------------------
    # traversal helpers
    # ------------------------------------------------------------------
    def topo_order(self, *, ignore_arcs: Iterable[int] = ()) -> list[int]:
        """Topological order of cells, or :class:`GraphError` on a cycle.

        ``ignore_arcs`` lets callers break known feedback arcs (for-iter
        loops) before ordering the acyclic remainder.
        """
        ignored = set(ignore_arcs)
        indeg = {cid: 0 for cid in self.cells}
        succ: dict[int, list[int]] = {cid: [] for cid in self.cells}
        for arc in self.arcs.values():
            if arc.aid in ignored:
                continue
            indeg[arc.dst] += 1
            succ[arc.src].append(arc.dst)
        ready = sorted(cid for cid, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            cid = ready.pop()
            order.append(cid)
            for nxt in succ[cid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.cells):
            raise GraphError("graph contains a cycle")
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topo_order()
            return True
        except GraphError:
            return False

    def summary(self) -> str:
        """One-line description used by examples and dumps."""
        ops: dict[str, int] = {}
        for c in self.cells.values():
            ops[c.op.value] = ops.get(c.op.value, 0) + 1
        parts = ", ".join(f"{k}:{v}" for k, v in sorted(ops.items()))
        return (
            f"DataflowGraph({self.name or 'anon'}: {len(self.cells)} cells "
            f"[{parts}], {len(self.arcs)} arcs)"
        )

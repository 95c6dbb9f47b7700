"""Steady-state schedule derivation for the compiled backend.

Theorems 1-4 of the paper prove that a balanced graph under the
acknowledge discipline settles into a *static* periodic firing
schedule: a prologue while the pipeline fills, then a period that
repeats every II cycles advancing every stream by a fixed number of
elements, then an epilogue while it drains.  The event machine
rediscovers that schedule one event at a time; this module gives the
compiled backend the two static facts it needs to skip the rediscovery:

* :func:`analyze_schedule` -- decides, from the lowered graph alone,
  whether the steady state is *statically replayable*: every control
  token (gate operands, MERGE control operands) must trace back through
  plain untagged ID chains to a SOURCE/AM_READ cell, so the full
  control decision sequence is known before the run starts; and no
  opcode may fault on operand *values* (DIV).  When the analysis
  passes, the period detected at run time can be replayed J times by
  pure time-shifting, because nothing inside the period depends on
  which window of elements is flowing through.

* :class:`StreamEvaluator` -- computes every sink's output *values* at
  stream level, independent of machine timing, by batched Kahn-network
  evaluation: each cell fires as many times as its queued operands
  allow in one visit, vectorized over the batch (numpy when available
  and safe, pure-Python loops otherwise).  Kahn determinism makes the
  result schedule-independent, so these values are bit-identical to
  what the event machine computes element by element.

The compiled backend (:mod:`repro.backends.compiled`) combines the two:
the machine supplies exact *times* (with whole periods fast-forwarded),
the evaluator supplies exact *values*.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import ReproError
from ..graph.cell import GATE_PORT, Cell
from ..graph.graph import DataflowGraph
from ..graph.opcodes import (
    BINARY_OPS,
    MERGE_CONTROL_PORT,
    MERGE_FALSE_PORT,
    MERGE_TRUE_PORT,
    UNARY_OPS,
    Op,
    apply_scalar,
)


class ScheduleError(ReproError):
    """The graph (or its inputs) defeats static schedule derivation.

    Never fatal to a run: the compiled backend catches it and degrades
    to plain event execution, which is bit-identical by definition.
    """


# ----------------------------------------------------------------------
# static analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ControlArc:
    """One control operand (gate or MERGE control) and the source cell
    whose stream feeds it through a plain untagged ID chain."""

    dst: int                    #: consuming cell id
    port: int                   #: GATE_PORT or MERGE_CONTROL_PORT
    source: int                 #: SOURCE/AM_READ cell id feeding it


@dataclass
class ScheduleAnalysis:
    """Whether (and how) the steady-state schedule can be replayed."""

    replayable: bool
    reason: str = ""
    #: control operands with statically known token sequences
    control_arcs: list[ControlArc] = field(default_factory=list)
    #: SOURCE/AM_READ cell with the longest stream -- the cell whose
    #: firings anchor period detection
    anchor: Optional[int] = None
    #: every SOURCE/AM_READ cell id
    source_cids: list[int] = field(default_factory=list)


def _trace_control_source(
    graph: DataflowGraph, arc: Any
) -> Optional[int]:
    """Walk a control arc back through plain ID cells to its source.

    Returns the SOURCE/AM_READ cell id when every hop is an untagged,
    initial-token-free arc and every intermediate cell is an ungated ID
    (a lowered FIFO stage) -- the conditions under which the control
    port consumes exactly the source's stream, in order.  ``None``
    means the control is computed at run time.
    """
    seen: set[int] = set()
    while True:
        if arc.tag is not None or arc.has_initial:
            return None
        cell = graph.cells[arc.src]
        if cell.cid in seen:
            return None
        seen.add(cell.cid)
        if cell.op in (Op.SOURCE, Op.AM_READ):
            return None if cell.gated else cell.cid
        if cell.op is Op.ID and not cell.gated and 0 not in cell.consts:
            arc = graph.in_arc.get((cell.cid, 0))
            if arc is None:
                return None
            continue
        return None


def analyze_schedule(
    graph: DataflowGraph, inputs: dict[str, list[Any]]
) -> ScheduleAnalysis:
    """Decide whether the graph's steady state is statically
    replayable (see module docstring).  ``graph`` must already be
    FIFO-lowered (the machine lowers on construction)."""

    def refused(reason: str) -> ScheduleAnalysis:
        return ScheduleAnalysis(replayable=False, reason=reason)

    sources: list[int] = []
    control_arcs: list[ControlArc] = []
    for cell in graph:
        op = cell.op
        if op is Op.DIV:
            # a replayed period routes stale placeholder operands into
            # the divider, which could fault on a value the real run
            # never sees
            return refused("graph contains DIV cells")
        if op is Op.CONST:
            return refused("graph contains free-running CONST cells")
        if op is Op.AM_WRITE:
            return refused("graph writes array memory")
        if op in (Op.SOURCE, Op.AM_READ):
            sources.append(cell.cid)
        ctl_ports = []
        if cell.gated and GATE_PORT not in cell.consts:
            ctl_ports.append(GATE_PORT)
        if op is Op.MERGE and MERGE_CONTROL_PORT not in cell.consts:
            ctl_ports.append(MERGE_CONTROL_PORT)
        for port in ctl_ports:
            in_arc = graph.in_arc.get((cell.cid, port))
            if in_arc is None:
                continue        # the cell can never fire; harmless
            src = _trace_control_source(graph, in_arc)
            if src is None:
                return refused(
                    f"control operand of cell {cell.cid} is computed "
                    f"at run time"
                )
            control_arcs.append(
                ControlArc(dst=cell.cid, port=port, source=src)
            )
    if not sources:
        return refused("graph has no stream sources")

    def seq_len(cid: int) -> int:
        cell = graph.cells[cid]
        if "values" in cell.params:
            return len(cell.params["values"])
        return len(inputs.get(cell.params["stream"], ()))

    anchor = max(sources, key=seq_len)
    if seq_len(anchor) == 0:
        return refused("all source streams are empty")
    return ScheduleAnalysis(
        replayable=True,
        control_arcs=control_arcs,
        anchor=anchor,
        source_cids=sources,
    )


# ----------------------------------------------------------------------
# stream-level value evaluation
# ----------------------------------------------------------------------
#: numpy-safe opcodes: IEEE-754 arithmetic/comparisons whose float64
#: results are bit-identical to CPython's (DIV excluded -- numpy does
#: not raise ZeroDivisionError; MIN/MAX excluded -- NaN and signed-zero
#: conventions differ)
_NP_BINOPS = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}
_NP_UNOPS = {Op.NEG: operator.neg, Op.ABS: abs}
_NP_MIN_BATCH = 32

_INF = 1 << 62


class StreamEvaluator:
    """Batched Kahn-network evaluation of a lowered graph.

    Buffers on every arc are unbounded, so each visit to a cell fires
    it as many times as its queued operands allow, consuming and
    producing whole batches.  The acknowledge discipline only restricts
    *when* tokens move, never *which* values they become, so the
    resulting sink streams equal the event machine's bit for bit (Kahn
    determinism).
    """

    def __init__(
        self, graph: DataflowGraph, inputs: dict[str, list[Any]]
    ) -> None:
        for cell in graph:
            if cell.op in (Op.CONST, Op.FIFO):
                raise ScheduleError(
                    f"stream evaluator cannot batch {cell.op.value!r} "
                    f"cells"
                )
        self.graph = graph
        self.inputs = inputs
        #: per-arc token queue, consumed via a head cursor
        self._buf: dict[int, list[Any]] = {
            aid: [] for aid in graph.arcs
        }
        self._head: dict[int, int] = {aid: 0 for aid in graph.arcs}
        for arc in graph.arcs.values():
            if arc.has_initial:
                self._buf[arc.aid].append(arc.initial)
        self.sink_values: dict[int, list[Any]] = {}
        self._source_pos: dict[int, int] = {}
        self._source_seq: dict[int, list[Any]] = {}
        # Feedback loops (recurrences) admit one element per visit, so
        # a cell may be visited O(stream) times; everything resolvable
        # from the graph alone is precomputed per cell so each visit
        # costs only buffer arithmetic.
        #: data ports as (port, input aid or None-for-const, const);
        #: aid -1 marks an unconnected port (the cell can never fire)
        self._in_aids: dict[int, tuple[tuple[int, Optional[int], Any], ...]] = {}
        #: destination arcs as (aid, dst cell, tag)
        self._outs: dict[int, tuple[tuple[int, int, Optional[bool]], ...]] = {}
        #: scalar implementation of the cell's opcode (None: not a
        #: plain scalar operator)
        self._scalar_fn: dict[int, Any] = {}
        #: gate port as (aid or None-for-const or -1, const); None
        #: entry for ungated cells
        self._gate_io: dict[int, Optional[tuple[Optional[int], Any]]] = {}
        #: MERGE ports (control, true, false), same encoding
        self._merge_io: dict[int, tuple] = {}

        def port_io(cell: Cell, port: int) -> tuple[Optional[int], Any]:
            if port in cell.consts:
                return None, cell.consts[port]
            arc = graph.in_arc.get((cell.cid, port))
            return (arc.aid if arc is not None else -1), None

        for cell in graph:
            self._in_aids[cell.cid] = tuple(
                (port, *port_io(cell, port))
                for port in cell.data_ports()
            )
            self._outs[cell.cid] = tuple(
                (a.aid, a.dst, a.tag) for a in graph.out_arcs[cell.cid]
            )
            self._scalar_fn[cell.cid] = BINARY_OPS.get(
                cell.op
            ) or UNARY_OPS.get(cell.op)
            self._gate_io[cell.cid] = (
                port_io(cell, GATE_PORT) if cell.gated else None
            )
            if cell.op is Op.MERGE:
                self._merge_io[cell.cid] = tuple(
                    port_io(cell, p)
                    for p in (
                        MERGE_CONTROL_PORT,
                        MERGE_TRUE_PORT,
                        MERGE_FALSE_PORT,
                    )
                )
        total_tokens = 0
        for cell in graph:
            if cell.op in (Op.SINK, Op.AM_WRITE):
                self.sink_values[cell.cid] = []
            elif cell.op in (Op.SOURCE, Op.AM_READ):
                seq = (
                    cell.params["values"]
                    if "values" in cell.params
                    else self.inputs[cell.params["stream"]]
                )
                self._source_seq[cell.cid] = seq
                self._source_pos[cell.cid] = 0
                total_tokens += len(seq)
        #: firing budget: generous multiple of the work a terminating
        #: run can do, so a seeded recirculation loop cannot spin the
        #: evaluator forever
        self._budget = 10_000 + 64 * max(1, total_tokens)
        self.firings = 0

    # -- operand plumbing ----------------------------------------------
    def _avail(self, cell: Cell, port: int) -> int:
        if port in cell.consts:
            return _INF
        arc = self.graph.in_arc.get((cell.cid, port))
        if arc is None:
            return 0
        return len(self._buf[arc.aid]) - self._head[arc.aid]

    def _take(self, cell: Cell, port: int, n: int) -> list[Any]:
        """Consume and return ``n`` tokens from an operand port."""
        if port in cell.consts:
            return [cell.consts[port]] * n
        arc = self.graph.in_arc[(cell.cid, port)]
        return self._take_aid(arc.aid, n)

    def _take_aid(self, aid: int, n: int) -> list[Any]:
        buf, head = self._buf[aid], self._head[aid]
        out = buf[head:head + n]
        head += n
        if head > 4096 and head * 2 > len(buf):
            # reclaim consumed prefixes so long runs stay linear-memory
            self._buf[aid] = buf[head:]
            head = 0
        self._head[aid] = head
        return out

    def _emit(
        self, cell: Cell, results: list[Any], gates: Optional[list[Any]]
    ) -> list[int]:
        """Route a batch of results to the cell's destination arcs,
        honoring T/F tags exactly like :meth:`Machine._fire`; returns
        the destination cell ids that received tokens."""
        touched: list[int] = []
        for aid, dst, tag in self._outs[cell.cid]:
            if tag is None:
                picked = results
            else:
                gl = gates if gates is not None else [None] * len(results)
                picked = [
                    r for r, g in zip(results, gl) if bool(g) == tag
                ]
            if picked:
                self._buf[aid].extend(picked)
                touched.append(dst)
        return touched

    def _gate_batch(
        self, cell: Cell, n: int
    ) -> Optional[list[Any]]:
        gio = self._gate_io[cell.cid]
        if gio is None:
            return None
        aid, const = gio
        if aid is None:
            return [const] * n
        return self._take_aid(aid, n)

    # -- per-opcode batch firing ---------------------------------------
    def _fire_batch(self, cell: Cell) -> list[int]:
        """Fire ``cell`` as often as possible; returns dst cells fed."""
        op = cell.op
        gio = self._gate_io[cell.cid]
        if gio is None or gio[0] is None:
            gate_avail = _INF
        elif gio[0] < 0:
            return []
        else:
            gate_avail = len(self._buf[gio[0]]) - self._head[gio[0]]
            if gate_avail <= 0:
                return []

        if op in (Op.SOURCE, Op.AM_READ):
            pos = self._source_pos[cell.cid]
            seq = self._source_seq[cell.cid]
            n = min(len(seq) - pos, gate_avail)
            if n <= 0:
                return []
            self._count(n)
            results = list(seq[pos:pos + n])
            self._source_pos[cell.cid] = pos + n
            gates = self._gate_batch(cell, n)
            return self._emit(cell, results, gates)

        if op in (Op.SINK, Op.AM_WRITE):
            n = min(self._avail(cell, 0), gate_avail)
            if n <= 0:
                return []
            self._count(n)
            values = self._take(cell, 0, n)
            self._gate_batch(cell, n)
            self.sink_values[cell.cid].extend(values)
            return []

        if op is Op.MERGE:
            return self._fire_merge(cell, gate_avail)

        # ordinary scalar operator / ID
        entries = self._in_aids[cell.cid]
        buf_map, head_map = self._buf, self._head
        n = gate_avail
        for _port, aid, _const in entries:
            if aid is None:
                continue
            if aid < 0:
                return []       # unconnected port: can never fire
            avail = len(buf_map[aid]) - head_map[aid]
            if avail < n:
                n = avail
        if n <= 0 or n >= _INF:
            if n >= _INF:
                raise ScheduleError(
                    f"cell {cell.cid} has only constant operands"
                )
            return []
        self._count(n)
        cols = [
            [const] * n if aid is None else self._take_aid(aid, n)
            for _port, aid, const in entries
        ]
        results = self._apply_batch(cell, cols, n)
        gates = self._gate_batch(cell, n)
        return self._emit(cell, results, gates)

    def _fire_merge(self, cell: Cell, gate_avail: int) -> list[int]:
        """Drain a MERGE cell run by run: each maximal run of equal
        control values selects one input port for the whole run."""
        touched: list[int] = []
        (ctl_aid, ctl_const), true_io, false_io = self._merge_io[cell.cid]
        buf_map, head_map = self._buf, self._head
        gated = self._gate_io[cell.cid] is not None
        buf: list[Any] = []
        head = 0
        while True:
            if ctl_aid is None:
                ctl = bool(ctl_const)
                ctl_avail = _INF
            elif ctl_aid < 0:
                return touched
            else:
                buf = buf_map[ctl_aid]
                head = head_map[ctl_aid]
                ctl_avail = len(buf) - head
                if ctl_avail <= 0:
                    return touched
                ctl = bool(buf[head])
            sel_aid, sel_const = true_io if ctl else false_io
            if sel_aid is None:
                sel_avail = _INF
            elif sel_aid < 0:
                sel_avail = 0
            else:
                sel_avail = len(buf_map[sel_aid]) - head_map[sel_aid]
            cap = min(ctl_avail, sel_avail, gate_avail)
            if cap <= 0 or cap >= _INF:
                if cap >= _INF:
                    raise ScheduleError(
                        f"MERGE cell {cell.cid} has only constant "
                        f"operands"
                    )
                return touched
            if ctl_aid is None:
                n = cap
            else:
                # extend the equal-control run only as far as this
                # visit can consume anyway: scanning the whole run
                # would cost O(stream) per visit on feedback loops
                # (recurrences) that admit one token at a time
                n = 1
                while n < cap and bool(buf[head + n]) == ctl:
                    n += 1
                self._take_aid(ctl_aid, n)
            self._count(n)
            results = (
                [sel_const] * n
                if sel_aid is None
                else self._take_aid(sel_aid, n)
            )
            gates = self._gate_batch(cell, n)
            gate_avail -= n if gated else 0
            touched.extend(self._emit(cell, results, gates))
            if gated and gate_avail <= 0:
                return touched

    def _apply_batch(
        self, cell: Cell, cols: list[list[Any]], n: int
    ) -> list[Any]:
        op = cell.op
        if op is Op.ID:
            return cols[0]
        fn = self._scalar_fn[cell.cid]
        if fn is None:
            raise ScheduleError(f"cannot batch opcode {op!r}")
        if (
            n >= _NP_MIN_BATCH
            and (op in _NP_BINOPS or op in _NP_UNOPS)
            and all(
                all(type(v) is float for v in col) for col in cols
            )
        ):
            import numpy as np  # loaded by the first batch that uses it

            arrays = [np.asarray(col, dtype=np.float64) for col in cols]
            npfn = _NP_BINOPS.get(op) or _NP_UNOPS[op]
            return npfn(*arrays).tolist()
        if len(cols) == 2:
            a, b = cols
            return [fn(x, y) for x, y in zip(a, b)]
        return [fn(x) for x in cols[0]]

    def _count(self, n: int) -> None:
        self.firings += n
        if self.firings > self._budget:
            raise ScheduleError(
                f"evaluation exceeded the firing budget "
                f"({self._budget}); the graph likely recirculates "
                f"tokens indefinitely"
            )

    # -- driver --------------------------------------------------------
    def run(self) -> dict[int, list[Any]]:
        """Evaluate to quiescence; returns sink values keyed by cell
        id.  Raises :class:`ScheduleError` when the graph defeats
        batched evaluation (the caller falls back to plain event
        execution)."""
        try:
            pending = list(self.graph.cells)
            queued = set(pending)
            while pending:
                cid = pending.pop()
                queued.discard(cid)
                touched = self._fire_batch(self.graph.cells[cid])
                for dst in touched:
                    if dst not in queued:
                        queued.add(dst)
                        pending.append(dst)
        except ZeroDivisionError as exc:
            raise ScheduleError(
                "division by zero during stream evaluation"
            ) from exc
        return self.sink_values


@dataclass
class SteadySchedule:
    """What the compiled backend's period detector observed in one run
    (attached to the machine as ``engine.schedule``)."""

    #: cell id whose firings anchored period detection
    anchor: Optional[int] = None
    #: cycles of concrete prologue execution before the first jump
    prologue_cycles: Optional[int] = None
    #: detected period length, in cycles (the steady-state II times
    #: the elements advanced per period)
    period_cycles: Optional[int] = None
    #: stream elements consumed by the anchor per period
    period_elements: Optional[int] = None
    #: (at_cycle, periods_skipped, cycles_skipped) per applied jump
    jumps: list[tuple[int, int, int]] = field(default_factory=list)
    #: why the run stayed concrete (empty when jumps were applied or
    #: simply never profitable)
    fallback_reason: str = ""

    @property
    def cycles_skipped(self) -> int:
        return sum(j[2] for j in self.jumps)

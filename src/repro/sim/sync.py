"""Synchronous ("instruction time") simulator of the static dataflow machine.

This simulator implements exactly the timing discipline the paper's rate
arguments rest on (Section 3):

* every arc (destination field + its reverse acknowledge path) holds at
  most **one** data token;
* an instruction cell is **enabled** when all its required operand
  tokens are present *and* every destination arc it would write is free
  (i.e. all acknowledge packets from the previous firing have arrived);
* each simulation step, **all** enabled cells fire simultaneously; their
  results and the freeing of their input arcs become visible at the next
  step.

Consequences (all verified by the test suite):

* an isolated producer/consumer pair refires every **2 steps** -- the
  paper's "about two instruction times";
* a feedback cycle of ``L`` cells holding ``k`` tokens produces at rate
  ``k/L`` (Todd's 3-cell loop: 1/3; the companion scheme's 4-cell loop
  with 2 circulating values: 1/2);
* a fork/join with unequal path lengths throttles below 1/2 until FIFO
  buffers balance it;
* a loop sustaining two tokens at full rate must have an **even** number
  of stages (the paper's inserted ID cell).

A graph is *fully pipelined* when its steady-state initiation interval
is 2 steps per output element.

Like the static machine, which loads each cell's operand, constant and
destination fields before the run starts (Section 2), the simulator
links every cell's firing rule once at construction; a step only reads
and writes token occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from ..errors import (
    DeadlockError,
    GraphError,
    SimulationError,
    SimulationTimeout,
)
from ..graph.cell import _NO_TOKEN, GATE_PORT, Cell
from ..graph.graph import DataflowGraph
from ..graph.opcodes import (
    BINARY_OPS,
    MERGE_CONTROL_PORT,
    MERGE_FALSE_PORT,
    MERGE_TRUE_PORT,
    UNARY_OPS,
    Op,
)
from ..graph.validate import check_stream_inputs, validate
from ..timing import steady_interval

_ABSENT = _NO_TOKEN  # reuse the cell module's sentinel


@dataclass
class SinkRecord:
    """Values received by one SINK cell, with their arrival steps."""

    stream: str
    values: list[Any] = field(default_factory=list)
    times: list[int] = field(default_factory=list)

    def initiation_interval(self, skip: Optional[int] = None) -> float:
        """Steady-state initiation interval (steps between outputs).

        Computed as the mean inter-arrival gap after discarding the first
        ``skip`` arrivals (default: the first half, to exclude pipeline
        fill).  A fully pipelined graph reports 2.0.
        """
        return steady_interval(self.times, skip)


@dataclass
class SimStats:
    """Aggregate statistics of one simulation run."""

    steps: int = 0
    total_firings: int = 0
    fire_counts: dict[int, int] = field(default_factory=dict)

    def utilization(self, cid: int) -> float:
        """Fraction of the maximum firing rate (1 per 2 steps) achieved."""
        if self.steps == 0:
            return 0.0
        return self.fire_counts.get(cid, 0) / (self.steps / 2.0)


class _FifoState:
    """Shift-register state of an unexpanded FIFO(d) cell.

    Timing-equivalent to a chain of ``d`` identity cells.  The chain has
    ``d - 1`` *internal* arcs (the input and output arcs belong to the
    surrounding graph), so the state keeps ``d - 1`` slots; tokens
    advance one slot per step when the next slot was free at the start
    of the step, adding exactly ``d`` steps of latency end to end.
    ``count`` is the number of occupied slots, kept where slots change.
    """

    __slots__ = ("slots", "count")

    def __init__(self, depth: int) -> None:
        self.slots: list[Any] = [_ABSENT] * (depth - 1)
        self.count = 0

    @property
    def occupancy(self) -> int:
        return self.count


# What a cell does when it fires, fixed at link time; ID and the scalar
# operators come last (``kind >= _ID``).
_SOURCE, _CONST, _SINK, _MERGE, _FIFO, _ID, _UNARY, _BINARY = range(8)


class SyncSimulator:
    """Run a :class:`DataflowGraph` under the unit-delay acknowledge model.

    Parameters
    ----------
    graph:
        The program to run.  Validated on construction.
    inputs:
        Mapping from stream key to the finite list of values each SOURCE
        (or AM_READ) cell with that key emits, in order.
    record_trace:
        Keep a per-step list of fired cell ids (memory-heavy; debugging).
    """

    def __init__(
        self,
        graph: DataflowGraph,
        inputs: Optional[dict[str, list[Any]]] = None,
        record_trace: bool = False,
    ) -> None:
        validate(graph)
        self.graph = graph
        self.inputs = {k: list(v) for k, v in (inputs or {}).items()}
        check_stream_inputs(graph, self.inputs)

        self.arc_value: dict[int, Any] = {}
        for arc in graph.arcs.values():
            self.arc_value[arc.aid] = arc.initial if arc.has_initial else _ABSENT

        self.source_pos: dict[int, int] = {}
        self.sink_records: dict[int, SinkRecord] = {}
        self.fifo_state: dict[int, _FifoState] = {}
        self._plans = {cell.cid: self._link(cell) for cell in graph}
        #: ``aid -> (src, dst)``: the cells an arc's change re-examines
        self._ends = {a.aid: (a.src, a.dst) for a in graph.arcs.values()}

        self.stats = SimStats(fire_counts={cid: 0 for cid in graph.cells})
        self.trace: Optional[list[list[int]]] = [] if record_trace else None
        self.step_count = 0
        self._candidates: set[int] = set(graph.cells)
        #: the FIFOs whose slots hold a token
        self._held: set[int] = set()

    # ------------------------------------------------------------------
    # firing plans
    # ------------------------------------------------------------------
    def _link(self, cell: Cell) -> tuple:
        """Resolve ``cell``'s firing rule once, as the static machine
        loads operand and destination fields before the run (Section 2).

        The plan is ``(kind, gate, operands, eats, eats_false, on_true,
        on_false, extra)``.  An operand -- ``gate`` too, ``None`` when
        the cell is ungated -- is ``(aid, None)`` for an arc and
        ``(None, value)`` for a constant (``_ABSENT`` when unconnected).
        ``eats`` are the arcs a firing consumes; a MERGE that selects
        its false input consumes ``eats_false``.  ``on_true`` /
        ``on_false`` are the destinations under each gate value (an
        ungated cell reads False).  ``extra`` is the scalar function,
        a source's values, a CONST's literal or a FIFO's state.
        """
        g, cid, op = self.graph, cell.cid, cell.op

        def operand(port: int) -> tuple:
            if port in cell.consts:
                return (None, cell.consts[port])
            arc = g.in_arc.get((cid, port))
            return (None, _ABSENT) if arc is None else (arc.aid, None)

        def arcs(ports) -> tuple:
            return tuple(g.in_arc[cid, p].aid for p in ports
                         if (cid, p) in g.in_arc)

        gate = operand(GATE_PORT) if cell.gated else None
        head = (gate[0],) if gate is not None and gate[0] is not None else ()
        out = g.out_arcs[cid]
        on_true, on_false = (
            tuple(a.aid for a in out if a.tag is None or a.tag == truth)
            for truth in (True, False)
        )
        ports = cell.data_ports()
        eaten = eaten_false = head + arcs(ports)
        extra: Any = None
        if op in (Op.SOURCE, Op.AM_READ):
            kind = _SOURCE
            extra = (
                cell.params["values"]
                if "values" in cell.params
                else self.inputs[cell.params["stream"]]
            )
            self.source_pos[cid] = 0
        elif op is Op.CONST:
            kind, extra = _CONST, cell.params["value"]
        elif op in (Op.SINK, Op.AM_WRITE):
            kind = _SINK
            self.sink_records[cid] = SinkRecord(cell.params["stream"])
        elif op is Op.MERGE:
            kind = _MERGE
            eaten = head + arcs((MERGE_CONTROL_PORT, MERGE_TRUE_PORT))
            eaten_false = head + arcs((MERGE_CONTROL_PORT, MERGE_FALSE_PORT))
        elif op is Op.FIFO:
            # a shift register ignores gates: every destination, one input
            kind, gate = _FIFO, None
            eaten = eaten_false = arcs(ports)
            on_true = on_false = tuple(a.aid for a in out)
            extra = self.fifo_state[cid] = _FifoState(cell.params["depth"])
        elif op is Op.ID:
            kind = _ID
        elif op in BINARY_OPS:
            kind, extra = _BINARY, BINARY_OPS[op]
        elif op in UNARY_OPS:
            kind, extra = _UNARY, UNARY_OPS[op]
        else:
            raise SimulationError(f"cannot execute opcode {op!r}")
        operands = tuple(operand(p) for p in ports)
        return (kind, gate, operands, eaten, eaten_false, on_true, on_false,
                extra)

    def _actions(self) -> Iterator[tuple]:
        """What every enabled candidate does this step, in cell-id order,
        decided from pre-state only: ``(cid, kind, consumed arcs,
        written arcs, value)``.

        Applies nothing, so :meth:`step` and :meth:`_any_enabled` share
        it.  A FIFO's value is ``(token taken in, token sent out,
        interior shifts)``, ``_ABSENT`` for a token not moved.
        """
        av = self.arc_value
        plans = self._plans
        for cid in sorted(self._candidates):
            kind, gate, ops, eats, eats_f, on_t, on_f, extra = plans[cid]
            outs = on_f
            if gate is not None:
                aid, v = gate
                if aid is not None:
                    v = av[aid]
                if v is _ABSENT:
                    continue
                if v:
                    outs = on_t
            if kind >= _ID:                     # ID and scalar operators
                aid, a = ops[0]
                if aid is not None:
                    a = av[aid]
                if a is _ABSENT:
                    continue
                if kind == _BINARY:
                    aid, b = ops[1]
                    if aid is not None:
                        b = av[aid]
                    if b is _ABSENT:
                        continue
                for aid in outs:
                    if av[aid] is not _ABSENT:
                        break
                else:
                    if kind == _ID:
                        yield (cid, kind, eats, outs, a)
                    elif kind == _UNARY:
                        yield (cid, kind, eats, outs, extra(a))
                    else:
                        try:
                            value = extra(a, b)
                        except ZeroDivisionError as exc:
                            raise SimulationError(
                                f"division by zero in cell "
                                f"{self.graph.cells[cid].label} at step "
                                f"{self.step_count}"
                            ) from exc
                        yield (cid, kind, eats, outs, value)
                continue
            if kind == _FIFO:
                slots = extra.slots
                aid, token = ops[0]
                if aid is not None:
                    token = av[aid]
                free = True
                for out in outs:
                    if av[out] is not _ABSENT:
                        free = False
                        break
                if not slots:                   # depth 1: one ID cell
                    if token is not _ABSENT and free:
                        yield (cid, kind, eats, outs, (token, token, ()))
                    continue
                tail = slots[-1] if free else _ABSENT
                if slots[0] is not _ABSENT:
                    token = _ABSENT
                shifts = [
                    j for j in range(len(slots) - 2, -1, -1)
                    if slots[j] is not _ABSENT and slots[j + 1] is _ABSENT
                ] if extra.count else ()
                if token is not _ABSENT or tail is not _ABSENT or shifts:
                    yield (cid, kind,
                           eats if token is not _ABSENT else (),
                           outs if tail is not _ABSENT else (),
                           (token, tail, shifts))
                continue
            if kind == _SINK:
                aid, v = ops[0]
                if aid is not None:
                    v = av[aid]
                if v is not _ABSENT:
                    yield (cid, kind, eats, (), v)
                continue
            if kind == _SOURCE:
                pos = self.source_pos[cid]
                if pos >= len(extra):
                    continue
                v = extra[pos]
            elif kind == _CONST:
                v = extra
            else:                               # MERGE
                aid, ctl = ops[0]
                if aid is not None:
                    ctl = av[aid]
                if ctl is _ABSENT:
                    continue
                aid, v = ops[1] if ctl else ops[2]
                if aid is not None:
                    v = av[aid]
                if v is _ABSENT:
                    continue
                if not ctl:
                    eats = eats_f
            for aid in outs:
                if av[aid] is not _ABSENT:
                    break
            else:
                yield (cid, kind, eats, outs, v)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Advance one instruction time.  Returns the number of firings."""
        actions = list(self._actions())
        av = self.arc_value
        ends = self._ends
        fire_counts = self.stats.fire_counts
        held = self._held
        fired: list[int] = []
        nxt: set[int] = set()

        # Apply phase.  No conflicts are possible: an arc written was
        # empty at pre-state, so it is not simultaneously consumed.
        for cid, kind, eats, outs, value in actions:
            fire_counts[cid] += 1
            for aid in eats:
                av[aid] = _ABSENT
                nxt.update(ends[aid])
            if kind == _FIFO:
                st = self.fifo_state[cid]
                token, value, shifts = value
                slots = st.slots
                if slots:
                    for j in shifts:
                        slots[j + 1] = slots[j]
                        slots[j] = _ABSENT
                    if value is not _ABSENT:
                        slots[-1] = _ABSENT
                        st.count -= 1
                    if token is not _ABSENT:
                        slots[0] = token
                        st.count += 1
                    if st.count:
                        held.add(cid)
                    else:
                        held.discard(cid)
            else:
                fired.append(cid)
                if kind == _SOURCE:
                    self.source_pos[cid] += 1
                elif kind == _SINK:
                    rec = self.sink_records[cid]
                    rec.values.append(value)
                    rec.times.append(self.step_count)
            for aid in outs:
                av[aid] = value
                nxt.update(ends[aid])

        # Next-step candidates: cells at either end of a changed arc,
        # plus FIFOs still holding tokens (they advance without arc
        # activity) -- see DESIGN.md.
        nxt |= held
        self._candidates = nxt

        if self.trace is not None:
            self.trace.append(fired)
        self.step_count += 1
        self.stats.steps = self.step_count
        self.stats.total_firings += len(actions)
        return len(actions)

    def run(
        self,
        max_steps: int = 1_000_000,
        raise_on_deadlock: bool = True,
    ) -> SimStats:
        """Run to quiescence (no enabled cells) or until ``max_steps``.

        Raises :class:`DeadlockError` if the graph quiesces while some
        SINK with a declared ``limit`` is still short of tokens -- the
        paper's "jam" condition.
        """
        while self.step_count < max_steps:
            if self.step() == 0:
                break
        else:
            # Budget exhausted -- but a graph whose final firing landed
            # exactly on the last allowed step has quiesced, not timed
            # out.  Probe enabledness from pre-state (no step consumed)
            # before declaring an overrun.
            if self._any_enabled():
                raise SimulationTimeout(
                    f"simulation did not quiesce within {max_steps} steps",
                    cycles=self.step_count,
                    stats=self.stats,
                    sink_progress={
                        self.graph.cells[cid].params["stream"]: (
                            len(rec.values),
                            self.graph.cells[cid].params.get("limit"),
                        )
                        for cid, rec in self.sink_records.items()
                    },
                )
        if raise_on_deadlock:
            self._check_complete()
        return self.stats

    def _any_enabled(self) -> bool:
        """Whether any cell (or FIFO shift) could act next step.

        Read-only: asks the pre-state decision of :meth:`step` for its
        first action without applying it.  A cell whose firing would raise (e.g. division
        by zero on the next step) counts as enabled -- the graph has
        not quiesced either way.
        """
        try:
            return next(self._actions(), None) is not None
        except SimulationError:
            return True

    def _check_complete(self) -> None:
        pending = 0
        for cid, rec in self.sink_records.items():
            limit = self.graph.cells[cid].params.get("limit")
            if limit is not None and len(rec.values) < limit:
                pending += limit - len(rec.values)
        if pending:
            raise DeadlockError(
                f"quiescent at step {self.step_count} with {pending} expected "
                f"output tokens missing (jammed or starved pipeline); "
                f"blocked cells: {self._blocked_report()}",
                step=self.step_count,
                pending=pending,
            )

    def _blocked_report(self, limit: int = 5) -> str:
        """Short description of cells holding unconsumed inputs (debugging)."""
        blocked = []
        for cell in self.graph:
            for port in cell.all_ports():
                arc = self.graph.in_arc.get((cell.cid, port))
                if arc is not None and self.arc_value[arc.aid] is not _ABSENT:
                    blocked.append(cell.label)
                    break
        head = blocked[:limit]
        more = f" (+{len(blocked) - limit} more)" if len(blocked) > limit else ""
        return ", ".join(head) + more if head else "none"

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def outputs(self) -> dict[str, list[Any]]:
        """Collected sink streams keyed by stream name."""
        out: dict[str, list[Any]] = {}
        for rec in self.sink_records.values():
            if rec.stream in out:
                raise GraphError(f"duplicate sink stream {rec.stream!r}")
            out[rec.stream] = rec.values
        return out

    def sink_record(self, stream: str) -> SinkRecord:
        for rec in self.sink_records.values():
            if rec.stream == stream:
                return rec
        raise GraphError(f"no sink records stream {stream!r}")

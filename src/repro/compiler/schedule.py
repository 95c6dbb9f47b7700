"""Stream-level value evaluation for steady-state fast-forward.

Theorems 1-4 of the paper prove that a balanced graph under the
acknowledge discipline settles into a *static* periodic firing
schedule: a prologue while the pipeline fills, then a period that
repeats every II cycles advancing every stream by a fixed number of
elements, then an epilogue while it drains.  A fast-forwarded machine
run (:mod:`repro.machine.fastforward`) skips whole periods of that
schedule; the machine then knows every skipped element's *time* but
not its *value*.

:class:`StreamEvaluator` supplies the values: it computes every sink's
output stream independent of machine timing, by Kahn-network
evaluation in one sweep over the graph's SCC condensation.  An acyclic
cell fires as many times as its complete operand streams allow in one
visit, vectorized over the batch (numpy when available and safe,
pure-Python loops otherwise); a feedback loop runs as one fused scalar
loop.  Kahn determinism makes the result schedule-independent, so
these values are bit-identical to what the event machine computes
element by element.
"""

from __future__ import annotations

import operator
from collections import deque
from itertools import repeat
from typing import Any, Optional

from ..analysis.scc import strongly_connected
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
)


class ScheduleError(ReproError):
    """The graph (or its inputs) defeats static schedule derivation.

    Never fatal to a run: a fast-forwarded run catches it and degrades
    to plain event execution, which is bit-identical by definition.
    """


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


def _scalar_fn(op: Op) -> Any:
    fn = BINARY_OPS.get(op) or UNARY_OPS.get(op)
    if fn is None:
        raise ScheduleError(f"cannot batch opcode {op!r}")
    return fn


class StreamEvaluator:
    """Kahn-network evaluation of a lowered graph, one sweep over the
    SCC condensation in topological order.

    Buffers on every arc are unbounded.  A cell that is a component of
    its own is visited once, after every stream it reads is complete,
    and fires as many times as its queued operands allow in that one
    batch; a cyclic component (a recurrence's feedback loop) runs as
    one fused scalar loop.  The acknowledge discipline only restricts
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
            aid: [arc.initial] if arc.has_initial else []
            for aid, arc in graph.arcs.items()
        }
        self._head: dict[int, int] = {aid: 0 for aid in graph.arcs}
        self.sink_values: dict[int, list[Any]] = {}
        self._source_seq: dict[int, list[Any]] = {}
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
                total_tokens += len(seq)
        #: firing budget: generous multiple of the work a terminating
        #: run can do, so a seeded recirculation loop cannot spin the
        #: evaluator forever
        self._budget = 10_000 + 64 * max(1, total_tokens)
        self.firings = 0

    # -- operand plumbing ----------------------------------------------
    def _port(self, cell: Cell, port: int) -> tuple[Optional[int], Any]:
        """Operand ``port`` as ``(input arc id, constant)``: arc id
        ``None`` marks a constant operand, -1 an unconnected port (the
        cell can never fire)."""
        if port in cell.consts:
            return None, cell.consts[port]
        arc = self.graph.in_arc.get((cell.cid, port))
        return (arc.aid if arc is not None else -1), None

    def _avail(self, aid: Optional[int]) -> int:
        if aid is None:
            return _INF
        return len(self._buf[aid]) - self._head[aid] if aid >= 0 else 0

    def _take(self, aid: Optional[int], const: Any, n: int) -> list[Any]:
        """Consume and return ``n`` tokens of an operand."""
        if aid is None:
            return [const] * n
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
    ) -> None:
        """Route a batch of results to the cell's destination arcs,
        honoring T/F tags exactly like :meth:`Machine._fire`."""
        for arc in self.graph.out_arcs[cell.cid]:
            if arc.tag is None:
                picked = results
            else:
                gl = gates if gates is not None else [None] * len(results)
                picked = [
                    r for r, g in zip(results, gl) if bool(g) == arc.tag
                ]
            self._buf[arc.aid].extend(picked)

    # -- one batch visit of an acyclic cell ----------------------------
    def _fire_batch(self, cell: Cell) -> None:
        """Fire ``cell`` as often as its queued operands allow."""
        op = cell.op
        if op is Op.MERGE:
            return self._fire_merge(cell)
        ports = [self._port(cell, p) for p in cell.all_ports()]
        n = min([self._avail(aid) for aid, _const in ports], default=_INF)
        if op in (Op.SOURCE, Op.AM_READ):
            seq = self._source_seq[cell.cid]
            n = min(n, len(seq))
        if n <= 0:
            return
        if n >= _INF:
            raise ScheduleError(
                f"cell {cell.cid} has only constant operands"
            )
        self._count(n)
        cols = [self._take(aid, const, n) for aid, const in ports]
        gates = cols.pop() if cell.gated else None
        if op in (Op.SOURCE, Op.AM_READ):
            self._emit(cell, list(seq[:n]), gates)
        elif op in (Op.SINK, Op.AM_WRITE):
            self.sink_values[cell.cid].extend(cols[0])
        else:
            self._emit(cell, self._apply_batch(cell, cols, n), gates)

    def _fire_merge(self, cell: Cell) -> None:
        """Drain a MERGE cell run by run: each maximal run of equal
        control values selects one input port for the whole run."""
        (ctl_aid, ctl_const), true_io, false_io = (
            self._port(cell, p)
            for p in (MERGE_CONTROL_PORT, MERGE_TRUE_PORT, MERGE_FALSE_PORT)
        )
        gate_io = self._port(cell, GATE_PORT) if cell.gated else (None, None)
        while True:
            ctl_avail = self._avail(ctl_aid)
            if ctl_avail <= 0:
                return
            if ctl_aid is None:
                ctl = bool(ctl_const)
            else:
                buf, head = self._buf[ctl_aid], self._head[ctl_aid]
                ctl = bool(buf[head])
            sel_io = true_io if ctl else false_io
            cap = min(
                ctl_avail, self._avail(sel_io[0]), self._avail(gate_io[0])
            )
            if cap <= 0:
                return
            if cap >= _INF:
                raise ScheduleError(
                    f"MERGE cell {cell.cid} has only constant operands"
                )
            n = cap
            if ctl_aid is not None:
                # the run of equal controls, as far as arm and gate reach
                n = 1
                while n < cap and bool(buf[head + n]) == ctl:
                    n += 1
                self._take(ctl_aid, None, n)
            self._count(n)
            results = self._take(*sel_io, n)
            gates = self._take(*gate_io, n) if cell.gated else None
            self._emit(cell, results, gates)

    def _apply_batch(
        self, cell: Cell, cols: list[list[Any]], n: int
    ) -> list[Any]:
        op = cell.op
        if op is Op.ID:
            return cols[0]
        fn = _scalar_fn(op)
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

    # -- one cyclic component as a fused scalar loop -------------------
    def _run_loop(self, members: list[int]) -> None:
        """Run a cyclic component to quiescence: every member becomes
        one step (:meth:`_step`), and passes over the steps repeat
        until none fires.  A cycle admits one token per trip, so
        batching buys nothing here; what counts is that a firing costs
        one call over operands resolved beforehand.  ``members`` should
        follow the cycle so a pass carries a token all the way round --
        any other order computes the same values in more passes."""
        cells = self.graph.cells
        #: the component's operand arcs as deques, for the run's length
        queues: dict[int, deque] = {}
        for cid in members:
            for port in cells[cid].all_ports():
                aid = self._port(cells[cid], port)[0]
                if aid is not None and aid >= 0:
                    queues[aid] = deque(
                        self._take(aid, None, self._avail(aid))
                    )
        steps = [self._step(cells[cid], queues) for cid in members]
        fired = 1
        while fired:
            fired = 0
            for step in steps:
                fired += step()
            self._count(fired)
        # what the component left unconsumed stays on its arc
        for aid, queue in queues.items():
            self._buf[aid].extend(queue)

    def _step(self, cell: Cell, queues: dict[int, deque]) -> Any:
        """``cell`` as a closure that fires it at most once and returns
        how often it fired.  An operand is a ``(ready, take)`` pair: a
        queue and its ``popleft``, ``True`` and an endless repeat for a
        constant, the never-ready ``()`` for an unconnected port."""

        def operand(port: int) -> tuple[Any, Any]:
            aid, const = self._port(cell, port)
            if aid is None:
                return True, repeat(const).__next__
            if aid < 0:
                return (), None
            return queues[aid], queues[aid].popleft

        def appender(arc: Any) -> Any:
            queue = queues.get(arc.aid)
            return (self._buf[arc.aid] if queue is None else queue).append

        cid, op = cell.cid, cell.op
        # destinations by gate value, as in _emit: untagged arcs get
        # every result, and an ungated cell's gate reads False
        outs = self.graph.out_arcs[cid]
        outs_true = tuple(appender(a) for a in outs if a.tag is not False)
        outs_false = tuple(appender(a) for a in outs if a.tag is not True)
        gate_ready, gate = (
            operand(GATE_PORT) if cell.gated
            else (True, repeat(False).__next__)
        )

        if op is Op.MERGE:
            ctl, drop = operand(MERGE_CONTROL_PORT)
            arm_true = operand(MERGE_TRUE_PORT)
            arm_false = operand(MERGE_FALSE_PORT)
            if ctl is True:
                ctl = (drop(),)     # a constant: peeked, never used up
                arm_ready = (arm_true if ctl[0] else arm_false)[0]
                if arm_ready is True and gate_ready is True:
                    raise ScheduleError(
                        f"MERGE cell {cid} has only constant operands"
                    )

            def merge_step() -> int:
                if ctl and gate_ready:
                    ready, take = arm_true if ctl[0] else arm_false
                    if ready:
                        drop()
                        result = take()
                        for out in outs_true if gate() else outs_false:
                            out(result)
                        return 1
                return 0

            return merge_step

        if op in (Op.SOURCE, Op.AM_READ):
            stream = deque(self._source_seq[cid])
            data = [(stream, stream.popleft)]
        else:
            data = [operand(p) for p in cell.data_ports()]
        if all(ready is True for ready, _ in [*data, (gate_ready, gate)]):
            raise ScheduleError(f"cell {cid} has only constant operands")
        if op in (Op.SINK, Op.AM_WRITE):
            outs_true = outs_false = (self.sink_values[cid].append,)

        if len(data) == 2:
            fn = _scalar_fn(op)
            (a_ready, a), (b_ready, b) = data

            def binary_step() -> int:
                if a_ready and b_ready and gate_ready:
                    result = fn(a(), b())
                    for out in outs_true if gate() else outs_false:
                        out(result)
                    return 1
                return 0

            return binary_step

        ((a_ready, a),) = data
        if op in UNARY_OPS and op is not Op.ID:
            fn, arg = _scalar_fn(op), a
            a = lambda: fn(arg())  # noqa: E731

        def unary_step() -> int:
            if a_ready and gate_ready:
                result = a()
                for out in outs_true if gate() else outs_false:
                    out(result)
                return 1
            return 0

        return unary_step

    # -- driver --------------------------------------------------------
    def run(self) -> dict[int, list[Any]]:
        """Evaluate to quiescence; returns sink values keyed by cell
        id.  Raises :class:`ScheduleError` when the graph defeats
        stream evaluation (the caller falls back to plain event
        execution)."""
        graph = self.graph
        succ = {
            cid: [arc.dst for arc in graph.out_arcs[cid]]
            for cid in graph.cells
        }
        try:
            # Tarjan emits components downstream-first: reversed, every
            # stream a component reads is complete before it runs
            for comp in reversed(strongly_connected(graph.cells, succ)):
                if len(comp) > 1 or comp[0] in succ[comp[0]]:
                    # members were discovered along the cycle
                    self._run_loop(comp[::-1])
                else:
                    self._fire_batch(graph.cells[comp[0]])
        except ZeroDivisionError as exc:
            raise ScheduleError(
                "division by zero during stream evaluation"
            ) from exc
        return self.sink_values


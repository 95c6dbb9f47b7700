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
visit, over the whole batch at C speed; a feedback loop runs as one
fused scalar loop.  Kahn determinism makes the result
schedule-independent, so these values are bit-identical to what the
event machine computes element by element.

An arc's queue holds one of two things.  A batch of at least
``_NP_MIN_BATCH`` Python floats travels as a float64 numpy array, from
the cell that made it to every cell that consumes it: arithmetic runs
in numpy, and T/F-tagged gates and merges select with boolean masks.
Everything else -- bool, int and mixed streams, short batches -- stays a
Python list, so Python's semantics hold (``True + True == 2``).  Arrays
become Python floats again only where values leave the evaluator: at
sinks, and at the queues of a fused loop.
"""

from __future__ import annotations

import operator
from collections import deque
from itertools import compress, count, islice, repeat
from typing import Any, Optional, Union

import numpy as np

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
#: float batches shorter than this stay Python lists
_NP_MIN_BATCH = 32
_FLOAT_ONLY = {float}

_INF = 1 << 62

#: one arc's queued tokens: a Python list, or a float64 array
Stream = Union[list, np.ndarray]


def _pylist(col: Stream) -> list:
    """``col`` as Python objects (array elements become floats)."""
    return col.tolist() if isinstance(col, np.ndarray) else col


def _floats(col: Stream) -> Optional[np.ndarray]:
    """``col`` as a float64 array when every element is a Python float
    (``type(v) is float``: no bool, int or float subclass), else
    ``None``."""
    if isinstance(col, np.ndarray):
        return col
    if col and type(col[0]) is float and set(map(type, col)) == _FLOAT_ONLY:
        return np.array(col, dtype=np.float64)
    return None


def _stream(col: list) -> Stream:
    """A fresh batch as it should queue: an array when it is a long
    enough run of floats, else a list."""
    if len(col) >= _NP_MIN_BATCH:
        array = _floats(col)
        if array is not None:
            return array
    return col


def truth_mask(col: Stream) -> np.ndarray:
    """``bool(v)`` of every element, as a boolean array (numpy converts
    a Python object to bool by its truth value; in a float array NaN is
    true and -0.0 false)."""
    if isinstance(col, np.ndarray):
        return col != 0
    return np.fromiter(col, dtype=bool, count=len(col))


def _interleave(flags: list[bool], false: Stream, true: Stream) -> Stream:
    """The merged stream: ``true``'s next token where a flag is set,
    ``false``'s where it is not."""
    if len(flags) >= _NP_MIN_BATCH:
        f_arr, t_arr = _floats(false), _floats(true)
        if f_arr is not None and t_arr is not None:
            mask = np.array(flags, dtype=bool)
            out = np.empty(len(flags), dtype=np.float64)
            out[mask] = t_arr
            out[~mask] = f_arr
            return out
    arms = (iter(_pylist(false)), iter(_pylist(true)))
    return list(map(next, map(arms.__getitem__, flags)))


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
        self._buf: dict[int, Stream] = {
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

    def _take(self, aid: Optional[int], const: Any, n: int) -> Stream:
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

    def _put(self, aid: int, items: Stream) -> None:
        """Queue ``items`` on arc ``aid``.  An array lands as it is on
        an empty queue (arrays are never written in place, so one may
        sit on several arcs); anything else makes the queue a list."""
        buf, head = self._buf[aid], self._head[aid]
        if isinstance(items, np.ndarray):
            if head == len(buf):
                self._buf[aid], self._head[aid] = items, 0
                return
            items = items.tolist()
        if isinstance(buf, np.ndarray):
            buf = self._buf[aid] = buf[head:].tolist()
            self._head[aid] = 0
        buf.extend(items)

    def _emit(
        self, cell: Cell, results: Stream, gates: Optional[Stream]
    ) -> None:
        """Route a batch of results to the cell's destination arcs,
        honoring T/F tags exactly like :meth:`Machine._fire` (an
        ungated cell's gate reads False)."""
        if gates is None:
            gates = [False] * len(results)
        mask = None
        for arc in self.graph.out_arcs[cell.cid]:
            if arc.tag is None:
                picked = results
            elif isinstance(results, np.ndarray):
                if mask is None:
                    mask = truth_mask(gates)
                picked = results[mask if arc.tag else ~mask]
            else:
                picked = list(compress(
                    results, gates if arc.tag else map(operator.not_, gates)
                ))
            self._put(arc.aid, picked)

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
            self._emit(cell, _stream(seq[:n]), gates)
        elif op in (Op.SINK, Op.AM_WRITE):
            self.sink_values[cell.cid].extend(_pylist(cols[0]))
        else:
            consts = [const for _aid, const in ports]
            self._emit(cell, self._apply_batch(cell, cols, consts, n), gates)

    def _fire_merge(self, cell: Cell) -> None:
        """Drain a MERGE cell in one pass.  Firing ``k`` takes the next
        token of the arm its ``k``-th control selects, so the cell
        fires until the controls or the gate run out, or until a
        control selects an arm with nothing left."""
        (ctl_aid, ctl_const), true_io, false_io = (
            self._port(cell, p)
            for p in (MERGE_CONTROL_PORT, MERGE_TRUE_PORT, MERGE_FALSE_PORT)
        )
        gate_io = self._port(cell, GATE_PORT) if cell.gated else (None, None)
        n = self._avail(gate_io[0])
        if ctl_aid is None:
            ctl = bool(ctl_const)
            flags = None
            n = min(n, self._avail((true_io if ctl else false_io)[0]))
        else:
            flags = truth_mask(
                self._buf[ctl_aid][self._head[ctl_aid]:]
            ).tolist()
            n = min(n, len(flags))
            picks_false = map(operator.not_, flags)
            for arm, picks in ((true_io, flags), (false_io, picks_false)):
                avail = self._avail(arm[0])
                if avail < n:
                    # the (avail + 1)-th control that picks this arm
                    # finds it empty
                    stop = islice(compress(count(), picks), avail, None)
                    n = min(n, next(stop, n))
        if n <= 0:
            return
        if n >= _INF:
            raise ScheduleError(
                f"MERGE cell {cell.cid} has only constant operands"
            )
        self._count(n)
        gates = self._take(*gate_io, n) if cell.gated else None
        if flags is None:
            results = self._take(*(true_io if ctl else false_io), n)
        else:
            self._take(ctl_aid, None, n)
            flags = flags[:n]
            n_true = flags.count(True)
            arms = [
                self._take(*io, k) if k else []
                for io, k in ((false_io, n - n_true), (true_io, n_true))
            ]
            results = _interleave(flags, *arms)
        self._emit(cell, results, gates)

    def _apply_batch(
        self, cell: Cell, cols: list[Stream], consts: list[Any], n: int
    ) -> Stream:
        """``cell``'s results over operand columns ``cols``; ``consts``
        holds each port's constant (``None`` for an arc)."""
        op = cell.op
        if op is Op.ID:
            return cols[0]
        fn = _scalar_fn(op)
        npfn = _NP_BINOPS.get(op) or _NP_UNOPS.get(op)
        if npfn is not None and n >= _NP_MIN_BATCH:
            # a float constant broadcasts as a scalar
            args = [
                const if type(const) is float else _floats(col)
                for col, const in zip(cols, consts)
            ]
            if all(a is not None for a in args) and any(
                isinstance(a, np.ndarray) for a in args
            ):
                with np.errstate(all="ignore"):
                    out = npfn(*args)
                # a comparison's booleans travel as a list
                return out if out.dtype == np.float64 else out.tolist()
        return list(map(fn, *map(_pylist, cols)))

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
                    queues[aid] = deque(_pylist(
                        self._take(aid, None, self._avail(aid))
                    ))
        steps = [self._step(cells[cid], queues) for cid in members]
        fired = 1
        while fired:
            fired = 0
            for step in steps:
                fired += step()
            self._count(fired)
        # what the component left unconsumed stays on its arc
        for aid, queue in queues.items():
            self._put(aid, list(queue))

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


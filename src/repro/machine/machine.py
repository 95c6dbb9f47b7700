"""Event-driven simulator of the static dataflow machine (Figure 1).

The model executes a machine-level instruction graph on the full
architecture: instruction cells live in processing elements with
bounded dispatch bandwidth; arithmetic operation packets travel through
a routing network to pipelined function units; array build/select
operations go to array memory units; result and acknowledge packets
return through the distribution network.

Timing rules (all in machine cycles):

* an instruction becomes *enabled* when its operand registers are full
  and all acknowledge packets from its previous firing have returned;
* its PE dispatches one enabled instruction every ``pe_issue_interval``
  cycles; dispatch consumes the operands and sends the acknowledge
  packets to their producers (arrival after ``max(1, rn_delay)``);
* local instructions (moves, gates, merges) complete in
  ``local_latency``; FU/AM instructions travel ``rn_delay``, wait for
  the unit's pipelined issue slot, and take the unit latency;
* result packets reach the destination cells ``rn_delay`` after
  completion.

With :meth:`MachineConfig.unit_time` (all latencies one cycle, free
dispatch) the firing schedule coincides exactly with the unit-delay
simulator's -- the fidelity tests assert sink-arrival equality.

Fault injection & recovery
--------------------------

Passing a :class:`repro.faults.FaultPlan` subjects the run to seeded
packet drops/duplications/corruption and unit outages/slowdowns.  With
``recovery=True`` (the default) a reliability layer keeps the run
correct anyway:

* every result packet carries a per-arc sequence number; the receiver
  suppresses duplicates and discards checksum-detected corruption;
* producers hold a copy of each unacknowledged result and retransmit
  it after ``retransmit_timeout`` cycles;
* acknowledge packets are matched by sequence number, so lost acks are
  recovered by the consumer re-acknowledging a retransmitted result;
* failed FUs/AMs are evicted from the round-robin pools and a failed
  PE's instruction cells are rerouted to a live PE.

A progress watchdog checks the machine every ``watchdog_interval``
cycles; after ``watchdog_patience`` checks without progress it raises a
diagnosed :class:`DeadlockError` instead of burning ``max_cycles``.  At
quiescence with missing outputs (or unconsumed inputs), the wait-for
graph is walked and a :class:`~repro.machine.diagnose.DeadlockDiagnosis`
is attached to the error.

Checkpointing, resume & replay
------------------------------

Every event in the heap is plain data -- ``(time, seq, kind, args,
aux)`` dispatched through :attr:`Machine._EVENT_KINDS` -- so the whole
machine (cells, in-flight packets, retransmission queues, sequence
numbers, fault-fate cursors, unit health, the event heap itself)
serializes.
Passing ``checkpoint=CheckpointConfig(...)`` makes the run write
periodic crash-consistent snapshots; :meth:`Machine.resume` loads one
and continues the run to outputs bit-identical to an uninterrupted
execution, including under an active fault plan.  On a diagnosed
failure (deadlock/timeout) the final state is snapshotted next to a
JSON diagnosis bundle instead of being discarded.  See
:mod:`repro.checkpoint` and DESIGN.md section 8.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import Any, Collection, Optional, Union

from ..checkpoint.manager import CheckpointConfig, CheckpointManager
from ..checkpoint.replay import EventTrace
from ..errors import DeadlockError, SimulationError, SimulationTimeout
from ..faults import FaultInjector, FaultPlan
from ..graph.cell import _NO_TOKEN, GATE_PORT, Cell
from ..graph.graph import DataflowGraph
from ..graph.lower import lower_fifos
from ..graph.opcodes import (
    BINARY_OPS,
    MERGE_CONTROL_PORT,
    MERGE_FALSE_PORT,
    MERGE_TRUE_PORT,
    UNARY_OPS,
    Op,
    arity,
)
from ..graph.validate import check_stream_inputs, validate
from ..timing import steady_interval
from .config import MachineConfig
from .diagnose import DeadlockDiagnosis, diagnose
from .packets import PacketCounters, classify_unit
from .stats import MachineStats, ReliabilityStats

_ABSENT = _NO_TOKEN
#: self-re-arming event kinds: they never count as live work
_TICKERS = ("watchdog_tick", "checkpoint_tick")
#: the per-firing event kinds, which Machine._loop runs inline
_INLINE_KINDS = frozenset({"dispatch", "deliver_results", "deliver_ack"})
# what a firing computes: ``_Shape.kind`` (None: not executable)
_SOURCE, _CONST, _MOVE, _UNARY, _BINARY, _MERGE = range(6)
_KINDS = {
    **dict.fromkeys(UNARY_OPS, _UNARY), **dict.fromkeys(BINARY_OPS, _BINARY),
    Op.SOURCE: _SOURCE, Op.AM_READ: _SOURCE, Op.CONST: _CONST,
    Op.MERGE: _MERGE, Op.ID: _MOVE, Op.SINK: _MOVE, Op.AM_WRITE: _MOVE,
}


def _source_values(cell: Cell, inputs: dict[str, list[Any]]) -> list[Any]:
    if "values" in cell.params:
        return cell.params["values"]
    return inputs[cell.params["stream"]]


@dataclass
class _CellState:
    operands: dict[int, Any] = field(default_factory=dict)
    acks_pending: int = 0
    queued: bool = False       # sitting in its PE's ready queue
    source_pos: int = 0
    fire_count: int = 0


class _Shape:
    """The half of a firing plan shared by every cell with the same
    ``(op, gated, constant ports)`` under one config: what a firing
    computes (``kind``, scalar ``fn``), the ports that must hold a
    delivered operand first (``need``: gate first, constants never) and
    those it consumes, whether it records a sink value, and the unit
    (``"pe"``, ``"fu"``, ``"am"``) and latency of its operation packet."""

    __slots__ = ("kind", "fn", "need", "consumed", "consumed_false",
                 "sink", "unit", "latency")

    def __init__(self, cell: Cell, config: MachineConfig) -> None:
        op = cell.op
        self.kind = _KINDS.get(op)
        self.fn = BINARY_OPS.get(op) or UNARY_OPS.get(op)
        self.sink = op in (Op.SINK, Op.AM_WRITE)

        def delivered(*ports: int) -> tuple:
            gate = (GATE_PORT,) if cell.gated else ()
            return tuple(p for p in gate + ports if p not in cell.consts)

        merge = op is Op.MERGE
        ports = (MERGE_CONTROL_PORT,) if merge else range(arity(op))
        self.need = delivered(*ports)
        # a sink consumes port 0 even when it is a constant
        self.consumed = self.consumed_false = (
            delivered() + (0,) if self.sink else self.need
        )
        if merge:   # plus the arm its control's value picks, per firing
            self.consumed = delivered(*ports, MERGE_TRUE_PORT)
            self.consumed_false = delivered(*ports, MERGE_FALSE_PORT)
        self.unit = classify_unit(cell.op.value).value
        self.latency = {
            "pe": config.local_latency, "fu": config.latency_of(op),
            "am": config.am_latency,
        }[self.unit]


class _Plan:
    """A cell's own half of its firing plan: the acknowledges a firing
    sends, in consumed-port order, as ``(arc, port, producer, shard)``,
    the destinations ``(arcs, aids, remote)`` under a true and under a
    false gate, and a source's value list.  ``shard`` (None: this
    machine) and ``remote``, the ``(shard, aid)`` pairs of destinations
    it does not own, are a shard's routing; its ``aids`` is a list,
    copied per delivery (a tuple two heap entries share pickles once).
    A plain machine's ``remote`` is None."""

    __slots__ = ("cell", "shape", "acks", "acks_false", "on_true",
                 "on_false", "values")


class _Handlers(dict):
    """``kind -> handler function`` of one machine class, called as
    ``handler(machine, *args)``; a per-instance table of bound methods
    would be a cycle keeping a finished machine alive until collected."""

    def __missing__(self, kind: str):
        raise SimulationError(f"unknown event kind {kind!r}")


class _Linked(dict):
    """Everything the loaded graph and the config fix, resolved once
    instead of per event, as the static architecture loads operand,
    destination and unit fields into each cell before the run starts
    (Section 2, Figure 1): ``cid -> _Plan``, linked on first touch (a
    shard never touches cells it does not own), the class's event
    handlers and the fixed packet delays.  Never reaches a pickle."""

    __slots__ = ("graph", "config", "inputs", "shapes", "handlers",
                 "ack_delay", "route_delay", "owner", "shard")

    def __init__(self, machine: "Machine") -> None:
        self.graph = machine.graph
        self.config = config = machine.config
        self.inputs = machine.inputs
        self.shapes: dict[tuple, _Shape] = {}
        cls = type(machine)
        if "_handlers" not in cls.__dict__:     # resolved once per class
            cls._handlers = _Handlers(
                (kind, getattr(cls, "_" + kind))
                for kind in cls._EVENT_KINDS - _INLINE_KINDS
            )
        self.handlers = cls._handlers
        self.ack_delay = max(1, config.rn_delay)
        #: None under bandwidth contention: Machine._route_delay has it
        self.route_delay = None if config.rn_bandwidth else config.rn_delay
        #: a shard's cell -> shard map and its own index (None: plain)
        self.owner, self.shard = machine._owner, machine.shard_index

    def shape_of(self, cell: Cell) -> _Shape:
        key = (cell.op, cell.gated, frozenset(cell.consts))
        shape = self.shapes.get(key)
        if shape is None:
            shape = self.shapes[key] = _Shape(cell, self.config)
        return shape

    def __missing__(self, cid: int) -> _Plan:
        g, owner, me = self.graph, self.owner, self.shard

        def remote(c: int) -> Optional[int]:
            return None if owner is None or owner[c] == me else owner[c]

        def dests(arcs: list) -> tuple:
            if owner is None:
                return arcs, tuple(a.aid for a in arcs), None
            return arcs, [a.aid for a in arcs if remote(a.dst) is None], \
                tuple((remote(a.dst), a.aid) for a in arcs
                      if remote(a.dst) is not None)

        plan = self[cid] = _Plan()
        plan.cell = cell = g.cells[cid]
        plan.shape = shape = self.shape_of(cell)
        plan.acks, plan.acks_false = (
            tuple((arc, arc.dst_port, arc.src, remote(arc.src))
                  for arc in (g.in_arc[cid, p] for p in ports
                              if (cid, p) in g.in_arc))
            for ports in (shape.consumed, shape.consumed_false)
        )
        if shape.consumed_false is shape.consumed:
            plan.acks_false = plan.acks
        # one triple for both gate values unless a destination is
        # tagged, and ``out_arcs`` itself rather than a copy per cell
        out = g.out_arcs[cid]
        plan.on_true = plan.on_false = dests(out)
        if any(a.tag is not None for a in out):
            # an ungated cell reads its gate as false
            plan.on_false, plan.on_true = (
                dests([a for a in out if a.tag is None or a.tag == truth])
                for truth in (False, True)
            )
            if not cell.gated:
                plan.on_true = plan.on_false
        source = shape.kind == _SOURCE
        plan.values = _source_values(cell, self.inputs) if source else None
        return plan


@dataclass
class _UnitState:
    next_free: int = 0
    busy_cycles: int = 0
    ops: int = 0


class Machine:
    """One machine instance executing one instruction graph."""

    #: worker-level (shard) faults only make sense where there are
    #: worker processes; ShardMachine flips this
    _hosts_shard_faults = False
    #: the armed steady-state detector of a ``run(fast_forward=True)``
    #: (:mod:`repro.machine.fastforward`), and that run's report; class
    #: defaults, so a plain run carries neither
    _ff = None
    schedule = None
    #: a shard's cell -> shard map, its outbox of packets for other
    #: shards and its index (:class:`~repro.machine.sharded.ShardMachine`)
    _owner: Optional[dict[int, int]] = None
    _outbox: Optional[list] = None
    shard_index: Optional[int] = None

    def __init__(
        self,
        graph: DataflowGraph,
        config: Optional[MachineConfig] = None,
        inputs: Optional[dict[str, list[Any]]] = None,
        fault_plan: Optional[FaultPlan] = None,
        recovery: bool = True,
        checkpoint: Optional[
            Union[CheckpointConfig, CheckpointManager]
        ] = None,
        trace: bool = False,
        _graph_validated: bool = False,
    ) -> None:
        self.config = config or MachineConfig()
        self.config.validate()
        if graph.cells_by_op(Op.FIFO):
            graph = lower_fifos(graph)
        # the sharded runner walks its one lowered graph once, not once
        # per shard machine its workers build over it
        if not _graph_validated:
            validate(graph)
        self.graph = graph
        self.inputs = {k: list(v) for k, v in (inputs or {}).items()}
        check_stream_inputs(graph, self.inputs)
        # every cell's fixed PE, round robin in cell-id order
        self.assignment = {
            cid: k % self.config.n_pes
            for k, cid in enumerate(sorted(graph.cells))
        }

        if (
            fault_plan is not None
            and getattr(fault_plan, "shard_faults", ())
            and not self._hosts_shard_faults
        ):
            raise SimulationError(
                "shard-level faults (kill/hang/slow) only apply to "
                "the sharded backend's worker processes; this backend "
                "cannot honor them"
            )
        self.fault_plan = fault_plan
        self.recovery = recovery
        self.injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        #: whether the sequence-number/retransmission layer is active
        self._reliable = fault_plan is not None and recovery
        self.rel = ReliabilityStats()
        self._timeout = self.config.retransmit_timeout_for()
        self._wd_interval = self.config.watchdog_interval_for()
        self._wd_last = -1
        self._wd_stalls = 0
        # per-arc reliability state: sequence counters and in-flight copies
        self._send_seq: dict[int, int] = {}
        self._recv_count: dict[int, int] = {}
        self._consumed_count: dict[int, int] = {}
        self._acked_count: dict[int, int] = {}
        self._outstanding: dict[tuple[int, int], Any] = {}
        self._retry_counts: dict[tuple[int, int], int] = {}

        #: derived from graph + config, never pickled (``__getstate__``)
        self._linked = _Linked(self)
        self.cell_state: dict[int, _CellState] = {}
        self.sink_values: dict[int, list[Any]] = {}
        self.sink_times: dict[int, list[int]] = {}
        self.am_arrays: dict[str, list[Any]] = {}
        for cell in graph:
            st = _CellState()
            self.cell_state[cell.cid] = st
            if cell.op in (Op.SINK, Op.AM_WRITE):
                self.sink_values[cell.cid] = []
                self.sink_times[cell.cid] = []
            if cell.op is Op.AM_WRITE:
                self.am_arrays.setdefault(cell.params["stream"], [])

        self.pes = [_UnitState() for _ in range(self.config.n_pes)]
        self.fus = [_UnitState() for _ in range(self.config.n_fus)]
        self.ams = [_UnitState() for _ in range(self.config.n_ams)]
        self._pe_queues: list[list[int]] = [[] for _ in self.pes]
        self._dispatch_pending = [False] * len(self.pes)
        self._rn_next_free = 0

        self.packets = PacketCounters()
        self.now = 0
        self._finish = 0
        self._progress = 0
        #: event heap of plain-data entries (time, seq, kind, args, aux);
        #: ``kind`` names a handler in :attr:`_EVENT_KINDS` -- keeping
        #: events closure-free is what makes the machine snapshottable
        self._events: list[tuple[int, int, str, tuple, bool]] = []
        #: heap entries that are not self-re-arming ticker events; when
        #: this hits zero the run is over and the tickers let the heap
        #: drain instead of keeping each other alive forever
        self._live_events = 0
        self._seq = 0
        self._fu_rr = 0
        self._am_rr = 0
        self._started = False

        if isinstance(checkpoint, CheckpointConfig):
            checkpoint = CheckpointManager(checkpoint)
        self.ckpt: Optional[CheckpointManager] = checkpoint
        #: free-form run identity carried into snapshot metadata (the
        #: CLI sets e.g. ``"fig7[m=60]"``); purely descriptive
        self.workload_id: Optional[str] = None
        #: pending out-of-band snapshot requests ``(reason, path)``,
        #: appended by :meth:`request_snapshot` (possibly from a signal
        #: handler) and drained by the event loop between events
        self._snap_requests: list[tuple[str, Optional[str]]] = []
        #: in-memory delta-chain tip (pickled sections + parent name,
        #: checksum and depth), owned by the chain snapshot writer.
        #: Never serialized (see ``__getstate__``): a loaded or
        #: rolled-back machine always restarts its chain with a base.
        self._snap_chain: Optional[dict[str, Any]] = None
        self.trace: Optional[EventTrace] = (
            EventTrace()
            if trace or (checkpoint is not None and checkpoint.config.record)
            else None
        )
        #: optional bounded capture of executed non-aux events
        #: (:class:`repro.sim.trace.EventCapture`); set by the replay
        #: bisection forensics to record one divergence window in full
        self.capture = None

        self._scan_ready()

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    #: the machine's whole event vocabulary: the per-firing kinds
    #: :meth:`_loop` runs inline, and kinds that name the method
    #: (prefixed ``_``) handling them.  Snapshots store events as
    #: (time, seq, kind, args, aux) tuples, and load_snapshot refuses a
    #: heap entry whose kind is not in this set.
    _EVENT_KINDS = _INLINE_KINDS | frozenset({
        "record_sink", "deliver_one_faulty", "transmit_result",
        "check_retransmit", "deliver_reliable", "receive_ack",
        "watchdog_tick", "checkpoint_tick",
    })

    def _at(
        self, time: int, kind: str, args: tuple = (), aux: bool = False
    ) -> None:
        """Schedule event ``kind(*args)``; ``aux`` marks bookkeeping
        events (watchdog ticks, retransmission timers, checkpoint
        ticks) that must not count as machine activity for cycle
        accounting or the ``max_cycles`` budget.  The per-firing kinds
        (dispatch, deliver_results, deliver_ack) push likewise from
        inside :meth:`_loop`, which holds the counters in locals."""
        heapq.heappush(self._events, (time, self._seq, kind, args, aux))
        self._seq += 1
        if kind not in _TICKERS:
            self._live_events += 1

    def _post(self, cid: int, when: int, kind: str, args: tuple) -> None:
        """Schedule event ``kind(*args)`` where cell ``cid`` runs: on
        this heap, or in the outbox for the shard that owns it."""
        if self._owns(cid):
            self._at(when, kind, args)
        else:
            self._outbox.append((self._owner[cid], when, kind, args))

    def _route_delay(self, n_packets: int = 1) -> int:
        """Routing network delay, with optional bandwidth contention."""
        delay = self.config.rn_delay
        if self.config.rn_bandwidth:
            start = max(self.now, self._rn_next_free)
            self._rn_next_free = start + (
                n_packets + self.config.rn_bandwidth - 1
            ) // self.config.rn_bandwidth
            delay += start - self.now
        return delay

    # ------------------------------------------------------------------
    # enabling
    # ------------------------------------------------------------------
    def _is_enabled(self, cid: int, st: _CellState) -> bool:
        """The enabling rule read off the cell's occupancy: no
        acknowledge outstanding and every needed operand delivered.
        :meth:`_loop` inlines it for the cells an event wakes."""
        if st.acks_pending:
            return False
        plan = self._linked[cid]
        shape = plan.shape
        operands = st.operands
        # port by port, not by count: an arc into a port beyond the
        # arity parks a token that must not enable (or block) the cell
        for port in shape.need:
            if port not in operands:
                return False
        if shape.kind == _MERGE:
            src = {**operands, **plan.cell.consts}
            if src[MERGE_CONTROL_PORT]:
                return MERGE_TRUE_PORT in src
            return MERGE_FALSE_PORT in src
        if shape.kind == _SOURCE:
            return st.source_pos < len(plan.values)
        return True

    def _source_seq(self, cell: Cell) -> list[Any]:
        return _source_values(cell, self.inputs)

    def _scan_ready(self, primed: Collection[int] = ()) -> None:
        """Queue, in graph order, the owned cells enabled before any
        event ran: those needing no delivered operand or ``primed`` by
        an initial token.  No other cell is touched, so a machine links
        plans for these cells and for those that fire, and no other."""
        shape_of = self._linked.shape_of
        for cell in self.graph:
            cid = cell.cid
            if self._owns(cid) and (cid in primed or not shape_of(cell).need):
                self._maybe_ready(cid)

    def _maybe_ready(self, cid: int) -> None:
        """Queue owned cell ``cid`` on its PE if it is enabled (the loop
        does this inline for the cells its own events wake)."""
        st = self.cell_state[cid]
        if st.queued or not self._is_enabled(cid, st):
            return
        st.queued = True
        pe_idx = self.assignment[cid]
        if self.fault_plan is not None and self.recovery:
            pe_idx = self._reroute(cid, pe_idx)
        self._enqueue(pe_idx, (cid,))

    def _enqueue(self, pe_idx: int, cids) -> None:
        """Append ready ``cids`` to PE ``pe_idx``'s queue.  One pending
        dispatch per PE is enough: the loop drains or reschedules it,
        and more would grow the heap to O(tokens), not O(cells)."""
        self._pe_queues[pe_idx].extend(cids)
        if not self._dispatch_pending[pe_idx]:
            self._dispatch_pending[pe_idx] = True
            when = max(self.now, self.pes[pe_idx].next_free)
            self._at(when, "dispatch", (pe_idx,))

    def _reroute(self, cid: int, pe_idx: int) -> int:
        """The PE ready cell ``cid`` queues on under recovery: its own
        ``pe_idx``, or if that failed, the next live one."""
        if not self.fault_plan.is_dead("pe", pe_idx, self.now):
            return pe_idx
        self.injector.note_eviction("pe", pe_idx)
        pe_idx = self.assignment[cid] = self._next_live_pe(pe_idx)
        self.injector.note_reroute()
        return pe_idx

    def _next_live_pe(self, pe_idx: int) -> int:
        n = len(self.pes)
        for k in range(1, n):
            cand = (pe_idx + k) % n
            if not self.fault_plan.is_dead("pe", cand, self.now):
                return cand
        raise SimulationError(f"all {n} PEs failed at cycle {self.now}")

    def _pe_outage(self, pe_idx: int, queue: list[int]) -> None:
        """A dispatch on failed PE ``pe_idx``: with recovery, migrate
        its ready cells to a live PE; without, strand them until the
        outage window (if bounded) ends."""
        if self.recovery:
            target = self._next_live_pe(pe_idx)
            self.injector.note_eviction("pe", pe_idx)
            self.injector.note_reroute(len(queue))
            for cid in queue:
                self.assignment[cid] = target
            self._enqueue(target, queue)
            queue.clear()
            return
        end = min((f.end for f in self.fault_plan.faults_for("pe", pe_idx)
                   if f.kind == "outage" and f.active(self.now)
                   and f.end is not None), default=None)
        if end is not None:
            self._dispatch_pending[pe_idx] = True
            self._at(end, "dispatch", (pe_idx,))

    # ------------------------------------------------------------------
    # units
    # ------------------------------------------------------------------
    def _pick_unit(self, kind: str, packets: PacketCounters
                   ) -> tuple[int, _UnitState]:
        """Count an operation packet to a unit of ``kind`` and pick the
        next one by round robin, skipping evicted units when recovery
        is on."""
        fu = kind == "fu"
        if fu:
            packets.op_fu += 1
        else:
            packets.op_am += 1
        pool, rr = (self.fus, self._fu_rr) if fu else (self.ams, self._am_rr)
        plan = self.fault_plan if self.recovery else None
        probe_t = self.now + self.config.rn_delay
        for _ in pool:
            rr = (rr + 1) % len(pool)
            if plan is not None and plan.is_dead(kind, rr, probe_t):
                self.injector.note_eviction(kind, rr)
                continue
            if fu:
                self._fu_rr = rr
            else:
                self._am_rr = rr
            return rr, pool[rr]
        raise SimulationError(
            f"all {len(pool)} {kind.upper()} units failed at cycle "
            f"{self.now}"
        )

    # ------------------------------------------------------------------
    # result delivery: clean, faulty, and reliable paths
    # ------------------------------------------------------------------
    def _send_results_faulty(self, arcs: list, value: Any, done: int) -> None:
        """Result delivery under a fault plan with recovery disabled:
        faults are injected but nothing protects against them."""
        base = max(done + self._route_delay(len(arcs)), self.now + 1)
        for arc in arcs:
            fate = self.injector.result_fate(arc.aid, value)
            for i, v in enumerate(fate.deliveries):
                self._post(arc.dst, base + i, "deliver_one_faulty",
                           (arc.aid, v))

    def _deliver_one_faulty(self, aid: int, value: Any) -> None:
        arc = self.graph.arcs[aid]
        st = self.cell_state[arc.dst]
        if arc.dst_port in st.operands:
            # a duplicate arrived while the register is full; hardware
            # without the reliability layer just loses it
            self.rel.overruns_dropped += 1
            return
        self.packets.results += 1
        st.operands[arc.dst_port] = value
        self._progress += 1
        self._maybe_ready(arc.dst)

    def _send_results_reliable(
        self, arcs: list, value: Any, done: int, lost: bool
    ) -> None:
        """Sequence-numbered send with timeout retransmission."""
        for arc in arcs:
            aid = arc.aid
            seq = self._send_seq.get(aid, 0)
            self._send_seq[aid] = seq + 1
            self._outstanding[(aid, seq)] = value
            if not lost:
                self._at(done, "transmit_result", (aid, seq))
            self._at(
                done + self._timeout, "check_retransmit", (aid, seq), aux=True
            )

    def _transmit_result(self, aid: int, seq: int) -> None:
        value = self._outstanding.get((aid, seq), _ABSENT)
        if value is _ABSENT:
            return          # acknowledged while the event was in flight
        if self.injector is not None:
            fate = self.injector.result_fate(aid, value)
            copies = list(zip(fate.deliveries, fate.corrupted))
        else:
            copies = [(value, False)]
        dst = self.graph.arcs[aid].dst
        for i, (v, corrupted) in enumerate(copies):
            delay = max(1, self._route_delay()) + i
            self._post(dst, self.now + delay, "deliver_reliable",
                       (aid, seq, v, corrupted))

    def _deliver_reliable(
        self, aid: int, seq: int, value: Any, corrupted: bool
    ) -> None:
        if corrupted:
            # the checksum layer detects transit corruption and discards
            # the packet; the retransmission timer recovers the value
            self.rel.corruptions_detected += 1
            return
        if seq < self._recv_count.get(aid, 0):
            self.rel.duplicates_suppressed += 1
            if seq < self._consumed_count.get(aid, 0):
                # the original ack may have been lost: re-acknowledge
                self.rel.acks_resent += 1
                self._transmit_ack(aid, seq)
            return
        arc = self.graph.arcs[aid]
        st = self.cell_state[arc.dst]
        st.operands[arc.dst_port] = value
        self._recv_count[aid] = seq + 1
        self.packets.results += 1
        self._progress += 1
        self._maybe_ready(arc.dst)

    def _check_retransmit(self, aid: int, seq: int) -> None:
        if (aid, seq) not in self._outstanding:
            return
        n = self._retry_counts.get((aid, seq), 0) + 1
        limit = self.config.max_retransmits
        if limit and n > limit:
            # permanent loss: give up so the run can quiesce and the
            # deadlock diagnoser can explain what is missing
            self.rel.retransmit_failures += 1
            self._outstanding.pop((aid, seq), None)
            self._retry_counts.pop((aid, seq), None)
            return
        self._retry_counts[(aid, seq)] = n
        self.rel.retransmissions += 1
        self._transmit_result(aid, seq)
        self._at(
            self.now + self._timeout, "check_retransmit", (aid, seq), aux=True
        )

    # ------------------------------------------------------------------
    # acknowledges
    # ------------------------------------------------------------------
    def _send_ack(self, arc) -> None:
        """Acknowledge under the reliability layer or, unprotected,
        under a fault plan (a clean run acknowledges from _loop)."""
        if self._reliable:
            seq = self._consumed_count.get(arc.aid, 0)
            self._consumed_count[arc.aid] = seq + 1
            self._transmit_ack(arc.aid, seq)
            return
        self.packets.acks += 1
        when = self.now + self._linked.ack_delay
        for i in range(self.injector.ack_fate(arc.aid)):
            self._post(arc.src, when + i, "deliver_ack", (arc.src,))

    def _transmit_ack(self, aid: int, seq: int) -> None:
        self.packets.acks += 1
        ack_delay = self._linked.ack_delay
        copies = (
            self.injector.ack_fate(aid) if self.injector is not None else 1
        )
        src = self.graph.arcs[aid].src
        for i in range(copies):
            self._post(src, self.now + ack_delay + i, "receive_ack",
                       (aid, seq))

    def _receive_ack(self, aid: int, seq: int) -> None:
        if seq < self._acked_count.get(aid, 0):
            self.rel.dup_acks_suppressed += 1
            return
        self._acked_count[aid] = seq + 1
        self._outstanding.pop((aid, seq), None)
        self._retry_counts.pop((aid, seq), None)
        # the producer's acknowledge, as the loop's deliver_ack
        producer = self.graph.arcs[aid].src
        st = self.cell_state[producer]
        if st.acks_pending > 0:
            st.acks_pending -= 1
        if st.acks_pending == 0:
            self._maybe_ready(producer)

    def _record_sink(self, cid: int, value: Any) -> None:
        cell = self.graph.cells[cid]
        self.sink_values[cid].append(value)
        self.sink_times[cid].append(self.now)
        self._progress += 1
        if cell.op is Op.AM_WRITE:
            self.am_arrays[cell.params["stream"]].append(value)

    # ------------------------------------------------------------------
    # watchdog
    # ------------------------------------------------------------------
    def _owns(self, cid: int) -> bool:
        """Whether this machine executes cell ``cid``: a plain machine
        owns every cell, a shard only those its partition gives it."""
        return self._owner is None or self._owner[cid] == self.shard_index

    def _pending_work(self) -> tuple[int, int]:
        """(missing sink outputs, unconsumed input tokens) of the cells
        this machine owns."""
        missing = 0
        for cid, values in self.sink_values.items():
            limit = self.graph.cells[cid].params.get("limit")
            if limit is not None and len(values) < limit:
                missing += limit - len(values)
        undrained = 0
        for cell in self.graph:
            if cell.op in (Op.SOURCE, Op.AM_READ) and self._owns(cell.cid):
                seq = self._source_seq(cell)
                pos = self.cell_state[cell.cid].source_pos
                if pos < len(seq):
                    undrained += len(seq) - pos
        return missing, undrained

    def _sink_progress(self) -> dict[str, tuple[int, Optional[int]]]:
        out: dict[str, tuple[int, Optional[int]]] = {}
        for cid, values in self.sink_values.items():
            cell = self.graph.cells[cid]
            out[cell.params["stream"]] = (
                len(values),
                cell.params.get("limit"),
            )
        return out

    def _watchdog_tick(self) -> None:
        if not self._live_events:
            return          # machine quiesced; _check_complete takes over
        if self._progress != self._wd_last:
            self._wd_last = self._progress
            self._wd_stalls = 0
        else:
            self._wd_stalls += 1
            missing, undrained = self._pending_work()
            if (
                self._wd_stalls >= self.config.watchdog_patience
                and (missing or undrained)
            ):
                diag = diagnose(self)
                raise DeadlockError(
                    f"watchdog: no progress for about "
                    f"{self._wd_stalls * self._wd_interval} cycles "
                    f"(stalled at cycle {self.now} with {missing} expected "
                    f"outputs missing)\n{diag.summary()}",
                    step=self.now,
                    pending=missing + undrained,
                    diagnosis=diag,
                )
        self._at(self.now + self._wd_interval, "watchdog_tick", aux=True)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _checkpoint_tick(self) -> None:
        if not self._live_events:
            return          # machine quiesced; let the heap drain
        if self.ckpt is None:
            return          # detached from its manager (replay probe)
        # re-arm first so the pending tick is part of the snapshot and a
        # resumed run keeps checkpointing on the same cadence
        self._at(
            self.now + self.ckpt.config.interval, "checkpoint_tick", aux=True
        )
        self.ckpt.save_periodic(self)

    def request_snapshot(
        self, reason: str = "live", path: Optional[str] = None
    ) -> None:
        """Ask for an out-of-band snapshot at the next safe point.

        Async-signal-safe by construction: the call only appends to a
        list, and the event loop drains pending requests between
        events -- the next quiescent point where the machine state is
        self-consistent and therefore resumable.  With ``path`` the
        snapshot is written there; otherwise it goes through the
        checkpoint manager as ``live-<cycle>.snap``.  Requesting with
        neither a path nor an attached manager raises
        :class:`~repro.errors.SnapshotError` immediately (there would
        be nowhere to write).
        """
        if path is None and self.ckpt is None:
            from ..errors import SnapshotError

            raise SnapshotError(
                "request_snapshot needs a checkpoint manager or an "
                "explicit path; this machine has neither"
            )
        self._snap_requests.append((reason, path))

    def _drain_snapshot_requests(self) -> None:
        from ..checkpoint.snapshot import save_snapshot

        while self._snap_requests:
            reason, path = self._snap_requests.pop(0)
            if path is not None:
                save_snapshot(self, path, reason=reason)
            elif self.ckpt is not None:
                self.ckpt.save_live(self, reason)

    # ------------------------------------------------------------------
    # delta snapshot sections
    # ------------------------------------------------------------------
    #: attributes shipped whole in every delta's ``core`` section:
    #: always-dirty scalars, the event heap and the small singletons
    _SNAP_CORE_ATTRS: tuple = (
        "rel", "injector", "_wd_last", "_wd_stalls", "_rn_next_free",
        "packets", "now", "_finish", "_progress", "_events",
        "_live_events", "_seq", "_fu_rr", "_am_rr", "_started", "ckpt",
        "_snap_requests", "trace", "capture",
    )
    #: attributes that never mutate after construction; a delta chain
    #: takes them from its base snapshot
    _SNAP_STATIC_ATTRS: frozenset = frozenset({
        "config", "graph", "inputs", "fault_plan", "recovery",
        "_reliable", "_timeout", "_wd_interval", "workload_id",
        "_snap_chain", "_linked", "_ff", "schedule",
    })
    #: dict/list-structured attributes decomposed into per-key sections
    #: by :meth:`snapshot_sections`
    _SNAP_SECTIONED_ATTRS: frozenset = frozenset({
        "assignment", "cell_state", "sink_values", "sink_times",
        "am_arrays", "pes", "fus", "ams", "_pe_queues",
        "_dispatch_pending", "_send_seq", "_recv_count",
        "_consumed_count", "_acked_count", "_outstanding",
        "_retry_counts",
    })

    def __getstate__(self) -> dict:
        # the chain tip must die with the process: a pickled copy of
        # this machine (snapshot, worker clone, degraded-shard
        # round-trip) has no claim on files the original wrote, and its
        # pickled sections would be stale the moment either side runs
        state = self.__dict__.copy()
        state.pop("_snap_chain", None)
        # derived from graph + config: relinked on load, never stored
        state.pop("_linked", None)
        # a fast-forward detector and its report belong to one run call
        state.pop("_ff", None)
        state.pop("schedule", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._linked = _Linked(self)

    def snapshot_sections(self) -> dict:
        """Decompose the mutable machine state into addressable
        sections for delta snapshots.

        Keys are stable across a run (``cell:<cid>``, ``arc:<aid>``,
        ``pe:<i>``, ``sink:<cid>``, ``amarr:<stream>``, ``assign``,
        ``core``...), so the chain writer can diff pickled section
        bytes against the previous link and ship only what changed.
        Every mutable attribute must be covered by exactly one
        section; the coverage check below fails closed if a new
        attribute is added without deciding its section.
        """
        sections: dict = {}
        for cid, st in self.cell_state.items():
            sections[f"cell:{cid}"] = st
        for cid, values in self.sink_values.items():
            sections[f"sink:{cid}"] = (values, self.sink_times[cid])
        for stream, arr in self.am_arrays.items():
            sections[f"amarr:{stream}"] = arr
        for i, unit in enumerate(self.pes):
            sections[f"pe:{i}"] = (
                unit, self._pe_queues[i], self._dispatch_pending[i]
            )
        for i, unit in enumerate(self.fus):
            sections[f"fu:{i}"] = unit
        for i, unit in enumerate(self.ams):
            sections[f"amu:{i}"] = unit
        per_arc: dict = {}

        def slot(aid: int) -> list:
            return per_arc.setdefault(aid, [None, None, None, None, {}, {}])

        for aid, v in self._send_seq.items():
            slot(aid)[0] = v
        for aid, v in self._recv_count.items():
            slot(aid)[1] = v
        for aid, v in self._consumed_count.items():
            slot(aid)[2] = v
        for aid, v in self._acked_count.items():
            slot(aid)[3] = v
        for (aid, seq), v in self._outstanding.items():
            slot(aid)[4][seq] = v
        for (aid, seq), v in self._retry_counts.items():
            slot(aid)[5][seq] = v
        for aid, vals in per_arc.items():
            sections[f"arc:{aid}"] = tuple(vals)
        sections["assign"] = self.assignment
        sections["core"] = {
            name: getattr(self, name) for name in self._SNAP_CORE_ATTRS
        }
        covered = (
            self._SNAP_STATIC_ATTRS
            | self._SNAP_SECTIONED_ATTRS
            | set(self._SNAP_CORE_ATTRS)
        )
        missing = set(self.__dict__) - covered
        if missing:
            raise SimulationError(
                f"machine attribute(s) {sorted(missing)} are not covered "
                f"by any delta snapshot section; add them to "
                f"_SNAP_CORE_ATTRS, _SNAP_SECTIONED_ATTRS or "
                f"_SNAP_STATIC_ATTRS of {type(self).__name__}"
            )
        return sections

    def apply_snapshot_sections(self, sections: dict, removed=()) -> None:
        """Overwrite this machine's state with delta ``sections``.

        The inverse of :meth:`snapshot_sections`, applied link by link
        when a delta chain is loaded.  Keys are validated against this
        machine's structure (cell/arc/unit ids, core attribute names),
        so a checksummed-but-hostile delta cannot graft state onto
        attributes the writer never sectioned.
        """
        from ..errors import SnapshotError

        def bad(key, why):
            return SnapshotError(
                f"delta section {key!r} does not apply to this machine: "
                f"{why}"
            )

        for key in list(removed) + list(sections):
            if not isinstance(key, str):
                raise bad(key, "section keys must be strings")
        for key in removed:
            tag, _, ident = key.partition(":")
            if tag != "arc" or not ident.lstrip("-").isdigit():
                raise bad(key, "only arc sections can disappear")
            aid = int(ident)
            self._send_seq.pop(aid, None)
            self._recv_count.pop(aid, None)
            self._consumed_count.pop(aid, None)
            self._acked_count.pop(aid, None)
            for d in (self._outstanding, self._retry_counts):
                for k in [k for k in d if k[0] == aid]:
                    del d[k]
        for key, value in sections.items():
            try:
                self._apply_one_section(key, value, bad)
            except SnapshotError:
                raise
            except (TypeError, ValueError, AttributeError, KeyError) as exc:
                # a checksummed-but-hostile delta can carry a value of
                # the wrong shape (tuple arity, non-dict maps); fail
                # closed with the typed error, never a raw unpack crash
                raise bad(key, f"malformed section value ({exc})") from exc

    def _apply_one_section(self, key: str, value: Any, bad) -> None:
        tag, _, ident = key.partition(":")
        if tag == "cell":
            cid = int(ident) if ident.lstrip("-").isdigit() else None
            if cid not in self.cell_state:
                raise bad(key, "unknown cell id")
            self.cell_state[cid] = value
        elif tag == "sink":
            cid = int(ident) if ident.lstrip("-").isdigit() else None
            if cid not in self.sink_values:
                raise bad(key, "unknown sink cell id")
            self.sink_values[cid], self.sink_times[cid] = value
        elif tag == "amarr":
            if ident not in self.am_arrays:
                raise bad(key, "unknown array memory stream")
            self.am_arrays[ident] = value
        elif tag in ("pe", "fu", "amu"):
            units = {"pe": self.pes, "fu": self.fus,
                     "amu": self.ams}[tag]
            idx = int(ident) if ident.isdigit() else -1
            if not 0 <= idx < len(units):
                raise bad(key, "unit index out of range")
            if tag == "pe":
                (units[idx], self._pe_queues[idx],
                 self._dispatch_pending[idx]) = value
            else:
                units[idx] = value
        elif tag == "arc":
            if not ident.lstrip("-").isdigit():
                raise bad(key, "arc id is not an integer")
            aid = int(ident)
            sseq, recv, cons, acked, outstanding, retries = value
            for d, v in (
                (self._send_seq, sseq), (self._recv_count, recv),
                (self._consumed_count, cons),
                (self._acked_count, acked),
            ):
                if v is None:
                    d.pop(aid, None)
                else:
                    d[aid] = v
            for d, new in (
                (self._outstanding, outstanding),
                (self._retry_counts, retries),
            ):
                for k in [k for k in d if k[0] == aid]:
                    del d[k]
                for seq, v in new.items():
                    d[(aid, seq)] = v
        elif key == "assign":
            self.assignment = value
        elif key == "core":
            if not isinstance(value, dict):
                raise bad(key, "core section is not a dict")
            allowed = set(self._SNAP_CORE_ATTRS)
            for name, attr in value.items():
                if name not in allowed:
                    raise bad(key, f"unknown core attribute {name!r}")
                setattr(self, name, attr)
        else:
            raise bad(key, "unknown section tag")

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: int = 50_000_000,
        crash_at: Optional[int] = None,
        stop_at_checkpoint: Optional[int] = None,
        fast_forward: bool = False,
    ) -> MachineStats:
        """Run (or, on a machine loaded from a snapshot, continue) the
        simulation to completion.

        ``crash_at`` hard-kills the process (``os._exit``) the first
        time the event clock reaches that cycle -- a deterministic
        stand-in for SIGKILL used by the checkpoint/resume smoke tests.

        ``stop_at_checkpoint`` pauses the run just *before* executing
        the first ``checkpoint_tick`` event at or after that cycle --
        the exact heap point where the recorded run captured its
        digest-ledger entry, so a replay probe's trace digest is
        directly comparable to the ledger's.  A paused machine skips
        the completion check and can simply be ``run()`` again.

        ``fast_forward`` detects the periodic steady state and skips
        whole periods of it (:mod:`repro.machine.fastforward`), with
        results bit-identical to a plain run; :attr:`schedule` then
        reports the jumps taken, or why the run stayed concrete.
        """
        ff = None
        if fast_forward:
            from .fastforward import FastForward

            ff = FastForward(self, max_cycles)
            self.schedule = ff.schedule
        if not self._started:
            self._start()
        try:
            if self._loop(max_cycles, crash_at, stop_at_checkpoint):
                return self.stats()     # paused at a checkpoint boundary
            self._check_complete()
        except (DeadlockError, SimulationTimeout) as exc:
            if self.ckpt is not None:
                self.ckpt.save_failure(self, exc)
            raise
        finally:
            if ff is not None:
                vars(self).pop("_ff", None)     # disarm for any later run
        if ff is not None:
            ff.finalize()
        if self.ckpt is not None:
            self.ckpt.on_complete(self)
        return self.stats()

    def _start(self) -> None:
        # Pre-load initial tokens.  The producing cell of a pre-loaded
        # arc owes an acknowledge before its own first firing may write
        # that arc (single-token discipline), so it starts with a
        # pending acknowledge per initial token.
        self._started = True
        primed = set()
        for arc in self.graph.arcs.values():
            if arc.has_initial:
                primed.add(arc.dst)
                self.cell_state[arc.dst].operands[arc.dst_port] = arc.initial
                self.cell_state[arc.src].acks_pending += 1
                if self._reliable:
                    # the pre-loaded token occupies sequence number 0
                    self._send_seq[arc.aid] = 1
                    self._recv_count[arc.aid] = 1
        self._scan_ready(primed)
        if self.config.watchdog:
            self._at(self._wd_interval, "watchdog_tick", aux=True)
        if self.ckpt is not None:
            self.ckpt.on_start(self)
            if self.ckpt.config.interval:
                self._at(
                    self.ckpt.config.interval, "checkpoint_tick", aux=True
                )

    def _loop(self, max_cycles: int, crash_at: Optional[int] = None,
              stop_at_checkpoint: Optional[int] = None,
              horizon: Optional[int] = None) -> bool:
        """Drain the event heap -- or, given a ``horizon``, run every
        event at or before it (a shard's window) -- and return True when
        paused at a ``stop_at_checkpoint`` boundary.  The per-firing
        kinds run inline over the linked plans (Section 2, Figure 1):
        ``dispatch`` fires a PE's next ready cell, ``deliver_results``
        and ``deliver_ack`` fill operand registers and return
        acknowledges.  The schedule counter and the live-event count
        live in locals, written back before every call out of the loop
        or exit from it and reloaded after the call."""
        link, events, cell_state = self._linked, self._events, self.cell_state
        heappush, heappop = heapq.heappush, heapq.heappop
        arcs, pes, packets = self.graph.arcs, self.pes, self.packets
        queues, pending = self._pe_queues, self._dispatch_pending
        outbox, snap_requests = self._outbox, self._snap_requests
        trace, capture = self.trace, getattr(self, "capture", None)
        faults, reliable = self.fault_plan, self._reliable
        reroute = faults is not None and self.recovery
        # with neither a fault plan (so no packet is ever lost) nor the
        # reliability layer, packets go straight onto the heap
        clean = self.injector is None and not reliable
        pe_issue = self.config.pe_issue_interval
        fu_issue = self.config.fu_issue_interval
        ff = self._ff
        anchor = None if ff is None else ff.anchor
        # pause, crash, budget and horizon all wait for the clock: one
        # comparison keeps the four tests off the per-event path
        limits = (max_cycles, crash_at, stop_at_checkpoint,
                  None if horizon is None else horizon + 1)
        guard = min(t for t in limits if t is not None)
        seq, live = self._seq, self._live_events
        try:
            # an unconditional back-edge: CPython 3.11 specialises a
            # code object after eight calls or eight of those, and this
            # is called once a run -- else a process's first seven runs
            # are ~1.3x slower
            while True:
                if not events:
                    break
                if snap_requests:
                    # between events the state is self-consistent: a
                    # snapshot taken here resumes like a periodic one
                    self._seq, self._live_events = seq, live
                    self._drain_snapshot_requests()
                if events[0][0] >= guard:
                    time, _seq, kind, _args, aux = events[0]
                    if horizon is not None and time > horizon:
                        # peeked, not popped: a pop and a push back can
                        # reorder the heap list a coordinated set pickles
                        break
                    self._seq, self._live_events = seq, live
                    if (stop_at_checkpoint is not None
                            and kind == "checkpoint_tick"
                            and time >= stop_at_checkpoint):
                        # push the tick back untouched: the pause is
                        # invisible to the machine and the run can go on
                        heappush(events, heappop(events))
                        return True
                    if crash_at is not None and time >= crash_at:
                        os._exit(137)   # simulated SIGKILL: no cleanup
                    if time > max_cycles and not aux:
                        # pushed back, so a final snapshot stays
                        # resumable (`repro resume --max-cycles`)
                        heappush(events, heappop(events))
                        who = ("machine simulation" if self._owner is None
                               else f"shard {self.shard_index}")
                        raise SimulationTimeout(
                            f"{who} exceeded {max_cycles} cycles (still "
                            f"making progress: livelock or genuinely long "
                            f"run)", cycles=time, stats=self.stats(),
                            sink_progress=self._sink_progress())
                time, _seq, kind, args, aux = heappop(events)
                if kind not in _TICKERS:
                    live -= 1
                self.now = now = time
                if not aux:
                    self._finish = time
                    if trace is not None:
                        trace.record(time, kind, args)
                    if capture is not None:
                        capture.record(time, kind, args)
                if kind == "dispatch":
                    pe_idx = args[0]
                    pending[pe_idx] = False
                    queue, pe = queues[pe_idx], pes[pe_idx]
                    if not queue:
                        continue
                    if faults is not None and faults.is_dead("pe", pe_idx,
                                                             now):
                        self._seq, self._live_events = seq, live
                        self._pe_outage(pe_idx, queue)
                        seq, live = self._seq, self._live_events
                        continue
                    # a PE still issuing an earlier instruction retries
                    # when its dispatch slot frees up (pushed below); a
                    # queued cell stays enabled unless, queued at load,
                    # it owes an acknowledge for an initial token
                    fires = refire = False
                    if now >= pe.next_free:
                        cid = queue.pop(0)
                        st = cell_state[cid]
                        st.queued = False
                        fires = not st.acks_pending
                    if fires:
                        if pe_issue:
                            interval = pe_issue if faults is None else max(
                                1, round(pe_issue * faults.slow_factor(
                                    "pe", pe_idx, now)))
                            pe.next_free = now + interval
                            pe.busy_cycles += interval
                        pe.ops += 1
                        if cid == anchor:
                            self._seq, self._live_events = seq, live
                            ff.on_anchor()      # may jump the clock
                            seq, live = self._seq, self._live_events
                            now, ff = self.now, self._ff
                            anchor = None if ff is None else ff.anchor
                        st.fire_count += 1
                        self._progress += 1
                        plan = link[cid]
                        cell, shape, acks = plan.cell, plan.shape, plan.acks
                        operands, fkind = st.operands, shape.kind
                        # operand fields as the firing reads them: a constant
                        # is always there (and wins over a parked token)
                        src = ({**operands, **cell.consts} if cell.consts
                               else operands)
                        try:
                            if fkind == _BINARY:
                                result = shape.fn(src[0], src[1])
                            elif fkind == _MOVE:
                                result = src[0]
                            elif fkind == _SOURCE:
                                result = plan.values[st.source_pos]
                                st.source_pos += 1
                            elif fkind == _MERGE:
                                if src[MERGE_CONTROL_PORT]:
                                    result = src[MERGE_TRUE_PORT]
                                else:
                                    result = src[MERGE_FALSE_PORT]
                                    acks = plan.acks_false
                            elif fkind == _UNARY:
                                result = shape.fn(src[0])
                            elif fkind == _CONST:
                                result = cell.params["value"]
                            else:
                                raise SimulationError(
                                    f"cannot execute {cell.op!r}")
                        except ZeroDivisionError as exc:
                            raise SimulationError(
                                f"division by zero in {cell.label} at "
                                f"cycle {now}") from exc
                        # destinations this firing writes: untagged ones
                        # plus those tagged with the gate's value
                        out, aids, remote = dest = plan.on_false
                        if dest is not plan.on_true and src[GATE_PORT]:
                            out, aids, remote = plan.on_true
                        # acknowledge the producer of each consumed operand
                        if clean:
                            packets.acks += len(acks)
                            when = now + link.ack_delay
                            for _arc, port, producer, shard in acks:
                                operands.pop(port, None)
                                if shard is None:
                                    heappush(events, (when, seq, "deliver_ack",
                                                      (producer,), False))
                                    seq, live = seq + 1, live + 1
                                else:
                                    outbox.append((shard, when, "deliver_ack",
                                                   (producer,)))
                        else:
                            self._seq, self._live_events = seq, live
                            for arc, port, _producer, _shard in acks:
                                operands.pop(port, None)
                                self._send_ack(arc)
                            seq, live = self._seq, self._live_events
                        st.acks_pending = len(out)
                        lost, route = False, link.route_delay
                        if shape.unit == "pe":
                            packets.op_local += 1
                            done = now + shape.latency
                        else:
                            idx, unit = self._pick_unit(shape.unit, packets)
                            if route is None:   # contention on the network
                                route = self._route_delay()
                            done = max(now + route, unit.next_free)
                            latency = shape.latency
                            if faults is not None:
                                if faults.is_dead(shape.unit, idx, done):
                                    lost = True     # an outage swallows
                                    self.injector.note_op_lost()    # it
                                else:               # a slowdown stretches
                                    latency = max(1, round(latency * faults
                                        .slow_factor(shape.unit, idx, done)))
                            if not lost:
                                if fu_issue:
                                    unit.next_free = done + fu_issue
                                unit.busy_cycles += latency
                                unit.ops += 1
                                done += latency
                        if shape.sink:
                            if not lost:
                                heappush(events, (done, seq, "record_sink",
                                                  (cid, result), False))
                                seq, live = seq + 1, live + 1
                        elif clean:
                            if link.route_delay is None:
                                route = self._route_delay(len(out))
                            when = done + route
                            when = when if when > now else now + 1
                            if remote is not None:  # a shard's: fresh
                                aids = tuple(aids)  # per event, see _Plan
                            # a firing that wrote nothing still delivers
                            # (nothing): it ends the run no earlier
                            if aids or not remote:
                                heappush(events, (when, seq, "deliver_results",
                                                  (aids, result), False))
                                seq, live = seq + 1, live + 1
                            for shard, aid in remote or ():
                                outbox.append((shard, when, "deliver_results",
                                               ((aid,), result)))
                        elif reliable or not lost:
                            self._seq, self._live_events = seq, live
                            if reliable:
                                self._send_results_reliable(out, result,
                                                            done, lost)
                            else:
                                self._send_results_faulty(out, result, done)
                            seq, live = self._seq, self._live_events
                        # only a firing that wrote no destination can
                        # refire at once; any other waits for its acks
                        refire = not out
                    if queue and not pending[pe_idx]:
                        pending[pe_idx] = True
                        when = pe.next_free
                        heappush(events, (when if when > now else now, seq,
                                          "dispatch", (pe_idx,), False))
                        seq, live = seq + 1, live + 1
                    if not refire:
                        continue
                    wake, delivering = (cid,), False
                elif kind == "deliver_ack":
                    st = cell_state[args[0]]
                    if st.acks_pending > 0:
                        st.acks_pending -= 1
                    if st.acks_pending:
                        continue
                    wake, delivering = args, False
                elif kind == "deliver_results":
                    (wake, value), delivering = args, True
                else:
                    self._seq, self._live_events = seq, live
                    try:
                        link.handlers[kind](self, *args)
                    finally:
                        seq, live = self._seq, self._live_events
                    continue
                # the cells this event may have enabled: _is_enabled inline
                for cid in wake:
                    if delivering:      # ``wake`` holds arc ids
                        arc = arcs[cid]
                        cid, port = arc.dst, arc.dst_port
                        st = cell_state[cid]
                        if port in st.operands:
                            raise SimulationError(
                                f"operand overrun at cell {cid} port "
                                f"{port} (acknowledge discipline violated)")
                        st.operands[port] = value
                        packets.results += 1
                        self._progress += 1
                        if st.acks_pending:
                            continue
                    else:
                        st = cell_state[cid]
                    if st.queued:
                        continue
                    plan, operands = link[cid], st.operands
                    shape = plan.shape
                    for port in shape.need:
                        if port not in operands:
                            break
                    else:
                        if shape.kind == _MERGE:
                            src = {**operands, **plan.cell.consts}
                            if (MERGE_TRUE_PORT if src[MERGE_CONTROL_PORT]
                                    else MERGE_FALSE_PORT) not in src:
                                continue
                        elif (shape.kind == _SOURCE
                              and st.source_pos >= len(plan.values)):
                            continue
                        st.queued = True
                        pe_idx = self.assignment[cid]
                        if reroute:
                            pe_idx = self._reroute(cid, pe_idx)
                        queues[pe_idx].append(cid)
                        if not pending[pe_idx]:
                            pending[pe_idx] = True
                            when = pes[pe_idx].next_free
                            heappush(events, (when if when > now else now, seq,
                                              "dispatch", (pe_idx,), False))
                            seq, live = seq + 1, live + 1
        finally:
            self._seq, self._live_events = seq, live
        if snap_requests:
            # requests that arrived after the last event still get
            # their snapshot: the quiesced state is self-consistent
            self._drain_snapshot_requests()
        return False

    def _check_complete(self) -> None:
        self.now = self._finish
        missing, undrained = self._pending_work()
        if missing or undrained:
            diag = diagnose(self)
            parts = [
                f"machine quiescent at cycle {self._finish} with "
                f"{missing} expected outputs missing"
            ]
            if undrained:
                parts.append(f"{undrained} input tokens never consumed")
            raise DeadlockError(
                "; ".join(parts) + "\n" + diag.summary(),
                step=self._finish,
                pending=missing + undrained,
                diagnosis=diag,
            )

    def diagnose(self) -> DeadlockDiagnosis:
        """Diagnose the machine's current wait-for state (see
        :mod:`repro.machine.diagnose`)."""
        return diagnose(self)

    @classmethod
    def resume(cls, source) -> "Machine":
        """Load a machine from a snapshot file (or the newest *good*
        snapshot in a checkpoint directory) and return it ready to
        continue.

        Resuming from a directory picks the newest periodic (or
        initial/live/timeout) snapshot; ``failure-*.snap`` files pin
        an already-wedged machine and are only loaded when named
        explicitly.

        The loaded machine carries its complete mid-run state -- event
        heap, in-flight and retransmission-queue packets, sequence
        numbers, per-arc fault-fate cursors, unit health and statistics --
        so calling :meth:`run` again finishes the run with outputs
        bit-identical to an uninterrupted execution.
        """
        from ..checkpoint.snapshot import load_machine

        return load_machine(source, expected_cls=cls)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def outputs(self) -> dict[str, list[Any]]:
        out: dict[str, list[Any]] = {}
        for cid, values in self.sink_values.items():
            stream = self.graph.cells[cid].params["stream"]
            out[stream] = values
        return out

    def sink_arrival_times(self, stream: str) -> list[int]:
        for cid in self.sink_values:
            if self.graph.cells[cid].params["stream"] == stream:
                return self.sink_times[cid]
        raise SimulationError(f"no sink for stream {stream!r}")

    def initiation_interval(self, stream: str) -> float:
        return steady_interval(self.sink_arrival_times(stream))

    def stats(self) -> MachineStats:
        return MachineStats.of(
            [self],
            checkpoints=self.ckpt.stats if self.ckpt is not None else None,
        )

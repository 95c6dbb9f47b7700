"""Multi-process sharded execution of one instruction graph.

The graph is split into K shards by
:func:`repro.analysis.partition.partition_graph`; each shard runs the
ordinary event-driven :class:`~repro.machine.machine.Machine` loop over
its own cells, and every cross-shard arc becomes a *routed* arc: the
packets that would have been heap events on a single machine
(``deliver_results`` / ``deliver_reliable`` / ``receive_ack`` /
``deliver_ack``) travel between workers as plain-data messages.  The
per-arc sequence/ack/retransmission reliability layer is unchanged --
a dropped or corrupted cross-shard packet is retransmitted exactly
like a local one, because the shard machines run the same handlers on
the same per-arc state, merely split producer-side/consumer-side.

Conservative lockstep, adaptive horizons
----------------------------------------

Every packet sent at cycle ``t`` arrives at ``t + L`` or later, where
``L = max(1, rn_delay)`` (results add at least the network delay, acks
at least ``max(1, rn_delay)``).  The coordinator therefore runs a
classic conservative time-window protocol: it computes the global
minimum next-event time ``T`` over all shard heaps and in-flight
messages, lets every shard execute events up to a safe horizon,
collects the messages those events emitted, and delivers them at the
next barrier.  No shard ever receives a message in its past, so the
merged execution is equivalent to the single-heap one -- and because
message injection is sorted by ``(time, source shard, emission
index)``, it is also deterministic run-to-run.

The *fixed* horizon is the classic ``T + L - 1``.  The *adaptive*
horizon (default) is derived from cut-arc occupancy: each shard
reports an **earliest output time** (EOT) -- a lower bound on the
arrival cycle of the next packet it could possibly push across the
cut.  For every pending event at time ``t`` whose influence must
traverse at least ``d`` arcs (BFS hop distance to the nearest
shard-boundary cell) before reaching the cut, any resulting
cross-shard packet arrives at ``t + d + L`` or later: every arc
traversal (delivery, reliable copy, ack) costs at least one cycle and
brings the influence at most one hop closer, and an emission from a
boundary cell at time ``t'`` is stamped ``>= t' + L``.  The
coordinator may therefore run every shard to ``min(all EOTs, all
pending-message arrivals + L) - 1`` without any shard ever hearing
from the future -- on coarse cuts this batches thousands of cycles
per barrier instead of ``L``.  Shards whose heaps cannot reach the
cut at all (zero-cut component partitions) report no bound and run
to quiescence in one window.

Neither rule is a caller's choice: the runner uses adaptive horizons
whenever equal-cycle event order cannot affect modeled times and the
fixed cadence otherwise (see :meth:`ShardedRunner._order_free`).

Warm worker pool, one transport
-------------------------------

Worker processes are :class:`repro.workers.Worker` children forked
with a :class:`_LocalShard` as their request handler, so a process
shard executes exactly the commands the in-process transport does.
Spawn, framing, crash/hang detection, teardown and the warm pool all
live in :mod:`repro.workers`; this module only turns a
:class:`~repro.workers.WorkerFailure` into :class:`ShardCrashError` /
:class:`ShardHangError` (:meth:`ShardedRunner._reply`).  Workers
outlive a run: on success they park in the pool under the content
digest of the graph, and the next ``ShardedRunner`` over an equal
graph reclaims them with a ``rebuild`` command instead of paying
fork+import again.  Cut packets travel
on the seq-tagged command pipe and nowhere else: a ``window`` command
carries every packet a shard is due, its reply carries every packet
the window emitted, so a window costs one round trip per worker
however many packets cross the cut -- and the acknowledge discipline
(one token per arc) bounds that number by about twice the cut size.
Between barriers nothing is in flight outside the coordinator -- the
Chandy-Lamport ``channel_state`` captured by coordinated snapshots is
therefore complete by construction.

Coordinated (Chandy-Lamport) snapshots
--------------------------------------

At a barrier, all shards have executed exactly the events before the
barrier time and every in-flight packet is sitting in the
coordinator's routing buffer -- which *is* the channel state of the
cut.  When a checkpoint is due, each worker writes a v2 snapshot of
its machine **plus** the messages about to be injected into it
(``ckpt-<cycle>.shard<k>.snap``, payload ``extra.channel_state``), and
only after all K files land does the coordinator commit the set to the
manifest (see :mod:`repro.checkpoint.coordinator`) -- a crash between
shard writes leaves a partial set that is never eligible for resume.
:meth:`ShardedRunner.resume` loads the newest complete set,
re-injects each shard's channel state, and continues bit-identically.

Fault plans on sharded runs must use ``derivation="keyed"`` (see
:class:`repro.faults.FaultPlan`): each packet's fate is then a pure
function of ``(seed, arc, sequence number, cycle)``, so the shards
inject exactly the faults the single-process run would have.

In-process self-healing
-----------------------

With real worker processes and coordinated checkpoints, the runner is
self-healing (see DESIGN.md section 10): every reply wait carries a
deadline with liveness polls, so a dead *or hung* worker is detected
within a bounded window; on detection all shards roll back to the
latest complete coordinated set (survivors reload in place over the
``load`` op, the failed worker is respawned), the channel state of the
cut is re-injected, and the lockstep windows replay forward --
bit-identically, because windows are a pure function of shard state
plus injected messages.  Escalation mirrors the supervisor one level
down (:class:`RecoveryPolicy`): per-shard restart budgets with
exponential seeded backoff, two-strike same-window step-back, and on
budget exhaustion a typed :class:`ShardRecoveryExhausted` (exit 137
at the CLI) so ``repro supervise`` stays the outer loop of last
resort -- or, behind ``degrade=True``, the incurable shard is folded
into the coordinator process and the run continues with K-1 workers.
Worker-level chaos (:class:`repro.faults.ShardFault`) makes all of
this deterministically testable.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import pickle
import random
import time
from dataclasses import replace
from typing import Any, Optional, Union

from ..analysis.partition import Partition, cut_distances, partition_graph
from ..checkpoint.manager import CheckpointConfig
from ..checkpoint.snapshot import _gc_paused
from ..errors import (
    EXIT_SHARD_CRASH,
    DeadlockError,
    ReproError,
    SimulationError,
    SimulationTimeout,
    SnapshotError,
)
from ..faults import FaultPlan
from ..graph.graph import DataflowGraph
from ..graph.lower import lower_fifos
from ..graph.opcodes import Op
from ..graph.validate import validate
from ..workers import (
    BackoffPolicy,
    Worker,
    WorkerFailure,
    apply_fault,
    park,
    pooled_worker_count,
    shutdown_worker_pool,
    unpark,
)
from .config import MachineConfig
from .machine import Machine, _CellState
from .packets import PacketCounters
from .shard_config import RecoveryPolicy, ShardConfig
from .stats import MachineStats, RecoveryStats, ReliabilityStats

__all__ = [
    "Message",
    "RecoveryPolicy",
    "ShardConfig",
    "ShardCrashError",
    "ShardHangError",
    "ShardMachine",
    "ShardRecoveryExhausted",
    "ShardedRunner",
    "merge_shard_stats",
    "shutdown_worker_pool",
]

#: a routed cross-shard message: (arrival cycle, event kind, args)
Message = tuple[int, str, tuple]

#: reply deadline (seconds) for workers of runners without a healing
#: policy -- generous, but the parent never blocks forever on a pipe
_DEFAULT_DEADLINE = 600.0

#: upper bound on cycles batched into one adaptive window
_MAX_WINDOW = 4096


class ShardCrashError(SimulationError):
    """A shard worker process died (crash, SIGKILL, ``--crash-at``)."""

    def __init__(self, message: str, shard: int = -1,
                 exitcode: Optional[int] = None,
                 cycle: int = -1) -> None:
        self.shard = shard
        self.exitcode = exitcode
        #: barrier cycle of the command the worker was handling
        self.cycle = cycle
        super().__init__(message)


class ShardHangError(ShardCrashError):
    """A live worker missed its reply deadline (hung, not dead)."""


class ShardRecoveryExhausted(ShardCrashError):
    """In-process recovery gave up: a shard blew through its restart
    budget (or stepped back past every usable coordinated set).  A
    subclass of :class:`ShardCrashError`, so the CLI still exits 137
    and ``repro supervise`` remains the outer loop of last resort."""


class ShardMachine(Machine):
    """One shard's machine: the full graph, but only *owned* cells run.

    Every shard holds a replica of the whole (already FIFO-lowered)
    graph and of the input streams, so cell ids, arc ids and initial
    tokens line up exactly with the single-process machine; ownership
    only gates which cells may become ready here.  The delivery hooks
    divert packets for non-owned destinations into ``_outbox`` instead
    of the local heap; the coordinator routes them.
    """

    #: shard-level faults are legal on this machine class -- they are
    #: consumed by the coordinator, never by the machine itself (the
    #: plain Machine rejects plans that carry them)
    _hosts_shard_faults = True

    #: delta snapshot coverage (see Machine.snapshot_sections): the
    #: outbox travels with the core, the shard identity is static
    _SNAP_CORE_ATTRS = Machine._SNAP_CORE_ATTRS + ("_outbox",)
    _SNAP_STATIC_ATTRS = Machine._SNAP_STATIC_ATTRS | frozenset(
        {"shard_index", "n_shards", "_owner", "_cut_dist"}
    )

    #: lazily-built ``(cell_dist, arc_dist)`` hop-distance tables to
    #: the nearest shard-boundary cell (class default so machines
    #: pickled before this attribute existed still load)
    _cut_dist: Optional[tuple[dict[int, int], dict[int, int]]] = None

    def __init__(
        self,
        graph: DataflowGraph,
        *,
        shard_index: int,
        n_shards: int,
        owner: dict[int, int],
        config: Optional[MachineConfig] = None,
        inputs: Optional[dict[str, list[Any]]] = None,
        policy: str = "round_robin",
        fault_plan: Optional[FaultPlan] = None,
        recovery: bool = True,
        _graph_validated: bool = False,
    ) -> None:
        if fault_plan is not None and n_shards > 1:
            if fault_plan.unit_faults:
                raise SimulationError(
                    "unit faults are not supported on sharded runs: "
                    "unit indices refer to each shard's private pools"
                )
            if fault_plan.has_packet_faults and (
                fault_plan.derivation != "keyed" or not recovery
            ):
                raise SimulationError(
                    "packet faults on a sharded run need "
                    "derivation='keyed' and recovery=True so every "
                    "shard derives the same per-packet fates"
                )
        # the ready/enabling path consults ownership, so these must
        # exist before Machine.__init__ pre-scans the cells
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._owner = dict(owner)
        self._outbox: list[tuple[int, int, str, tuple]] = []
        super().__init__(
            graph,
            config=config,
            inputs=inputs,
            policy=policy,
            fault_plan=fault_plan,
            recovery=recovery,
            _graph_validated=_graph_validated,
        )
        if set(self._owner) != set(self.graph.cells):
            raise SimulationError(
                "shard owner map does not cover the graph; partition "
                "the FIFO-lowered graph (ShardedRunner does this)"
            )
        # only owned sinks/arrays are this shard's outputs
        for cid in [c for c in self.sink_values
                    if self._owner[c] != shard_index]:
            del self.sink_values[cid]
            del self.sink_times[cid]
        self.am_arrays = {
            cell.params["stream"]: []
            for cell in self.graph
            if cell.op is Op.AM_WRITE and self._owner[cell.cid] == shard_index
        }
        # Non-owned cells never execute here (the ownership gates below
        # divert their packets to the owning shard), so their per-cell
        # state stays pristine for the whole run.  Alias them all to a
        # single shared pristine record -- read-only consumers
        # (diagnosis, stats merges, snapshot sections) still see valid
        # zeros, but the process stops carrying ``n_shards`` full
        # replicas of the graph's mutable state.  That replica weight
        # is what made K in-process shards lose to K=1: every GC pass
        # and every worker finish pickle paid for all K copies.
        # ``_start`` writes initial-token bookkeeping through arc
        # endpoints regardless of ownership, so those keep private
        # records.
        if n_shards > 1:
            keep = set()
            for arc in self.graph.arcs.values():
                if arc.has_initial:
                    keep.add(arc.src)
                    keep.add(arc.dst)
            shared = _CellState()
            for cid in self.graph.cells:
                if self._owner[cid] != shard_index and cid not in keep:
                    self.cell_state[cid] = shared

    # ------------------------------------------------------------------
    # ownership gates
    # ------------------------------------------------------------------
    def _maybe_ready(self, cid: int) -> None:
        if self._owner[cid] != self.shard_index:
            return
        super()._maybe_ready(cid)

    def _pending_work(self) -> tuple[int, int]:
        missing = 0
        for cid, values in self.sink_values.items():
            limit = self.graph.cells[cid].params.get("limit")
            if limit is not None and len(values) < limit:
                missing += limit - len(values)
        undrained = 0
        for cell in self.graph:
            if (
                cell.op in (Op.SOURCE, Op.AM_READ)
                and self._owner[cell.cid] == self.shard_index
            ):
                seq = self._source_seq(cell)
                pos = self.cell_state[cell.cid].source_pos
                if pos < len(seq):
                    undrained += len(seq) - pos
        return missing, undrained

    # ------------------------------------------------------------------
    # packet routing: divert non-owned destinations to the outbox
    # ------------------------------------------------------------------
    def _emit(self, dst_shard: int, when: int, kind: str,
              args: tuple) -> None:
        self._outbox.append((dst_shard, when, kind, args))

    def _schedule_delivery(self, when: int, aids: tuple,
                           value: Any) -> None:
        local = tuple(
            a for a in aids
            if self._owner[self.graph.arcs[a].dst] == self.shard_index
        )
        if local:
            self._at(when, "deliver_results", (local, value))
        for a in aids:
            shard = self._owner[self.graph.arcs[a].dst]
            if shard != self.shard_index:
                self._emit(shard, when, "deliver_results", ((a,), value))

    def _send_reliable_copy(self, aid: int, seq: int, value: Any,
                            corrupted: bool, when: int) -> None:
        shard = self._owner[self.graph.arcs[aid].dst]
        if shard == self.shard_index:
            super()._send_reliable_copy(aid, seq, value, corrupted, when)
        else:
            self._emit(shard, when, "deliver_reliable",
                       (aid, seq, value, corrupted))

    def _send_ack_copy(self, aid: int, seq: int, when: int) -> None:
        shard = self._owner[self.graph.arcs[aid].src]
        if shard == self.shard_index:
            super()._send_ack_copy(aid, seq, when)
        else:
            self._emit(shard, when, "receive_ack", (aid, seq))

    def _send_plain_ack(self, arc, when: int) -> None:
        shard = self._owner[arc.src]
        if shard == self.shard_index:
            super()._send_plain_ack(arc, when)
        else:
            self._emit(shard, when, "deliver_ack", (arc.src,))

    # ------------------------------------------------------------------
    # windowed execution driven by the coordinator
    # ------------------------------------------------------------------
    def begin(self) -> tuple[Optional[int], int, Optional[int]]:
        """Start (idempotent) and report (next event time, live, EOT)."""
        if not self._started:
            self._start()
        return self.frontier()

    def frontier(self) -> tuple[Optional[int], int, Optional[int]]:
        nt = self._events[0][0] if self._events else None
        return nt, self._live_events, self.eot()

    def inject(self, messages: list[Message]) -> None:
        """Deliver routed cross-shard packets into the local heap."""
        for when, kind, args in messages:
            self._at(when, kind, args)

    # ------------------------------------------------------------------
    # adaptive-horizon support: earliest output time over the cut
    # ------------------------------------------------------------------
    def _distances(self) -> tuple[dict[int, int], dict[int, int]]:
        """(cell -> hops to nearest boundary cell, arc -> min endpoint
        distance).  Cells/arcs that cannot reach the cut are omitted."""
        if self._cut_dist is None:
            cell_dist = cut_distances(self.graph, self._owner)
            arc_dist: dict[int, int] = {}
            for aid, arc in self.graph.arcs.items():
                ds = cell_dist.get(arc.src)
                dd = cell_dist.get(arc.dst)
                if ds is None:
                    d = dd
                elif dd is None:
                    d = ds
                else:
                    d = min(ds, dd)
                if d is not None:
                    arc_dist[aid] = d
            self._cut_dist = (cell_dist, arc_dist)
        return self._cut_dist

    def _event_distance(
        self,
        kind: str,
        args: tuple,
        cell_dist: dict[int, int],
        arc_dist: dict[int, int],
    ) -> Optional[int]:
        """Minimum arc traversals before this event's influence can
        reach a boundary cell; None = it never can."""
        if kind in ("record_sink", "watchdog_tick", "checkpoint_tick"):
            return None         # pure bookkeeping, enables nothing
        if kind == "dispatch":
            queue = self._pe_queues[args[0]]
            best = None
            for cid in queue:
                d = cell_dist.get(cid)
                if d is not None and (best is None or d < best):
                    best = d
            return best
        if kind == "deliver_results":
            best = None
            for aid in args[0]:
                d = arc_dist.get(aid)
                if d is not None and (best is None or d < best):
                    best = d
            return best
        if kind in (
            "deliver_one_faulty", "transmit_result", "check_retransmit",
            "receive_ack", "deliver_reliable",
        ):
            return arc_dist.get(args[0])
        if kind == "deliver_ack":
            return cell_dist.get(args[0])
        return 0                # unknown kind: fail safe

    def eot(self) -> Optional[int]:
        """Earliest cycle at which any pending event here could cause
        a packet to *arrive* on another shard, or None (it cannot).

        For an event at time ``t`` whose influence is ``d`` arc hops
        from the cut, the quantity ``t + d`` never decreases along a
        causal chain (each hop costs >= 1 cycle and closes at most one
        hop), and an emission from a boundary cell at ``t'`` is
        stamped ``>= t' + L``; hence the bound ``t + d + L``.  Events
        added *during* a window are enabled by an existing event and
        inherit its bound, so scanning the heap at the barrier is
        sufficient.
        """
        if not self._events:
            return None
        cell_dist, arc_dist = self._distances()
        if not cell_dist:
            return None         # no cut reachable from this shard
        lookahead = max(1, self.config.rn_delay)
        best: Optional[int] = None
        for entry in self._events:
            t = entry[0]
            if best is not None and t + lookahead >= best:
                continue
            d = self._event_distance(
                entry[2], entry[3], cell_dist, arc_dist
            )
            if d is None:
                continue
            bound = t + d + lookahead
            if best is None or bound < best:
                best = bound
        return best

    def run_window(
        self, horizon: int, max_cycles: int
    ) -> tuple[
        list[tuple[int, int, str, tuple]], Optional[int], int,
        Optional[int],
    ]:
        """Execute every event with ``time <= horizon``; return the
        outbox of cross-shard messages plus the new frontier."""
        handlers = self._linked.handlers
        while True:     # unconditional back-edge, as in Machine._loop
            if not self._events or self._events[0][0] > horizon:
                break
            entry = heapq.heappop(self._events)
            time, _seq, kind, args, aux = entry
            if time > max_cycles and not aux:
                heapq.heappush(self._events, entry)
                raise SimulationTimeout(
                    f"shard {self.shard_index} exceeded {max_cycles} "
                    f"cycles (still making progress: livelock or "
                    f"genuinely long run)",
                    cycles=time,
                    stats=self.stats(),
                    sink_progress=self._sink_progress(),
                )
            if kind not in ("watchdog_tick", "checkpoint_tick"):
                self._live_events -= 1
            self.now = time
            if not aux:
                self._finish = time
            handlers[kind](self, *args)
        outbox, self._outbox = self._outbox, []
        nt, live, eot = self.frontier()
        return outbox, nt, live, eot


# ----------------------------------------------------------------------
# the shard command executor
# ----------------------------------------------------------------------
def _maybe_crash(crash_at: Optional[int], horizon: int) -> None:
    if crash_at is not None and horizon >= crash_at:
        os._exit(EXIT_SHARD_CRASH)  # simulated SIGKILL: no cleanup at all


def _load_shard_machine(path: str) -> ShardMachine:
    """Reload one shard from its coordinated-set member file, with the
    channel state (the in-flight cut messages) re-injected."""
    from ..checkpoint.snapshot import load_machine

    machine, extra = load_machine(
        path, expected_cls=ShardMachine, with_extra=True
    )
    extra = extra or {}
    machine.inject([tuple(m) for m in extra.get("channel_state", ())])
    return machine


def _write_shard_snapshot(
    machine: ShardMachine, path: str, cycle: int, messages: list[Message],
    kind: str = "full",
) -> int:
    """Chandy-Lamport shard capture: machine state *plus* the channel
    state (the messages crossing the cut), recorded **before** the
    messages are injected.  Returns the file size.

    ``kind`` is the coordinator's chain decision: ``"full"`` (classic,
    delta mode off), ``"base"`` or ``"delta"``.  Each worker chains
    against its *own* previous member file, so every shard file of a
    delta set is independently chain-verifiable on load.
    """
    from ..checkpoint.snapshot import save_snapshot, write_chain_snapshot

    extra = {
        "shard": machine.shard_index,
        "shards": machine.n_shards,
        "barrier_cycle": cycle,
        "channel_state": [list(m) for m in messages],
    }
    if kind == "full":
        save_snapshot(machine, path, reason="coordinated", extra=extra)
    else:
        write_chain_snapshot(
            machine, path, reason="coordinated", kind=kind, extra=extra
        )
    return os.path.getsize(path)


def _rebuild_error(name: str, message: str, cycle: int) -> ReproError:
    if name == "SimulationTimeout":
        return SimulationTimeout(message, cycles=cycle)
    if name == "DeadlockError":
        return DeadlockError(message, step=cycle)
    return SimulationError(message)


def _graph_key(graph: DataflowGraph) -> str:
    """Warm-pool key: content digest of the lowered graph.  Taken
    afresh by every run and never memoised on the object: a graph
    edited in place (a source's values, a constant, an initial token)
    must miss the workers that still hold what it used to be."""
    return hashlib.sha256(
        pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


class _LocalShard:
    """One shard's command executor.

    In a worker process it is the request handler
    :func:`repro.workers.serve_requests` runs (see :meth:`__call__`).
    In process it is the transport itself: same commands, no OS
    processes -- used for K=1, for tests that sweep many
    configurations quickly, and as the reference the worker processes
    must agree with.  Either way a reply is ``("ok", value)``.
    """

    def __init__(self, shard: int, machine: ShardMachine,
                 crash_at: Optional[int]) -> None:
        self.shard = shard
        self.machine = machine
        self.crash_at = crash_at
        self._reply: Any = None

    def __call__(self, cmd: tuple) -> tuple:
        """Worker-process entry: errors travel back as plain data
        (name, message, cycle) and are rebuilt by the coordinator."""
        try:
            return ("ok", self._execute(cmd))
        except ReproError as exc:
            cycle = getattr(exc, "cycle", self.machine.now)
            return ("error", type(exc).__name__, str(exc), cycle)

    def _execute(self, cmd: tuple) -> Any:
        op = cmd[0]
        machine = self.machine
        if op == "start":
            return machine.begin()
        if op == "window":
            _, horizon, max_cycles, messages, fault = cmd
            _maybe_crash(self.crash_at, horizon)
            apply_fault(fault)
            machine.inject(messages)
            return machine.run_window(horizon, max_cycles)
        if op == "snapshot":
            # a kill/hang fault here dies *before* the file lands: the
            # set stays uncommitted and recovery must fall back to the
            # previous complete set
            _, path, cycle, messages, fault, kind = cmd
            apply_fault(fault)
            size = _write_shard_snapshot(machine, path, cycle, messages, kind)
            machine.inject(messages)
            return size
        if op == "load":
            # warm rollback: survivors reload their shard of a
            # coordinated set in place, keeping the process
            self.machine = _load_shard_machine(cmd[1])
            return self.machine.shard_index
        if op == "rebuild":
            # pool reclamation: reconstruct a pristine machine for a
            # new run over the retained (content-equal) graph;
            # deterministic __init__ makes it bit-identical to a
            # freshly forked copy (validated before the fork)
            spec = dict(cmd[1])
            self.crash_at = spec.pop("crash_at", None)
            wid = spec.pop("workload_id", None)
            self.machine = ShardMachine(
                machine.graph, _graph_validated=True, **spec
            )
            self.machine.workload_id = wid
            return self.machine.shard_index
        if op == "finish":
            # ship only the mutable state (the parent already holds
            # the static graph/config/inputs); the process stays
            # alive and may be pooled for reuse
            static = type(machine)._SNAP_STATIC_ATTRS
            return {
                k: v for k, v in machine.__dict__.items() if k not in static
            }
        raise SimulationError(f"unknown worker op {op!r}")

    def post(self, cmd: tuple) -> None:
        if cmd[0] in ("window", "snapshot") and cmd[4] is not None:
            # the runner routes shard faults only to worker processes;
            # a kill/hang here would take the coordinator down with it
            raise SimulationError(     # pragma: no cover - coordinator bug
                "shard fault directive sent to an in-process shard"
            )
        if cmd[0] == "finish":
            self._reply = ("ok", self.machine)
        else:
            self._reply = ("ok", self._execute(cmd))

    def wait(self, deadline: float) -> tuple:
        return self._reply

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------
class ShardedRunner:
    """Drive K shard machines in conservative lockstep to completion."""

    def __init__(
        self,
        graph: DataflowGraph,
        inputs: Optional[dict[str, list[Any]]] = None,
        *,
        config: Optional[MachineConfig] = None,
        policy: str = "round_robin",
        fault_plan: Optional[FaultPlan] = None,
        recovery: bool = True,
        checkpoint: Optional[CheckpointConfig] = None,
        partition: Optional[Partition] = None,
        workload_id: Optional[str] = None,
        shard_config: Union[None, ShardConfig, dict, str] = None,
    ) -> None:
        sc = ShardConfig.coerce(shard_config) or ShardConfig()
        shards = sc.shards
        config = config or MachineConfig()
        if graph.cells_by_op(Op.FIFO):
            # shards replicate the graph, so lower *once* here to keep
            # cell/arc ids identical everywhere
            graph = lower_fifos(graph)
        # a prebuilt Partition (tests inject one) beats the scheme name
        part = (
            partition if partition is not None
            else partition_graph(graph, shards, sc.partition)
        )
        # each shard runs headless: the coordinator owns global
        # progress (a per-shard watchdog would mistake "waiting for a
        # cross-shard token" for a stall)
        shard_cfg = replace(config, watchdog=False)
        validate(graph)         # once, for all K machines over it
        with _gc_paused():
            machines = [
                ShardMachine(
                    graph,
                    shard_index=k,
                    n_shards=shards,
                    owner=part.owner,
                    config=shard_cfg,
                    inputs=inputs,
                    policy=policy,
                    fault_plan=fault_plan,
                    recovery=recovery,
                    _graph_validated=True,
                )
                for k in range(shards)
            ]
        for m in machines:
            m.workload_id = workload_id
        ckpt = next_ckpt = None
        if checkpoint is not None:
            from ..checkpoint.coordinator import (
                CoordinatedCheckpointManager,
            )

            ckpt = CoordinatedCheckpointManager(checkpoint, shards)
            next_ckpt = checkpoint.interval or None
        self._setup(sc, machines, part, policy, ckpt, next_ckpt)

    def _setup(
        self,
        sc: ShardConfig,
        machines: list[ShardMachine],
        partition: Partition,
        policy: str,
        ckpt,
        next_ckpt: Optional[int],
    ) -> None:
        """Everything :meth:`__init__` and :meth:`resume` share once
        the shard machines exist: the runner's fields, the window rule
        and the healing policy."""
        config = machines[0].config
        self.machines = machines
        self.partition = partition
        self.shards = len(machines)
        self.workload_id = machines[0].workload_id
        self._lookahead = max(1, config.rn_delay)
        self._processes = (
            self.shards > 1 if sc.processes is None else sc.processes
        )
        self._policy = policy
        # Coarse windows schedule a shard's local events for cycle T
        # before cycle-T cut packets are injected at the next barrier,
        # reordering equal-cycle heap insertions.  That is invisible
        # when resources never serialize within a cycle, but with
        # issue intervals it shifts modeled times; such configs run
        # the fixed ``L = max(1, rn_delay)`` cadence to stay
        # bit-identical.
        self._fixed_cadence = not self._order_free(config)
        self.worker_spawns = 0
        self.worker_reuses = 0
        #: lockstep windows driven so far (adaptive horizons shrink it)
        self.windows_run = 0
        self._ckpt = ckpt
        self._next_ckpt = next_ckpt
        self.worker_pids: list[Optional[int]] = []
        #: per shard, the barrier cycle of the last window/snapshot
        #: command its current endpoint was sent (failure context)
        self._last_cycle: list[int] = []
        self._finished = False
        self._init_heal(sc.recovery, machines[0].fault_plan)

    @staticmethod
    def _order_free(config: MachineConfig) -> bool:
        """Whether equal-cycle event order can never affect modeled
        times.  PEs, FUs/AMs and the routing network each serialize
        same-cycle work through a ``next_free`` cursor when their
        issue interval / bandwidth knob is non-zero; with all three at
        zero (the ``unit_time`` model) heap insertion order for
        equal-cycle events is timing-irrelevant and coarse windows are
        exact."""
        return not (
            config.pe_issue_interval
            or config.fu_issue_interval
            or config.rn_bandwidth
        )

    def _init_heal(self, heal: Optional[RecoveryPolicy],
                   fault_plan: Optional[FaultPlan]) -> None:
        """Resolve the self-healing policy and arm the chaos faults.

        ``ShardConfig.recovery`` decides: with no policy, or one whose
        ``enabled`` is None, healing is on whenever the run has both
        real worker processes (something to respawn) and coordinated
        checkpoints (something to roll back to); ``enabled=True`` /
        ``False`` force it.  Healing without checkpoints is legal when
        forced -- recovery then restarts every shard from the initial
        machines, which the fork-based workers leave unmutated in this
        process.
        """
        heal = heal or RecoveryPolicy()
        enabled = heal.enabled
        if enabled is None:
            enabled = self._processes and self._ckpt is not None
        if not enabled:
            heal = None
        if heal is not None and not self._processes:
            raise SimulationError(
                "self-healing needs real worker processes "
                "(processes=True): an in-process shard cannot be "
                "respawned"
            )
        self._heal: Optional[RecoveryPolicy] = heal
        self._heal_rng = random.Random(heal.seed if heal else 0)
        self._recovery: Optional[RecoveryStats] = None
        #: per-shard respawn count (the restart budget's ledger)
        self._restarts: dict[int, int] = {}
        #: failures per resume point since the last committed set
        self._strikes: dict[int, int] = {}
        #: set cycles barred by two-strike step-back (in-memory only:
        #: replay legitimately re-commits these cycles, so an on-disk
        #: quarantine would poison its own recovery)
        self._barred: set[int] = set()
        #: shards folded into the coordinator after budget exhaustion
        self._degraded: set[int] = set()
        self._barrier = 0
        self._start_cycle = max((m.now for m in self.machines), default=0)
        faults = tuple(
            getattr(fault_plan, "shard_faults", ()) or ()
        ) if fault_plan is not None else ()
        for f in faults:
            if f.shard >= self.shards:
                raise SimulationError(
                    f"shard fault targets shard {f.shard} but the run "
                    f"has only {self.shards} shards"
                )
        if faults and not self._processes:
            raise SimulationError(
                "shard-level faults (kill/hang/slow) need real worker "
                "processes (processes=True); in-process shards share "
                "the coordinator's fate"
            )
        #: unfired chaos faults per shard, soonest first; firing is
        #: one-shot so post-rollback replay converges
        self._shard_faults: dict[int, list] = {}
        for f in sorted(faults, key=lambda f: (f.cycle, f.shard)):
            # on a resumed runner (start cycle > 0), faults at or
            # before the resume point already fired in the run that
            # wrote the snapshot
            if self._start_cycle == 0 or f.cycle > self._start_cycle:
                self._shard_faults.setdefault(f.shard, []).append(f)

    def _take_fault(self, shard: int, cycle: int) -> Optional[dict]:
        """Pop the due chaos directive for ``shard``, if any (see
        :func:`repro.workers.apply_fault`)."""
        queue = self._shard_faults.get(shard)
        if not queue or cycle < queue[0].cycle or shard in self._degraded:
            return None
        fault = queue.pop(0)
        return {"kind": fault.kind, "delay": fault.delay}

    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        directory,
        *,
        shard_config: Union[None, ShardConfig, dict, str] = None,
    ) -> "ShardedRunner":
        """Load the newest *complete* coordinated snapshot set and
        return a runner ready to continue bit-identically."""
        from pathlib import Path

        from ..checkpoint.coordinator import (
            CoordinatedCheckpointManager,
            latest_coordinated,
            read_shard_manifest,
        )

        directory = Path(directory)
        manifest = read_shard_manifest(directory)
        entry = latest_coordinated(directory)
        if entry is None:
            raise SnapshotError(
                f"no complete coordinated snapshot set in {directory}"
            )
        machines = [
            _load_shard_machine(str(directory / fname))
            for fname in entry["files"]
        ]
        ckpt = CoordinatedCheckpointManager.attach(directory)
        interval = ckpt.config.interval
        self = cls.__new__(cls)
        self._setup(
            # whatever count the config names, the snapshot set fixes K
            ShardConfig.coerce(shard_config) or ShardConfig(),
            machines,
            Partition(
                k=len(machines),
                scheme=str(manifest.get("partition_scheme", "resumed")),
                owner=dict(machines[0]._owner),
                cut_arcs=(),
            ),
            "round_robin",
            ckpt,
            entry["cycle"] + interval if interval else None,
        )
        return self

    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: int = 50_000_000,
        crash_at: Optional[int] = None,
        crash_shard: int = 0,
    ) -> MachineStats:
        """Run the sharded simulation to quiescence.

        ``crash_at`` hard-kills shard ``crash_shard``'s worker
        (``os._exit(137)``) at the first barrier whose horizon reaches
        that cycle -- the sharded analogue of :meth:`Machine.run`'s
        SIGKILL stand-in.  With the in-process transport the whole
        process dies, exactly like the single-machine flag.  Because
        ``crash_at`` exists to *demonstrate* a crash escaping the run,
        it disables self-healing for this invocation; chaos faults in
        the plan (``ShardFault``) are the healed path.
        """
        if self._finished:
            raise SimulationError("this runner has already completed")
        heal = self._heal if crash_at is None else None
        if heal is not None and self._recovery is None:
            self._recovery = RecoveryStats()
        if self._ckpt is not None:
            self._ckpt.on_start(self)
        eps = self._spawn(crash_at, crash_shard)
        clean = False
        try:
            while True:
                try:
                    self._drive(eps, max_cycles, crash_at)
                    self.machines = [
                        self._finish_one(k, ep)
                        for k, ep in enumerate(eps)
                    ]
                    clean = True
                    break
                except ShardCrashError as exc:
                    if heal is None:
                        raise
                    eps = self._recover(eps, exc, heal)
        finally:
            # clean workers park in the warm pool, the rest are closed
            for ep in eps:
                if clean and isinstance(ep, Worker):
                    park(ep)
                else:
                    ep.close()
        self._finished = True
        self._check_complete()
        if self._ckpt is not None:
            self._ckpt.on_complete(self)
        return self.stats()

    def _spawn(self, crash_at: Optional[int], crash_shard: int):
        self.worker_pids = [None] * self.shards
        self._last_cycle = [-1] * self.shards
        # only pristine pre-run machines are rebuild-equivalent; a
        # resumed/restored machine carries run state the rebuild op
        # cannot reproduce, so it always gets a fork-fresh copy
        pool_key = None
        if self._processes and not self.machines[0]._started:
            pool_key = _graph_key(self.machines[0].graph)
        return [
            self._spawn_one(
                k, m, crash_at if k == crash_shard else None, pool_key
            )
            for k, m in enumerate(self.machines)
        ]

    def _spawn_one(self, shard: int, machine: ShardMachine,
                   crash_at: Optional[int] = None,
                   pool_key: Optional[str] = None):
        if not self._processes or shard in self._degraded:
            if machine is self.machines[shard] and self._degraded:
                # a degraded shard runs in-process and would mutate
                # the pristine restart copy; work on a clone instead
                machine = pickle.loads(pickle.dumps(machine))
            self.worker_pids[shard] = None
            return _LocalShard(shard, machine, crash_at)
        self._last_cycle[shard] = -1
        worker = unpark(pool_key) if pool_key is not None else None
        if worker is not None:
            # reclaim a parked warm worker: rebuild its machine for
            # this run instead of paying fork + import again
            worker.post(("rebuild",
                         self._rebuild_spec(shard, machine, crash_at)))
            try:
                self._reply(shard, worker)
            except ShardCrashError:
                # it died between the liveness check and the rebuild
                worker.close()
            else:
                self.worker_reuses += 1
                self.worker_pids[shard] = worker.pid
                return worker
        worker = Worker.fork(_LocalShard(shard, machine, crash_at),
                             name=f"repro-shard-{shard}", key=pool_key)
        self.worker_spawns += 1
        self.worker_pids[shard] = worker.pid
        return worker

    def _reply(self, shard: int, ep) -> Any:
        """Shard ``shard``'s reply to its last command -- the one
        place a worker failure becomes a typed shard error."""
        policy = self._heal
        try:
            reply = ep.wait(policy.deadline if policy else _DEFAULT_DEADLINE)
        except WorkerFailure as failure:
            cycle = self._last_cycle[shard]
            error = ShardHangError if failure.kind == "hang" else ShardCrashError
            raise error(
                f"shard {shard} worker {failure.detail} near cycle {cycle}",
                shard=shard, exitcode=failure.exitcode, cycle=cycle,
            ) from None
        if reply[0] == "error":
            raise _rebuild_error(*reply[1:])
        return reply[1]

    def _rebuild_spec(self, shard: int, machine: ShardMachine,
                      crash_at: Optional[int]) -> dict:
        """Constructor args a pooled worker needs to rebuild this
        shard's pristine machine from its retained graph."""
        return {
            "shard_index": shard,
            "n_shards": self.shards,
            "owner": machine._owner,
            "config": machine.config,
            "inputs": machine.inputs,
            "policy": self._policy,
            "fault_plan": machine.fault_plan,
            "recovery": machine.recovery,
            "workload_id": machine.workload_id,
            "crash_at": crash_at,
        }

    def _drive(self, eps, max_cycles: int,
               crash_at: Optional[int] = None) -> None:
        for ep in eps:
            ep.post(("start",))
        frontier = [self._reply(k, ep) for k, ep in enumerate(eps)]
        #: in-flight packets: (when, src shard, emission index, dst,
        #: kind, args) -- sorted injection keeps the run deterministic
        pending: list[tuple[int, int, int, int, str, tuple]] = []
        while True:
            times = [nt for nt, _live, _eot in frontier if nt is not None]
            times.extend(m[0] for m in pending)
            if not times:
                return          # global quiescence
            t_min = min(times)
            self._barrier = t_min
            # a packet injected this window lands at a boundary cell
            # (distance 0), so nothing it causes can cross the cut
            # before its arrival + L -- computed *before* the snapshot
            # block because the stale shard EOTs don't cover it
            msg_bound = min((m[0] for m in pending), default=None)
            if msg_bound is not None:
                msg_bound += self._lookahead
            by_dst: dict[int, list[Message]] = {}
            for when, _src, _idx, dst, kind, args in sorted(pending):
                by_dst.setdefault(dst, []).append((when, kind, args))
            pending = []
            if self._next_ckpt is not None and t_min >= self._next_ckpt:
                self._coordinated_snapshot(eps, t_min, by_dst)
                interval = self._ckpt.config.interval
                while self._next_ckpt <= t_min:
                    self._next_ckpt += interval
                by_dst = {}     # the snapshot op already injected them
            horizon = self._horizon(
                t_min, frontier, msg_bound, crash_at
            )
            self.windows_run += 1
            for k, ep in enumerate(eps):
                self._last_cycle[k] = horizon
                ep.post(("window", horizon, max_cycles,
                         by_dst.get(k, []), self._take_fault(k, horizon)))
            frontier = []
            for k, ep in enumerate(eps):
                outbox, nt, live, eot = self._reply(k, ep)
                for idx, (dst, when, kind, args) in enumerate(outbox):
                    pending.append((when, k, idx, dst, kind, args))
                frontier.append((nt, live, eot))

    def _horizon(self, t_min: int, frontier, msg_bound: Optional[int],
                 crash_at: Optional[int]) -> int:
        """Safe lockstep horizon for the window starting at ``t_min``.

        The fixed cadence is the classic ``t_min + L - 1``.  The
        adaptive rule runs to just below the earliest cycle any shard
        could hear from another (shard EOTs and pending-message
        bounds), additionally capped so checkpoint cadence, crash
        demonstrations and chaos-fault firing keep their fixed-cadence
        barrier alignment.  Every cap is ``>= t_min`` (the bounds are
        ``>= t_min + L``), so the floor only guards degenerate cases.
        """
        if self._fixed_cadence:
            return t_min + self._lookahead - 1
        h = t_min + _MAX_WINDOW - 1
        for _nt, _live, eot in frontier:
            if eot is not None:
                h = min(h, eot - 1)
        if msg_bound is not None:
            h = min(h, msg_bound - 1)
        if self._next_ckpt is not None:
            h = min(h, self._next_ckpt - 1)
        if crash_at is not None and t_min < crash_at:
            h = min(h, crash_at - 1)
        for queue in self._shard_faults.values():
            if queue and t_min < queue[0].cycle:
                h = min(h, queue[0].cycle - 1)
        return max(t_min, h)

    def _coordinated_snapshot(
        self, eps, cycle: int, by_dst: dict[int, list[Message]]
    ) -> None:
        """One Chandy-Lamport barrier: every worker records its state
        plus its incoming channel messages, then the set is committed
        atomically (all K files or nothing)."""
        # delta policy is the coordinator's call (workers self-chain
        # from their own previous member file): a delta set is only
        # requested while the previous set was written by these same
        # live workers -- any rollback, resume or respawn resets the
        # chain, so the next set is a full base
        kind = self._ckpt.next_kind()
        names = [self._ckpt.shard_name(cycle, k) for k in range(len(eps))]
        for k, ep in enumerate(eps):
            path = str(self._ckpt.directory / names[k])
            self._last_cycle[k] = cycle
            ep.post(("snapshot", path, cycle, by_dst.get(k, []),
                     self._take_fault(k, cycle), kind))
        sizes = [self._reply(k, ep) for k, ep in enumerate(eps)]
        self._ckpt.commit(cycle, names, sizes, kind=kind)
        # a committed set is forward progress: clear strike counting,
        # mirroring the supervisor's progressed-past-resume-point rule
        self._strikes.clear()

    def _finish_one(self, k: int, ep) -> ShardMachine:
        """Collect shard ``k``'s final state.  An in-process shard
        hands back its machine object; a worker ships only the mutable
        state, which overlays the coordinator's own (static-equal)
        machine -- the worker keeps its copy and stays eligible for
        the warm pool."""
        ep.post(("finish",))
        state = self._reply(k, ep)
        if isinstance(state, ShardMachine):
            return state
        machine = self.machines[k]
        machine.__dict__.update(state)
        return machine

    # ------------------------------------------------------------------
    # in-process self-healing
    # ------------------------------------------------------------------
    def _recover(self, eps, exc: ShardCrashError,
                 policy: RecoveryPolicy):
        """Roll every shard back to the latest usable coordinated set,
        respawn the failed worker, and hand fresh endpoints back to
        :meth:`run` for replay.

        The rollback restores each shard's machine *and* the channel
        state of the cut, so the replayed lockstep windows re-derive
        exactly the packets of a clean run -- outputs and modeled sink
        times stay bit-identical.  Policy mirrors the supervisor one
        level down: per-shard restart budgets with exponential seeded
        backoff, and on two strikes inside the same replay window the
        resume set is barred and recovery steps back one set.
        """
        started = time.perf_counter()
        rec = self._recovery
        rec.detections += 1
        if isinstance(exc, ShardHangError):
            rec.hangs += 1
        else:
            rec.crashes += 1
        detect_cycle = exc.cycle if exc.cycle >= 0 else self._barrier
        failed = exc.shard
        self._charge_restart(failed, detect_cycle, policy, exc)
        if failed not in self._degraded:
            delay = BackoffPolicy(
                base=policy.backoff_base,
                factor=policy.backoff_factor,
                max_delay=policy.backoff_max,
                jitter=policy.jitter,
            ).delay(self._restarts.get(failed, 1), self._heal_rng)
            if delay:
                policy.sleep(delay)
        entry = self._resume_point()
        key = entry["cycle"] if entry is not None else -1
        strikes = self._strikes.get(key, 0) + 1
        if strikes >= policy.strikes and entry is not None:
            # second failure replaying the same window: bar the set
            # (in memory -- replay will re-commit this cycle) and step
            # back one, like the supervisor's two-strike quarantine
            self._barred.add(key)
            self._strikes.pop(key, None)
            rec.step_backs += 1
            entry = self._resume_point()
            key = entry["cycle"] if entry is not None else -1
            self._strikes[key] = 1
        else:
            self._strikes[key] = strikes
        rec.rollbacks += 1
        rec.rollback_cycles.append(key)
        new_eps = self._restore(eps, entry, {failed})
        base = entry["cycle"] if entry is not None else self._start_cycle
        rec.cycles_replayed += max(0, detect_cycle - base)
        if self._ckpt is not None:
            interval = self._ckpt.config.interval
            self._next_ckpt = base + interval if interval else None
            # rolled-back workers reloaded (or restarted) their state, so
            # their in-memory chain tips are gone -- force the next set
            # to be a full base
            self._ckpt.reset_chain()
        rec.latencies.append(time.perf_counter() - started)
        if len(rec.latencies) > 8192:
            del rec.latencies[:4096]
        return new_eps

    def _charge_restart(self, shard: int, cycle: int,
                        policy: RecoveryPolicy,
                        exc: ShardCrashError) -> None:
        self._restarts[shard] = self._restarts.get(shard, 0) + 1
        if self._restarts[shard] <= policy.max_restarts:
            return
        if policy.degrade and shard not in self._degraded:
            # fold the incurable shard into the coordinator process:
            # K-1 worker processes continue, bit-identically
            self._degraded.add(shard)
            self._recovery.degraded_shards = len(self._degraded)
            return
        raise ShardRecoveryExhausted(
            f"shard {shard} worker failed {self._restarts[shard]} "
            f"times (budget {policy.max_restarts}) near cycle "
            f"{cycle}; escalating to the supervisor",
            shard=shard,
            exitcode=exc.exitcode,
            cycle=cycle,
        ) from exc

    def _resume_point(self) -> Optional[dict[str, Any]]:
        """Latest complete coordinated set not barred by step-back, or
        None (= roll back to the run's initial machines)."""
        if self._ckpt is None:
            return None
        from ..checkpoint.coordinator import latest_coordinated
        from ..errors import ManifestError

        try:
            return latest_coordinated(
                self._ckpt.directory, exclude=self._barred
            )
        except ManifestError:
            return None

    def _restore(self, eps, entry: Optional[dict[str, Any]],
                 failed: set) -> list:
        """Build the post-rollback endpoint list: survivors reload
        their shard file in place (warm), failed/degraded workers are
        replaced.  With no committed set, every shard restarts from
        the initial machines (fork leaves the parent's copies
        unmutated; on a resumed runner they hold the loaded set)."""
        rec = self._recovery
        if entry is None:
            for ep in eps:
                ep.close()
            fresh = self._spawn(None, 0)
            rec.respawns += sum(
                1 for k in range(self.shards)
                if k in failed and k not in self._degraded
            )
            return fresh
        paths = [
            str(self._ckpt.directory / name) for name in entry["files"]
        ]
        respawn = set(failed)
        for k, ep in enumerate(eps):
            if k in respawn or k in self._degraded:
                respawn.add(k)
                continue
            ep.post(("load", paths[k]))
            try:
                self._reply(k, ep)
            except ShardCrashError:
                # a survivor died too (e.g. several chaos faults in
                # one window); replace it as well
                respawn.add(k)
        new_eps = list(eps)
        for k in sorted(respawn):
            eps[k].close()
            machine = _load_shard_machine(paths[k])
            new_eps[k] = self._spawn_one(k, machine)
            if k not in self._degraded:
                rec.respawns += 1
        return new_eps

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _check_complete(self) -> None:
        missing = undrained = 0
        for m in self.machines:
            mm, uu = m._pending_work()
            missing += mm
            undrained += uu
        if missing or undrained:
            finish = self.finish_cycle
            parts = [
                f"sharded machine quiescent at cycle {finish} with "
                f"{missing} expected outputs missing"
            ]
            if undrained:
                parts.append(f"{undrained} input tokens never consumed")
            raise DeadlockError(
                "; ".join(parts),
                step=finish,
                pending=missing + undrained,
            )

    @property
    def finish_cycle(self) -> int:
        return max((m._finish for m in self.machines), default=0)

    def outputs(self) -> dict[str, list[Any]]:
        out: dict[str, list[Any]] = {}
        for m in self.machines:
            out.update(m.outputs())
        return out

    def sink_arrival_times(self, stream: str) -> list[int]:
        for m in self.machines:
            for cid in m.sink_values:
                if m.graph.cells[cid].params["stream"] == stream:
                    return m.sink_times[cid]
        raise SimulationError(f"no sink for stream {stream!r}")

    def am_arrays(self) -> dict[str, list[Any]]:
        out: dict[str, list[Any]] = {}
        for m in self.machines:
            out.update(m.am_arrays)
        return out

    def stats(self) -> MachineStats:
        return merge_shard_stats(
            self.machines,
            checkpoints=self._ckpt.stats if self._ckpt is not None else None,
            recovery=self._recovery,
        )


def _sum_dataclass(cls, items):
    """Field-wise sum of int-counter dataclass instances."""
    import dataclasses

    out = cls()
    for item in items:
        if item is None:
            continue
        for f in dataclasses.fields(cls):
            cur = getattr(out, f.name)
            if isinstance(cur, int):
                setattr(out, f.name, cur + getattr(item, f.name))
    return out


def merge_shard_stats(
    machines: list[ShardMachine], checkpoints=None, recovery=None
) -> MachineStats:
    """Merge per-shard statistics into one run-level view.  Counters
    add; unit lists concatenate (shard k's PEs come before shard
    k+1's); a cell's fire count is taken from its owning shard."""
    from ..faults.injector import FaultStats

    fire_counts: dict[int, int] = {}
    for m in machines:
        for cid, st in m.cell_state.items():
            if m._owner[cid] == m.shard_index:
                fire_counts[cid] = st.fire_count
    any_rel = any(
        m._reliable or m.injector is not None for m in machines
    )
    any_inj = any(m.injector is not None for m in machines)
    return MachineStats(
        cycles=max((m._finish for m in machines), default=0),
        packets=_sum_dataclass(
            PacketCounters, [m.packets for m in machines]
        ),
        pe_ops=[u.ops for m in machines for u in m.pes],
        fu_ops=[u.ops for m in machines for u in m.fus],
        am_ops=[u.ops for m in machines for u in m.ams],
        pe_busy=[u.busy_cycles for m in machines for u in m.pes],
        fu_busy=[u.busy_cycles for m in machines for u in m.fus],
        am_busy=[u.busy_cycles for m in machines for u in m.ams],
        fire_counts=fire_counts,
        reliability=(
            _sum_dataclass(
                ReliabilityStats, [m.rel for m in machines]
            )
            if any_rel
            else None
        ),
        faults=(
            _sum_dataclass(
                FaultStats,
                [m.injector.stats for m in machines
                 if m.injector is not None],
            )
            if any_inj
            else None
        ),
        checkpoints=checkpoints,
        recovery=recovery,
    )

"""The shard side of multi-process sharded execution.

The graph is split into K shards by
:func:`repro.analysis.partition.partition_graph`; each shard is the
one event-driven :class:`~repro.machine.machine.Machine` plus an
ownership map (only owned cells fire, and only they count in
:meth:`~repro.machine.stats.MachineStats.of` and ``_pending_work``)
and packet routing: every cross-shard arc becomes a *routed* arc, and
the packets that would have been heap events on a single machine
(``deliver_results`` / ``deliver_reliable`` / ``receive_ack`` /
``deliver_ack``) travel between workers as plain-data messages.  The
per-arc sequence/ack/retransmission reliability layer is unchanged --
a dropped or corrupted cross-shard packet is retransmitted exactly
like a local one, because the shard machines run the same handlers on
the same per-arc state, merely split producer-side/consumer-side.

This module is the shard side: :class:`ShardMachine` and the reader
and writer of one shard's member file of a coordinated snapshot set
(every shard snapshot pickles the class by this module path).  The
commands a shard answers are :mod:`repro.machine.shard_worker`; the
coordinator is :mod:`repro.machine.shard_runner`.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from ..analysis.partition import cut_distances
from ..errors import SimulationError
from ..faults import FaultPlan
from ..graph.graph import DataflowGraph
from ..graph.lower import lower_fifos
from ..graph.opcodes import Op
from .config import MachineConfig
from .machine import _TICKERS, Machine, _CellState

__all__ = [
    "Message",
    "ShardMachine",
    "load_shard_machine",
    "write_shard_snapshot",
]

#: a routed cross-shard message: (arrival cycle, event kind, args)
Message = tuple[int, str, tuple]


class ShardMachine(Machine):
    """One shard's machine: the full graph, but only *owned* cells run.

    Every shard holds a replica of the whole (already FIFO-lowered)
    graph and of the input streams, so cell ids, arc ids and initial
    tokens line up exactly with the single-process machine; ownership
    only gates which cells may become ready here.  The firing plans
    link the routing: packets for cells another shard owns go to
    ``_outbox``, not the local heap, and the coordinator routes them.
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
        fault_plan: Optional[FaultPlan] = None,
        recovery: bool = True,
        _graph_validated: bool = False,
    ) -> None:
        # the ready scan and the plans read ownership, so the map is
        # checked, over the graph the machine runs, before either
        if graph.cells_by_op(Op.FIFO):
            graph = lower_fifos(graph)
        self.check_spec(graph, n_shards, owner, fault_plan, recovery)
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._owner = dict(owner)
        self._outbox: list[tuple[int, int, str, tuple]] = []
        super().__init__(graph, config=config, inputs=inputs,
                         fault_plan=fault_plan, recovery=recovery,
                         _graph_validated=_graph_validated)
        # only owned sinks/arrays are this shard's outputs
        for cid in [c for c in self.sink_values if not self._owns(c)]:
            del self.sink_values[cid]
            del self.sink_times[cid]
        self.am_arrays = {
            cell.params["stream"]: []
            for cell in self.graph
            if cell.op is Op.AM_WRITE and self._owns(cell.cid)
        }
        # Non-owned cells never execute here (their packets are routed
        # to the owning shard), so their state stays pristine: alias it
        # to one shared record, which read-only consumers (diagnosis,
        # stats merges, snapshot sections) still read as zeros, instead
        # of carrying ``n_shards`` replicas that every GC pass and
        # worker finish pickle paid for.  ``_start`` writes initial
        # tokens through arc endpoints, so those keep private records.
        if n_shards > 1:
            keep = set()
            for arc in self.graph.arcs.values():
                if arc.has_initial:
                    keep.add(arc.src)
                    keep.add(arc.dst)
            shared = _CellState()
            for cid in self.graph.cells:
                if not self._owns(cid) and cid not in keep:
                    self.cell_state[cid] = shared

    @staticmethod
    def check_spec(graph: DataflowGraph, n_shards: int, owner: dict[int, int],
                   fault_plan: Optional[FaultPlan], recovery: bool) -> None:
        """Refuse what no shard over the lowered ``graph`` can run."""
        if fault_plan is not None and n_shards > 1:
            if fault_plan.unit_faults:
                raise SimulationError(
                    "unit faults are not supported on sharded runs: "
                    "unit indices refer to each shard's private pools"
                )
            if fault_plan.has_packet_faults and not recovery:
                raise SimulationError(
                    "packet faults on a sharded run need recovery=True"
                )
        if set(owner) != set(graph.cells):
            raise SimulationError(
                "shard owner map does not cover the graph; partition "
                "the FIFO-lowered graph (ShardedRunner does this)"
            )

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
        if kind == "record_sink" or kind in _TICKERS:
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

    def run_window(self, horizon: int, max_cycles: int) -> tuple[
            list[tuple[int, int, str, tuple]], Optional[int], int,
            Optional[int]]:
        """Execute every event with ``time <= horizon`` (the one event
        loop, :meth:`Machine._loop`, with a horizon); return the outbox
        of cross-shard messages plus the new frontier."""
        self._loop(max_cycles, horizon=horizon)
        outbox, self._outbox = self._outbox, []
        nt, live, eot = self.frontier()
        return outbox, nt, live, eot


def load_shard_machine(path: str) -> ShardMachine:
    """Reload one shard from its coordinated-set member file, with the
    channel state (the in-flight cut messages) re-injected."""
    from ..checkpoint.snapshot import load_machine

    machine, extra = load_machine(
        path, expected_cls=ShardMachine, with_extra=True
    )
    extra = extra or {}
    machine.inject([tuple(m) for m in extra.get("channel_state", ())])
    return machine


def write_shard_snapshot(
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

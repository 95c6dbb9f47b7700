"""Aggregate statistics of a machine-level simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Optional

from ..stats import Samples, fields_dict
from .packets import PacketCounters


@dataclass
class ReliabilityStats:
    """What the reliability layer did during one run.

    All-zero for a fault-free run with the layer enabled; ``None`` on
    :class:`MachineStats` when the layer was not active at all.
    """

    retransmissions: int = 0
    retransmit_failures: int = 0
    duplicates_suppressed: int = 0
    dup_acks_suppressed: int = 0
    acks_resent: int = 0
    corruptions_detected: int = 0
    overruns_dropped: int = 0

    def summary(self) -> str:
        return (
            f"reliability: {self.retransmissions} retransmissions "
            f"({self.retransmit_failures} gave up), "
            f"{self.duplicates_suppressed} dup results suppressed, "
            f"{self.dup_acks_suppressed} dup acks suppressed, "
            f"{self.acks_resent} acks resent, "
            f"{self.corruptions_detected} corruptions detected"
        )


@dataclass
class CheckpointStats:
    """What the checkpointing layer wrote during one run.

    Lives on :class:`repro.checkpoint.CheckpointManager` (and therefore
    inside every snapshot), so the counters continue across resume.
    The write timings ``latencies`` stay out of the pickled state: they
    measure the current process, restart on resume, and would make two
    identical runs write different snapshot bytes.
    """

    snapshots_written: int = 0
    bytes_written: int = 0
    snapshots_pruned: int = 0
    failure_snapshots: int = 0
    #: out-of-band (``request_snapshot``/SIGUSR1) snapshots taken
    live_snapshots: int = 0
    #: periodic snapshots written as format-v5 deltas (subset of
    #: ``snapshots_written``); their bytes are likewise a subset of
    #: ``bytes_written``
    delta_snapshots: int = 0
    delta_bytes_written: int = 0
    last_snapshot_cycle: int = -1
    #: wall-clock seconds per write -- one per snapshot, or one per
    #: coordinated set (the simulated clock never sees checkpointing)
    latencies: Samples = field(default_factory=Samples, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["latencies"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.latencies = Samples()

    def summary(self) -> str:
        # the delta clause appears only when delta chains were active,
        # so classic runs keep their exact historical summary text
        delta = (
            f"{self.delta_snapshots} delta "
            f"[{self.delta_bytes_written} bytes], "
            if self.delta_snapshots
            else ""
        )
        p50 = ""
        if self.latencies:
            p50 = (
                f", write p50 "
                f"{self.latencies.percentile(0.50) * 1000:.1f} ms"
            )
        return (
            f"checkpoints: {self.snapshots_written} snapshots "
            f"({self.bytes_written} bytes, {delta}"
            f"{self.snapshots_pruned} pruned, "
            f"{self.failure_snapshots} failure, {self.live_snapshots} live, "
            f"{self.latencies.total * 1000:.1f} ms{p50}), "
            f"last at cycle {self.last_snapshot_cycle}"
        )


@dataclass
class RecoveryStats:
    """What in-process self-healing did during one sharded run.

    Lives on the :class:`~repro.machine.shard_runner.ShardedRunner`
    coordinator (workers never see it); ``None`` on
    :class:`MachineStats` when self-healing was not armed.  All-zero
    counters mean the run never needed a recovery.
    """

    #: worker failures noticed (crash + hang detections)
    detections: int = 0
    #: detections where the worker was found dead (EOF / exit code)
    crashes: int = 0
    #: detections where a live worker missed its reply deadline
    hangs: int = 0
    #: rollbacks of *all* shards to a coordinated set (or to the start)
    rollbacks: int = 0
    #: worker processes replaced with a fresh fork
    respawns: int = 0
    #: two-strike step-backs past an already-tried coordinated set
    step_backs: int = 0
    #: simulated cycles re-executed because of rollbacks
    cycles_replayed: int = 0
    #: resume-point cycle of each rollback (-1 = restart from inputs)
    rollback_cycles: list = field(default_factory=list)
    #: wall-clock seconds from detection to execution resuming
    latency: Samples = field(default_factory=Samples, compare=False)

    def to_dict(self) -> dict:
        return fields_dict(self)

    def summary(self) -> str:
        p50 = self.latency.percentile(0.50)
        p99 = self.latency.percentile(0.99)
        lat = (
            "no downtime"
            if p50 != p50
            else f"p50 {p50 * 1000:.1f} ms / p99 {p99 * 1000:.1f} ms"
        )
        return (
            f"recovery: {self.detections} detections "
            f"({self.crashes} crashes, {self.hangs} hangs), "
            f"{self.rollbacks} rollbacks, {self.respawns} respawns, "
            f"{self.step_backs} step-backs, "
            f"{self.cycles_replayed} cycles replayed, {lat}"
        )


def _sum(items: list):
    """Field-wise sum of int-counter dataclasses of one class, as a
    fresh instance."""
    out = type(items[0])()
    for f in fields(out):
        setattr(out, f.name, sum(getattr(item, f.name) for item in items))
    return out


@dataclass
class MachineStats:
    """Cycle counts, packet traffic and per-unit load of one run."""

    cycles: int
    packets: PacketCounters
    pe_ops: list[int] = field(default_factory=list)
    fu_ops: list[int] = field(default_factory=list)
    am_ops: list[int] = field(default_factory=list)
    pe_busy: list[int] = field(default_factory=list)
    fu_busy: list[int] = field(default_factory=list)
    am_busy: list[int] = field(default_factory=list)
    fire_counts: dict[int, int] = field(default_factory=dict)
    #: reliability-layer counters (None when the layer was inactive)
    reliability: Optional[ReliabilityStats] = None
    #: injected-fault counters (None when no fault plan was given);
    #: a :class:`repro.faults.FaultStats` instance
    faults: Optional[object] = None
    #: snapshot counters (None when checkpointing was off);
    #: a :class:`CheckpointStats` instance
    checkpoints: Optional[CheckpointStats] = None
    #: self-healing counters (None when healing was not armed);
    #: a :class:`RecoveryStats` instance
    recovery: Optional[RecoveryStats] = None

    @classmethod
    def of(cls, machines: list, checkpoints: Optional[CheckpointStats] = None,
           recovery: Optional[RecoveryStats] = None) -> "MachineStats":
        """The run-level view of one machine, or of the K shard machines
        of one sharded run.  Each machine contributes only the cells it
        owns (a plain machine owns every cell); counters add and unit
        lists concatenate (machine k's PEs come before machine k+1's)."""
        rel = any(m._reliable or m.injector is not None for m in machines)
        injected = [m.injector.stats for m in machines
                    if m.injector is not None]
        return cls(
            cycles=max((m._finish for m in machines), default=0),
            packets=_sum([m.packets for m in machines]),
            pe_ops=[u.ops for m in machines for u in m.pes],
            fu_ops=[u.ops for m in machines for u in m.fus],
            am_ops=[u.ops for m in machines for u in m.ams],
            pe_busy=[u.busy_cycles for m in machines for u in m.pes],
            fu_busy=[u.busy_cycles for m in machines for u in m.fus],
            am_busy=[u.busy_cycles for m in machines for u in m.ams],
            fire_counts={
                cid: st.fire_count
                for m in machines for cid, st in m.cell_state.items()
                if m._owns(cid)
            },
            reliability=_sum([m.rel for m in machines]) if rel else None,
            faults=_sum(injected) if injected else None,
            checkpoints=checkpoints,
            recovery=recovery,
        )

    @property
    def total_firings(self) -> int:
        return sum(self.fire_counts.values())

    def pe_utilization(self) -> list[float]:
        if self.cycles == 0:
            return [0.0] * len(self.pe_busy)
        return [b / self.cycles for b in self.pe_busy]

    def fu_utilization(self) -> list[float]:
        if self.cycles == 0:
            return [0.0] * len(self.fu_busy)
        return [b / self.cycles for b in self.fu_busy]

    def summary(self) -> str:
        pe_u = ", ".join(f"{u:.0%}" for u in self.pe_utilization())
        fu_u = ", ".join(f"{u:.0%}" for u in self.fu_utilization())
        text = (
            f"{self.cycles} cycles, {self.total_firings} firings; "
            f"{self.packets.summary()}; PE util [{pe_u}]; FU util [{fu_u}]"
        )
        if self.reliability is not None:
            text += f"; {self.reliability.summary()}"
        if self.faults is not None:
            text += f"; {self.faults.summary()}"
        if self.checkpoints is not None:
            text += f"; {self.checkpoints.summary()}"
        if self.recovery is not None:
            text += f"; {self.recovery.summary()}"
        return text

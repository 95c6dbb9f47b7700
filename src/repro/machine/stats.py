"""Aggregate statistics of a machine-level simulation run."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional

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
    inside every snapshot), so counters continue across resume.
    """

    snapshots_written: int = 0
    bytes_written: int = 0
    snapshots_pruned: int = 0
    failure_snapshots: int = 0
    #: out-of-band (``request_snapshot``/SIGUSR1) snapshots taken
    live_snapshots: int = 0
    #: periodic snapshots written as format-v3 deltas (subset of
    #: ``snapshots_written``); their bytes are likewise a subset of
    #: ``bytes_written``
    delta_snapshots: int = 0
    delta_bytes_written: int = 0
    last_snapshot_cycle: int = -1
    #: wall-clock seconds spent serializing + writing snapshots (the
    #: simulated clock never sees checkpointing)
    seconds_spent: float = 0.0
    #: per-write latencies in seconds -- one per snapshot, or one per
    #: coordinated set (bounded by :meth:`record_write`)
    latencies: list = field(default_factory=list)

    def __setstate__(self, state) -> None:
        # snapshots written by older builds predate some counters;
        # backfill defaults so a migrated snapshot resumes cleanly
        self.__dict__.update(CheckpointStats().__dict__)
        self.__dict__.update(state)

    def record_write(self, seconds: float) -> None:
        """Account one write's wall time.  The latency samples are
        bounded so a service-length run cannot grow its own
        snapshots."""
        self.seconds_spent += seconds
        self.latencies.append(seconds)
        if len(self.latencies) > 8192:
            del self.latencies[:4096]

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
            import statistics

            p50 = (
                f", write p50 "
                f"{statistics.median(self.latencies) * 1000:.1f} ms"
            )
        return (
            f"checkpoints: {self.snapshots_written} snapshots "
            f"({self.bytes_written} bytes, {delta}"
            f"{self.snapshots_pruned} pruned, "
            f"{self.failure_snapshots} failure, {self.live_snapshots} live, "
            f"{self.seconds_spent * 1000:.1f} ms{p50}), "
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
    #: shards folded into the coordinator process (``degrade=True``)
    degraded_shards: int = 0
    #: resume-point cycle of each rollback (-1 = restart from inputs)
    rollback_cycles: list = field(default_factory=list)
    #: wall-clock seconds from detection to execution resuming
    #: (bounded by the runner so resident services cannot grow it)
    latencies: list = field(default_factory=list)

    def __setstate__(self, state) -> None:
        self.__dict__.update(RecoveryStats().__dict__)
        self.__dict__.update(state)

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank percentile of recovery latency, ``q`` in (0, 1];
        NaN when no recovery happened."""
        if not self.latencies:
            return float("nan")
        ordered = sorted(self.latencies)
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def to_dict(self) -> dict:
        p50 = self.latency_percentile(0.50)
        p99 = self.latency_percentile(0.99)
        return {
            "detections": self.detections,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "rollbacks": self.rollbacks,
            "respawns": self.respawns,
            "step_backs": self.step_backs,
            "cycles_replayed": self.cycles_replayed,
            "degraded_shards": self.degraded_shards,
            "rollback_cycles": list(self.rollback_cycles),
            "latency_p50": None if p50 != p50 else round(p50, 6),
            "latency_p99": None if p99 != p99 else round(p99, 6),
        }

    def summary(self) -> str:
        p50 = self.latency_percentile(0.50)
        p99 = self.latency_percentile(0.99)
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
            f"{self.cycles_replayed} cycles replayed, "
            f"{self.degraded_shards} degraded, {lat}"
        )


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


def _sum_dataclass(cls, items):
    """Field-wise sum of int-counter dataclass instances."""
    out = cls()
    for item in items:
        if item is None:
            continue
        for f in fields(cls):
            cur = getattr(out, f.name)
            if isinstance(cur, int):
                setattr(out, f.name, cur + getattr(item, f.name))
    return out


def merge_shard_stats(
    machines: list, checkpoints=None, recovery=None
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

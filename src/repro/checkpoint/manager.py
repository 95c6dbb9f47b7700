"""Periodic snapshot scheduling, retention and failure bundles.

A :class:`CheckpointManager` is attached to one
:class:`repro.machine.Machine` run.  The machine drives it from inside
the event loop (``checkpoint_tick`` aux events every
``CheckpointConfig.interval`` cycles); the manager owns the on-disk
side: snapshot naming, atomic writes, retention pruning, the
record/replay manifest and the failure diagnosis bundle.

The manager itself is plain data and is serialized inside every
snapshot it writes, so a resumed run keeps checkpointing into the same
directory on the same cadence with the same retention bookkeeping.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Union

from ..config import check
from ..errors import ManifestError, SimulationTimeout, SnapshotError
from ..fileio import atomic_write
from .directory import (
    MANIFEST_SCHEMA,
    next_kind,
    read_manifest,
    retire,
    write_manifest,
)
from .replay import _outcome
from .snapshot import (
    read_metadata,
    save_snapshot,
    write_chain_snapshot,
)


@dataclass
class CheckpointConfig:
    """How one run checkpoints itself.

    ``directory``
        Where snapshots (and, in record mode, the manifest) live.
    ``interval``
        Cycles between periodic snapshots; 0 disables periodic
        snapshots (failure snapshots and record mode still work).
    ``retain``
        How many periodic snapshots to keep (oldest pruned first);
        0 keeps all of them.
    ``record``
        Record mode: write an initial snapshot plus ``manifest.json``
        and keep an event-trace digest, so the whole run can be
        re-executed and verified with
        :func:`repro.checkpoint.replay_bundle`.
    ``delta_every``
        Delta-chain policy: 0 (the default) writes classic standalone
        ``ckpt-*.snap`` full snapshots; N >= 2 writes a full base every
        N-th periodic snapshot (``ckpt-*.base.snap``) and incremental
        format-v5 deltas (``ckpt-*.delta.snap``) in between.  Live,
        failure and initial snapshots are always standalone fulls
        regardless of this knob.
    """

    _error = SnapshotError

    directory: Union[str, Path]
    interval: int = field(default=10_000, metadata={"min": 0})
    retain: int = field(default=3, metadata={"min": 0})
    record: bool = False
    delta_every: int = field(default=0, metadata={"min": 0})

    def __post_init__(self) -> None:
        check(self)
        if self.delta_every == 1:
            raise SnapshotError(
                "checkpoint delta_every=1 would write a base every time; "
                "use 0 to disable delta chains"
            )
        self.directory = str(self.directory)


class CheckpointManager:
    """On-disk checkpoint state for one (possibly resumed) run."""

    def __init__(self, config: CheckpointConfig) -> None:
        self.config = config
        from ..machine.stats import CheckpointStats

        self.stats = CheckpointStats()
        #: periodic snapshot file names in write order, for retention
        self._periodic: list[str] = []
        #: record mode: one entry per snapshot ever taken -- name, cycle
        #: and the chained event-trace digest at that point.  Entries
        #: survive retention pruning (the digest matters even after the
        #: file is gone); replay bisection walks this ledger.
        self._ledger: list[dict[str, Any]] = []

    @property
    def directory(self) -> Path:
        return Path(self.config.directory)

    # ------------------------------------------------------------------
    # lifecycle hooks called by the machine
    # ------------------------------------------------------------------
    def on_start(self, machine: Any) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.config.record:
            self._save(machine, "initial.snap", "initial")
            self._ledger = [self._ledger_entry(machine, "initial.snap")]
            write_manifest(
                self.directory,
                {
                    "schema": MANIFEST_SCHEMA,
                    "status": "running",
                    "initial_snapshot": "initial.snap",
                    "interval": self.config.interval,
                    "checkpoints": [],
                    "ledger": list(self._ledger),
                }
            )

    def save_periodic(self, machine: Any) -> Path:
        # the machine's in-memory tip is the chain it can extend; a
        # fresh, resumed or rolled-back machine has none
        tip = getattr(machine, "_snap_chain", None)
        kind = next_kind(self.config, None if tip is None else tip["depth"])
        if kind == "full":
            name = f"ckpt-{machine.now:012d}.snap"
        else:
            name = f"ckpt-{machine.now:012d}.{kind}.snap"
        # register before serializing so the snapshot's own manager
        # state already owns the file it lives in (and, in record mode,
        # already carries its own ledger entry)
        self._periodic.append(name)
        if self.config.record:
            self._ledger.append(self._ledger_entry(machine, name))
        path = self._save(machine, name, "periodic", kind=kind)
        self._prune()
        if self.config.record:
            self._update_manifest(
                checkpoints=list(self._periodic), ledger=list(self._ledger)
            )
        return path

    def save_live(self, machine: Any, reason: str = "live") -> Path:
        """Snapshot a live run at an out-of-band request point.

        Written as ``live-<cycle>.snap`` when the event loop drains a
        :meth:`repro.machine.Machine.request_snapshot` (e.g. from the
        SIGUSR1 handler or a supervising process).  Live snapshots are
        full resume points but are neither retention-pruned nor added
        to the record ledger -- they are taken between events rather
        than at a ``checkpoint_tick``, so a replay probe could not
        pause at their capture point to compare digests.

        Live snapshots always bypass the delta-chain policy: being
        outside the retention ledger they can outlive the chain that
        was current when they were taken, so chaining one would leave
        a resume point whose ancestors are legally prunable.  They are
        written as standalone full snapshots and do not advance the
        machine's chain tip.
        """
        name = f"live-{machine.now:012d}.snap"
        self.stats.live_snapshots += 1
        return self._save(machine, name, reason)

    def save_failure(self, machine: Any, error: Exception) -> Path:
        """Snapshot the wedged machine and write a diagnosis bundle,
        then attach the snapshot path to the error.

        A timed-out machine was still making progress and stays
        resumable, so its snapshot is named ``timeout-*``;
        ``failure-*`` pins a wedged machine for forensics only.

        Both are always standalone full snapshots even in delta mode:
        failure forensics must never depend on a chain whose other
        links are subject to retention pruning or quarantine.
        """
        prefix = "timeout" if isinstance(error, SimulationTimeout) else "failure"
        name = f"{prefix}-{machine.now:012d}.snap"
        self.stats.failure_snapshots += 1
        path = self._save(machine, name, prefix)
        bundle: dict[str, Any] = {
            "schema": MANIFEST_SCHEMA,
            "snapshot": name,
            **_outcome(machine, error),
        }
        diagnosis = getattr(error, "diagnosis", None)
        if diagnosis is not None:
            bundle["diagnosis"] = diagnosis.summary()
        if machine.fault_plan is not None:
            bundle["fault_plan"] = machine.fault_plan.to_dict()
        atomic_write(
            self.directory / f"{prefix}-{machine.now:012d}.json",
            (json.dumps(bundle, indent=2, default=repr) + "\n").encode(),
        )
        if self.config.record:
            try:
                self._update_manifest(**_outcome(machine, error))
            except ManifestError as exc:
                # the run is already failing; surface the bundle damage
                # as a warning instead of masking the original error
                warnings.warn(str(exc), RuntimeWarning, stacklevel=2)
        error.snapshot_path = str(path)
        return path

    @staticmethod
    def _ledger_entry(machine: Any, name: str) -> dict[str, Any]:
        return {
            "snapshot": name,
            "cycle": machine.now,
            "trace_sha256": machine.trace.hexdigest(),
            "trace_events": machine.trace.count,
        }

    def on_complete(self, machine: Any) -> None:
        if self.config.record:
            self._update_manifest(**_outcome(machine, None))

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _save(
        self, machine: Any, name: str, reason: str, kind: str = "full"
    ) -> Path:
        # count the write *before* serializing, so the snapshot's own
        # embedded stats already include itself -- a resumed run then
        # ends with the same cumulative counters as an uninterrupted one
        self.stats.snapshots_written += 1
        self.stats.last_snapshot_cycle = machine.now
        if kind == "delta":
            self.stats.delta_snapshots += 1
        t0 = time.perf_counter()
        if kind == "full":
            path = save_snapshot(machine, self.directory / name, reason)
        else:
            path = write_chain_snapshot(
                machine, self.directory / name, reason, kind=kind
            )
        self.stats.latencies.add(time.perf_counter() - t0)
        size = path.stat().st_size
        self.stats.bytes_written += size
        if kind == "delta":
            self.stats.delta_bytes_written += size
        return path

    def _has_external_children(self, doomed: list[str]) -> bool:
        """True when an on-disk delta *outside* the doomed set lists a
        doomed file as its parent.

        A resumed run restarts its in-memory retention ledger, so the
        directory can hold stale descendants of a base this manager is
        about to prune (written before the crash).  Unlinking the base
        would silently orphan them; keep the whole chain instead.
        """
        doomed_set = set(doomed)
        try:
            on_disk = list(self.directory.glob("*.delta.snap"))
        except OSError:
            return False
        for path in on_disk:
            if path.name in doomed_set:
                continue
            try:
                parent = read_metadata(path).get("parent")
            except SnapshotError:
                continue
            if parent in doomed_set:
                return True
        return False

    def _prune(self) -> None:
        """Retention over periodic snapshot files, whole chains at a
        time (:func:`~repro.checkpoint.directory.retire`); a chain with
        stale on-disk descendants is kept."""
        for unit in retire(
            self._periodic, self.config.retain,
            lambda name: name.endswith(".delta.snap"),
            keep=lambda unit: (
                (len(unit) > 1 or unit[0].endswith(".base.snap"))
                and self._has_external_children(unit)
            ),
        ):
            for old in reversed(unit):
                (self.directory / old).unlink(missing_ok=True)
                self.stats.snapshots_pruned += 1

    def _update_manifest(self, **fields: Any) -> None:
        """Merge ``fields`` into the on-disk manifest.

        The manifest was written at :meth:`on_start`, before the first
        event; finding it missing or unparseable mid-run means the
        bundle has been damaged.  Fabricating a fresh default manifest
        here would silently resurrect the bundle and mask that damage,
        so a typed :class:`ManifestError` is raised instead.
        """
        manifest = read_manifest(self.directory, "update")
        manifest.update(fields)
        write_manifest(self.directory, manifest)

"""Coordinated (Chandy-Lamport) checkpoint sets for sharded runs.

A sharded run (:mod:`repro.machine.shard_runner`) checkpoints at a lockstep
barrier: every worker writes its own v4 shard snapshot
(``ckpt-<cycle>.shard<k>.snap``, carrying the in-flight channel
messages about to be injected into it as ``extra.channel_state``), and
the coordinator commits the *set* to the directory manifest only after
all K files have landed on disk.  The manifest entry is the unit of
consistency:

* a crash between shard writes leaves stray ``.shard<k>.snap`` files
  but no manifest entry, so no partial set is ever offered for resume;
* retention prunes whole sets, never individual shard files, and drops
  the manifest entry *before* unlinking any file -- a crash mid-prune
  orphans files (harmless) rather than leaving a committed entry that
  points at a half-deleted set.

Which set resumes, which sets retention drops and how a set is
quarantined are decided in :mod:`repro.checkpoint.directory`, for
sharded and single-machine directories alike.  The single-machine
:func:`~repro.checkpoint.directory.latest_snapshot` never offers a
member file: its ``.shard<k>`` kind suffix is neither a classic,
``.base`` nor ``.delta`` snapshot.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Optional, Union

from ..errors import SnapshotError
from ..machine.stats import CheckpointStats
from .directory import (
    MANIFEST_SCHEMA,
    delta_parent_set,
    descendants,
    retire,
    write_manifest,
)
from .manager import CheckpointConfig


class CoordinatedCheckpointManager:
    """Commit and retention logic for coordinated shard snapshot sets.

    Owned by :class:`~repro.machine.shard_runner.ShardedRunner`; the runner
    decides *when* a barrier checkpoint happens and asks each worker to
    write its file, this class decides what counts as *committed* (all
    K files on disk, then a manifest entry) and enforces all-or-none
    retention over whole sets.
    """

    def __init__(self, config: CheckpointConfig, shards: int) -> None:
        if shards < 1:
            raise SnapshotError(
                f"shard count must be >= 1, got {shards}"
            )
        if config.record:
            raise SnapshotError(
                "record/replay is not supported for sharded runs; "
                "use record=False for coordinated checkpoints"
            )
        self.config = config
        self.shards = shards
        self.stats = CheckpointStats()
        #: committed sets, oldest first: {"cycle": int, "files": [...]}
        #: (chained sets add "kind", "chain_depth" and, for deltas,
        #: "parent_cycle")
        self._sets: list[dict[str, Any]] = []
        self._quarantined: list[dict[str, Any]] = []
        self._status = "created"
        self._meta: dict[str, Any] = {}
        #: True only while the previous set was written by the workers
        #: currently running -- the only situation in which their
        #: in-memory chain tips provably match the last committed set.
        #: False at construction, after attach and after any rollback,
        #: so the next set is always a full base.
        self._chain_live = False

    # ------------------------------------------------------------------
    # lifecycle

    @property
    def directory(self) -> Path:
        return Path(self.config.directory)

    @classmethod
    def attach(
        cls, directory: Union[str, Path], manifest: dict[str, Any]
    ) -> "CoordinatedCheckpointManager":
        """Reconstruct the manager of an existing sharded directory
        from its ``manifest`` (the resume path), preserving its
        committed-set history and its recorded policy: a key the
        manifest lacks takes the :class:`CheckpointConfig` default, a
        recorded ``retain`` of 0 stays 0, and the ``max_chain_depth``
        an older manifest records is ignored (it is
        :data:`~repro.checkpoint.directory.MAX_CHAIN_DEPTH` now)."""
        config = CheckpointConfig(directory, **{
            key: manifest[key]
            for key in ("interval", "retain", "delta_every")
            if key in manifest
        })
        self = cls(config, int(manifest["shards"]))
        self._sets = [
            dict(e)
            for e in manifest.get("coordinated", [])
            if isinstance(e, dict)
        ]
        self._quarantined = [
            dict(q)
            for q in manifest.get("quarantined", [])
            if isinstance(q, dict)
        ]
        self._meta = {
            key: manifest[key]
            for key in ("workload", "partition_scheme")
            if key in manifest
        }
        self._status = "attached"
        if self._sets:
            self.stats.last_snapshot_cycle = self._sets[-1]["cycle"]
        return self

    def on_start(self, runner: Any) -> None:
        """Called once when the runner's :meth:`run` begins."""
        self.directory.mkdir(parents=True, exist_ok=True)
        if self._status != "attached":
            self._meta = {
                "workload": getattr(runner, "workload_id", None),
                "partition_scheme": getattr(
                    getattr(runner, "partition", None), "scheme", None
                ),
            }
        self._status = "running"
        self._write()

    def on_complete(self, runner: Any) -> None:
        self._status = "completed"
        self._write()

    # ------------------------------------------------------------------
    # commits

    @property
    def tip_depth(self) -> Optional[int]:
        """Chain depth of the last committed set when the workers now
        running wrote it (the only case in which their in-memory chain
        tips provably match it), else None: the input of
        :func:`~repro.checkpoint.directory.next_kind`."""
        if not self._chain_live or not self._sets:
            return None
        last = self._sets[-1]
        if last.get("kind") not in ("base", "delta"):
            return None
        return int(last.get("chain_depth", 0))

    def reset_chain(self) -> None:
        """Forget the live chain: called by the runner whenever worker
        state no longer descends from the last committed set (rollback,
        respawn), so the next set is a full base."""
        self._chain_live = False

    def commit(
        self,
        cycle: int,
        names: list[str],
        sizes: list[int],
        kind: str = "full",
        started: Optional[float] = None,
    ) -> None:
        """Commit one complete set: all ``names`` are on disk (the
        workers have replied), so the manifest entry makes the set
        visible to resume; retention then prunes whole old sets.
        ``started`` is the ``time.perf_counter()`` at which the runner
        posted the barrier; the set's write latency runs from there to
        this commit.

        A ``kind="delta"`` set commits only when its parent set (the
        previous committed barrier) is intact with its whole chain
        (:func:`~repro.checkpoint.directory.delta_parent_set`);
        otherwise a typed :class:`~repro.errors.ChainBrokenError` is
        raised and nothing is committed.
        """
        if len(names) != self.shards:
            raise SnapshotError(
                f"coordinated set at cycle {cycle} has {len(names)} "
                f"files, expected {self.shards}"
            )
        # post-rollback replay legitimately re-commits a barrier cycle
        # that is already in the manifest: replace it, and drop every
        # still-listed delta set chained (transitively) on it -- they
        # point at rewritten parents; their files stay on disk as
        # harmless orphans, like a crash between shard writes leaves
        doomed = {cycle} | descendants(
            {e.get("cycle"): e.get("parent_cycle") for e in self._sets},
            [cycle],
        )
        survivors = [e for e in self._sets if e.get("cycle") not in doomed]
        entry: dict[str, Any] = {"cycle": cycle, "files": list(names)}
        if kind == "delta":
            parent = delta_parent_set(
                self.directory, survivors, self._quarantined, cycle
            )
            entry["kind"] = "delta"
            entry["parent_cycle"] = parent["cycle"]
            entry["chain_depth"] = int(parent.get("chain_depth", 0)) + 1
        elif kind == "base":
            entry["kind"] = "base"
            entry["chain_depth"] = 0
        self._sets = survivors
        self._sets.append(entry)
        # replay can commit below a still-listed newer cycle; keep the
        # manifest ordered oldest-first so step-back stays meaningful
        self._sets.sort(key=lambda e: e.get("cycle", 0))
        self.stats.snapshots_written += len(names)
        self.stats.bytes_written += sum(sizes)
        if kind == "delta":
            self.stats.delta_snapshots += len(names)
            self.stats.delta_bytes_written += sum(sizes)
        self.stats.last_snapshot_cycle = cycle
        self._write()
        if started is not None:
            self.stats.latencies.add(time.perf_counter() - started)
        self._prune()
        if kind != "full":
            self._chain_live = True

    def _prune(self) -> None:
        """Retention over committed sets, whole chains at a time
        (:func:`~repro.checkpoint.directory.retire`): each pruned
        chain leaves the manifest before its files are unlinked."""
        for unit in retire(self._sets, self.config.retain,
                           lambda entry: entry.get("kind") == "delta"):
            self._write()
            for entry in reversed(unit):
                for name in entry["files"]:
                    try:
                        (self.directory / name).unlink()
                    except FileNotFoundError:
                        pass
                    self.stats.snapshots_pruned += 1

    def _write(self) -> None:
        manifest: dict[str, Any] = {
            "schema": MANIFEST_SCHEMA,
            "sharded": True,
            "shards": self.shards,
            "interval": self.config.interval,
            "retain": self.config.retain,
            "status": self._status,
            "coordinated": self._sets,
            "quarantined": self._quarantined,
        }
        # only delta-chained directories carry the chain knob, so
        # manifests written by classic runs stay byte-identical
        if self.config.delta_every:
            manifest["delta_every"] = self.config.delta_every
        manifest.update(self._meta)
        write_manifest(self.directory, manifest)

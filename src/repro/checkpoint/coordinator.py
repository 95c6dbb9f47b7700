"""Coordinated (Chandy-Lamport) checkpoint sets for sharded runs.

A sharded run (:mod:`repro.machine.shard_runner`) checkpoints at a lockstep
barrier: every worker writes its own v2 shard snapshot
(``ckpt-<cycle>.shard<k>.snap``, carrying the in-flight channel
messages about to be injected into it as ``extra.channel_state``), and
the coordinator commits the *set* to the directory manifest only after
all K files have landed on disk.  The manifest entry is the unit of
consistency:

* a crash between shard writes leaves stray ``.shard<k>.snap`` files
  but no manifest entry, so :func:`latest_coordinated` never offers a
  partial set for resume;
* retention prunes whole sets, never individual shard files, and drops
  the manifest entry *before* unlinking any file -- a crash mid-prune
  orphans files (harmless) rather than leaving a committed entry that
  points at a half-deleted set.

The single-machine :func:`~repro.checkpoint.snapshot.latest_snapshot`
already ignores shard files (their stem's cycle part is not purely
numeric), so a sharded directory is invisible to the single-machine
resume path; :func:`is_sharded_dir` is how callers (CLI ``resume``,
the supervisor) detect that a directory needs the coordinated path.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Optional, Union

from ..errors import ChainBrokenError, ManifestError, SnapshotError
from ..machine.stats import CheckpointStats
from .manager import CheckpointConfig
from .replay import MANIFEST_NAME, MANIFEST_SCHEMA
from .snapshot import _atomic_write


def shard_snapshot_name(cycle: int, shard: int) -> str:
    """On-disk name of shard ``shard``'s member of the ``cycle`` set."""
    return f"ckpt-{cycle:012d}.shard{shard}.snap"


def read_shard_manifest(directory: Union[str, Path]) -> dict[str, Any]:
    """Read and validate a sharded checkpoint directory's manifest."""
    path = Path(directory) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError(f"no manifest in {directory}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(
            f"unreadable manifest in {directory}: {exc}"
        ) from exc
    if not isinstance(manifest, dict) or not manifest.get("sharded"):
        raise ManifestError(
            f"{directory} is not a sharded checkpoint directory"
        )
    shards = manifest.get("shards")
    if not isinstance(shards, int) or shards < 1:
        raise ManifestError(
            f"sharded manifest in {directory} has bad shard count "
            f"{shards!r}"
        )
    return manifest


def is_sharded_dir(directory: Union[str, Path]) -> bool:
    """True when ``directory`` holds coordinated shard snapshot sets."""
    try:
        read_shard_manifest(directory)
    except ManifestError:
        return False
    return True


def _set_chain_broken(
    entry: dict[str, Any],
    by_cycle: dict[Any, dict[str, Any]],
    quarantined: set,
    directory: Path,
) -> bool:
    """True when a delta set's ancestry cannot all be resumed.

    Walks ``parent_cycle`` links from ``entry`` down to a base set;
    any missing/quarantined ancestor entry, any ancestor with missing
    member files, or a malformed (cyclic) link chain breaks the set.
    Full and base sets are self-contained and never broken here.
    """
    seen: set = set()
    node = entry
    while node.get("kind") == "delta":
        cycle = node.get("cycle")
        if cycle in seen:
            return True  # parent_cycle cycle -- malformed manifest
        seen.add(cycle)
        parent = by_cycle.get(node.get("parent_cycle"))
        if parent is None or parent.get("cycle") in quarantined:
            return True
        files = parent.get("files", [])
        if not files or not all(
            (directory / name).exists() for name in files
        ):
            return True
        node = parent
    return False


def latest_coordinated(
    directory: Union[str, Path], exclude: Any = ()
) -> Optional[dict[str, Any]]:
    """Newest committed coordinated set whose files all still exist.

    Returns the manifest entry (``{"cycle": ..., "files": [...]}``) or
    None.  Quarantined sets, sets with missing files and sets whose
    cycle is in ``exclude`` (the in-process healer's barred cycles)
    are skipped -- the next-older complete set wins, mirroring the
    single-machine poisoned-snapshot step-back.  A delta set whose
    parent chain is incomplete (missing, quarantined or gutted
    ancestor sets) is skipped the same way: committing an entry makes
    a set *visible*, but only an intact chain makes it *resumable*.
    """
    directory = Path(directory)
    manifest = read_shard_manifest(directory)
    entries = manifest.get("coordinated", [])
    quarantined = {
        q.get("cycle")
        for q in manifest.get("quarantined", [])
        if isinstance(q, dict)
    }
    quarantined.update(exclude)
    by_cycle = {
        e.get("cycle"): e for e in entries if isinstance(e, dict)
    }
    for entry in reversed(entries):
        if not isinstance(entry, dict):
            continue
        files = entry.get("files", [])
        if entry.get("cycle") in quarantined or not files:
            continue
        if not all((directory / name).exists() for name in files):
            continue
        if _set_chain_broken(entry, by_cycle, quarantined, directory):
            continue
        return entry
    return None


def quarantine_coordinated(
    directory: Union[str, Path], cycle: int, reason: str
) -> list[str]:
    """Quarantine the whole coordinated set at ``cycle``.

    Every member file is renamed to ``<name>.poisoned`` and the cycle
    is recorded under the manifest's ``"quarantined"`` list, so
    :func:`latest_coordinated` steps back to the previous complete
    set.  Delta sets chained on the quarantined set are quarantined
    with it -- their member files can no longer be resolved down to a
    trusted base, so leaving them live would only defer the same
    failure.  Returns the names that were renamed.
    """
    directory = Path(directory)
    manifest = read_shard_manifest(directory)
    entries = [
        e for e in manifest.get("coordinated", []) if isinstance(e, dict)
    ]
    doomed = {cycle}
    # entries are oldest-first and a parent always precedes its child,
    # so one forward pass closes the descendant set transitively
    for entry in sorted(entries, key=lambda e: e.get("cycle", 0)):
        if entry.get("parent_cycle") in doomed:
            doomed.add(entry.get("cycle"))
    renamed: list[str] = []
    for entry in entries:
        if entry.get("cycle") in doomed:
            for name in entry.get("files", []):
                path = directory / name
                if path.exists():
                    path.rename(path.with_name(path.name + ".poisoned"))
                    renamed.append(name)
    already = {
        q.get("cycle")
        for q in manifest.get("quarantined", [])
        if isinstance(q, dict)
    }
    quarantined = manifest.setdefault("quarantined", [])
    quarantined.append({"cycle": cycle, "reason": reason})
    for child in sorted(doomed - {cycle}):
        if child not in already:
            quarantined.append(
                {
                    "cycle": child,
                    "reason": f"delta set chained on quarantined set "
                    f"at cycle {cycle}",
                }
            )
    _write_manifest(directory, manifest)
    return renamed


def _write_manifest(directory: Path, manifest: dict[str, Any]) -> None:
    _atomic_write(
        directory / MANIFEST_NAME,
        (json.dumps(manifest, indent=2, default=repr) + "\n").encode(
            "utf-8"
        ),
    )


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
        cls, directory: Union[str, Path]
    ) -> "CoordinatedCheckpointManager":
        """Reconstruct the manager of an existing sharded directory
        (the resume path), preserving its committed-set history."""
        directory = Path(directory)
        manifest = read_shard_manifest(directory)
        config = CheckpointConfig(
            directory=directory,
            interval=int(manifest.get("interval") or 10_000),
            retain=int(manifest.get("retain") or 3),
            delta_every=int(manifest.get("delta_every") or 0),
            max_chain_depth=int(manifest.get("max_chain_depth") or 64),
        )
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

    def shard_name(self, cycle: int, shard: int) -> str:
        return shard_snapshot_name(cycle, shard)

    def next_kind(self) -> str:
        """What the next coordinated set should be written as.

        ``"full"`` when delta chains are disabled; otherwise ``"base"``
        unless the previous set is known to have been written by the
        *current* workers (``_chain_live``) and extending its chain
        stays inside the ``delta_every``/``max_chain_depth`` policy.
        """
        every = self.config.delta_every
        if not every:
            return "full"
        if not self._chain_live or not self._sets:
            return "base"
        last = self._sets[-1]
        if last.get("kind") not in ("base", "delta"):
            return "base"
        depth = int(last.get("chain_depth", 0)) + 1
        if depth >= every or depth > self.config.max_chain_depth:
            return "base"
        return "delta"

    def reset_chain(self) -> None:
        """Forget the live chain: called by the runner whenever worker
        state no longer descends from the last committed set (rollback,
        respawn, degrade), so the next set is a full base."""
        self._chain_live = False

    def _delta_parent(
        self, entries: list[dict[str, Any]], cycle: int
    ) -> dict[str, Any]:
        """The set a delta committed at ``cycle`` chains on, validated
        intact; raises :class:`ChainBrokenError` otherwise (a delta
        set whose parent is already unusable must never be committed
        -- it would be born unresumable)."""
        parent: Optional[dict[str, Any]] = None
        for entry in entries:
            if entry.get("cycle", 0) < cycle:
                parent = entry
        if parent is None or parent.get("kind") not in ("base", "delta"):
            raise ChainBrokenError(
                f"cannot commit coordinated delta set at cycle {cycle}: "
                f"no chained parent set in the manifest",
                status="orphaned",
            )
        quarantined = {
            q.get("cycle") for q in self._quarantined if isinstance(q, dict)
        }
        if parent.get("cycle") in quarantined:
            raise ChainBrokenError(
                f"cannot commit coordinated delta set at cycle {cycle}: "
                f"parent set at cycle {parent.get('cycle')} is quarantined",
                status="damaged",
            )
        files = parent.get("files", [])
        missing = [
            name for name in files if not (self.directory / name).exists()
        ]
        if missing or not files:
            raise ChainBrokenError(
                f"cannot commit coordinated delta set at cycle {cycle}: "
                f"parent set at cycle {parent.get('cycle')} is missing "
                f"files {missing}",
                status="orphaned",
            )
        return parent

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
        previous committed barrier) is still intact -- all K parent
        files present and not quarantined -- otherwise a typed
        :class:`ChainBrokenError` is raised and nothing is committed.
        """
        if len(names) != self.shards:
            raise SnapshotError(
                f"coordinated set at cycle {cycle} has {len(names)} "
                f"files, expected {self.shards}"
            )
        # post-rollback replay legitimately re-commits a barrier cycle
        # that is already in the manifest; replace, don't duplicate
        survivors = [e for e in self._sets if e.get("cycle") != cycle]
        if len(survivors) != len(self._sets):
            # the replaced set's files were just overwritten, so any
            # still-listed delta set chained (transitively) on it now
            # points at rewritten parents; drop those entries too --
            # their files stay on disk as harmless orphans, exactly
            # like a crash between shard writes would leave
            doomed = {cycle}
            kept: list[dict[str, Any]] = []
            for entry in survivors:  # oldest-first: parents precede kids
                if entry.get("parent_cycle") in doomed:
                    doomed.add(entry.get("cycle"))
                else:
                    kept.append(entry)
            survivors = kept
        entry: dict[str, Any] = {"cycle": cycle, "files": list(names)}
        if kind == "delta":
            parent = self._delta_parent(survivors, cycle)
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
            self.stats.record_write(time.perf_counter() - started)
        self._prune()
        if kind != "full":
            self._chain_live = True

    def _set_chains(self) -> list[list[dict[str, Any]]]:
        """Split the committed sets into prune units: a full set is
        its own unit, a base set plus the deltas chained on it form
        one unit (committed consecutively, so always adjacent)."""
        groups: list[list[dict[str, Any]]] = []
        for entry in self._sets:
            if (
                groups
                and entry.get("kind") == "delta"
                and entry.get("parent_cycle")
                == groups[-1][-1].get("cycle")
            ):
                groups[-1].append(entry)
            else:
                groups.append([entry])
        return groups

    def _prune(self) -> None:
        """All-or-none retention over whole set *chains*: drop the
        oldest chain from the manifest first, then unlink its files,
        so a crash mid-prune never leaves a committed entry pointing
        at a partially-deleted set.  A base whose deltas are still
        listed is never unlinked on its own, and ``retain=0`` keeps
        everything (mirroring :class:`CheckpointConfig`)."""
        retain = self.config.retain
        if not retain:
            return
        while len(self._sets) > retain:
            doomed = self._set_chains()[0]
            if len(self._sets) - len(doomed) < retain:
                break  # dropping the whole chain would dip below retain
            del self._sets[: len(doomed)]
            self._write()
            for entry in reversed(doomed):
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
        # only delta-chained directories carry the chain knobs, so
        # manifests written by classic runs stay byte-identical
        if self.config.delta_every:
            manifest["delta_every"] = self.config.delta_every
            manifest["max_chain_depth"] = self.config.max_chain_depth
        manifest.update(self._meta)
        _write_manifest(self.directory, manifest)

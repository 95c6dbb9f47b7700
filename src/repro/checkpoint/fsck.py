"""Integrity walk over a checkpoint directory (``repro snapshot fsck``).

Delta chains trade write bytes for a new failure surface: a damaged or
missing ancestor silently poisons every descendant.  :func:`fsck_directory`
makes that surface inspectable -- it classifies every snapshot file and
(for sharded directories) every committed coordinated set, walking each
delta's parent chain with envelope and metadata reads only.  **No
payload is ever deserialized**, so fsck is safe to run on untrusted or
known-damaged directories.

The report is plain data (JSON-serializable); ``ok`` is False exactly
when some non-quarantined snapshot or committed set is unresumable --
the condition under which the CLI exits non-zero.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Union

from ..errors import SnapshotError
from .coordinator import _set_chain_broken, read_shard_manifest
from .replay import MANIFEST_NAME
from .snapshot import chain_status, read_metadata

__all__ = ["fsck_directory"]


def _file_entry(path: Path) -> dict[str, Any]:
    """Classify one ``*.snap`` file without touching its payload."""
    entry: dict[str, Any] = {"name": path.name}
    try:
        meta = read_metadata(path)
    except SnapshotError as exc:
        entry.update(kind="unknown", status="damaged", error=str(exc))
        return entry
    kind = entry["kind"] = meta.get("kind", "full")
    if "cycle" in meta:
        entry["cycle"] = meta["cycle"]
    if kind in ("base", "delta"):
        entry["chain_depth"] = meta.get("chain_depth", 0)
        status = chain_status(path)
        entry["status"] = status["status"]
        if status["chain"] is not None:
            entry["chain"] = status["chain"]
        if status["error"]:
            entry["error"] = status["error"]
    else:
        # full/live/failure snapshots are self-contained and the
        # metadata read above already verified both section checksums
        entry["status"] = "intact"
    return entry


def _coordinated_sets(directory: Path) -> list[dict[str, Any]]:
    """Classify every committed coordinated set of a sharded manifest."""
    manifest = read_shard_manifest(directory)
    entries = [
        e for e in manifest.get("coordinated", []) if isinstance(e, dict)
    ]
    quarantined = {
        q.get("cycle")
        for q in manifest.get("quarantined", [])
        if isinstance(q, dict)
    }
    by_cycle = {e.get("cycle"): e for e in entries}
    out: list[dict[str, Any]] = []
    for entry in entries:
        report: dict[str, Any] = {
            "cycle": entry.get("cycle"),
            "kind": entry.get("kind", "full"),
            "files": len(entry.get("files", [])),
        }
        if "chain_depth" in entry:
            report["chain_depth"] = entry["chain_depth"]
        if entry.get("cycle") in quarantined:
            report["status"] = "quarantined"
            out.append(report)
            continue
        missing = [
            name
            for name in entry.get("files", [])
            if not (directory / name).exists()
        ]
        if missing or not entry.get("files"):
            report["status"] = "damaged"
            report["error"] = (
                f"committed set is missing member files: "
                f"{', '.join(missing) or '(no files listed)'}"
            )
        elif _set_chain_broken(entry, by_cycle, quarantined, directory):
            report["status"] = "orphaned"
            report["error"] = (
                "delta set's parent chain is incomplete (missing, "
                "quarantined or gutted ancestor set)"
            )
        else:
            report["status"] = "intact"
        out.append(report)
    return out


def fsck_directory(directory: Union[str, Path]) -> dict[str, Any]:
    """Walk every snapshot chain in ``directory`` and report integrity.

    Returns ``{"directory", "ok", "files", "quarantined", "problems"}``
    plus ``"sets"`` for sharded directories.  ``ok`` is False when any
    live (non-quarantined) snapshot file or committed coordinated set
    is damaged or orphaned; already-quarantined material is listed but
    never fails the check -- it has been dealt with.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise SnapshotError(f"{directory} is not a directory")
    report: dict[str, Any] = {
        "directory": str(directory),
        "ok": True,
        "files": [],
        "quarantined": sorted(
            p.name for p in directory.glob("*.snap.poisoned")
        ),
        "problems": [],
    }
    for path in sorted(directory.glob("*.snap")):
        entry = _file_entry(path)
        report["files"].append(entry)
        if entry["status"] != "intact":
            report["ok"] = False
            report["problems"].append(
                f"{entry['name']}: {entry['status']}"
                + (f" ({entry['error']})" if entry.get("error") else "")
            )
    if (directory / MANIFEST_NAME).exists():
        try:
            sets = _coordinated_sets(directory)
        except SnapshotError:
            sets = None  # not a sharded manifest (record bundle etc.)
        if sets is not None:
            report["sets"] = sets
            for entry in sets:
                if entry["status"] not in ("intact", "quarantined"):
                    report["ok"] = False
                    report["problems"].append(
                        f"coordinated set at cycle {entry['cycle']}: "
                        f"{entry['status']}"
                        + (
                            f" ({entry['error']})"
                            if entry.get("error")
                            else ""
                        )
                    )
    return report

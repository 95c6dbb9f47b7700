"""Every decision about a checkpoint directory, for both kinds of run.

A single-machine directory holds one machine's snapshots
(``ckpt-<cycle>.snap``, or ``ckpt-<cycle>.base.snap`` /
``ckpt-<cycle>.delta.snap`` in a delta chain, plus ``live-``,
``timeout-``, ``failure-`` and, in record mode, ``initial.snap`` and a
``manifest.json`` bundle).  A sharded directory holds coordinated sets:
K ``ckpt-<cycle>.shard<k>.snap`` files per barrier, each set committed
by one entry in a sharded ``manifest.json``.  This module makes each
decision about either kind once:

* **manifest I/O** -- :func:`read_manifest` (typed
  :class:`~repro.errors.ManifestError`) and :func:`write_manifest`
  (atomic);
* **chain and retention policy** -- :func:`next_kind` picks full, base
  or delta, and :func:`retire` prunes whole units (a base plus the
  deltas chained on it), all-or-none;
* **lineage and resumability** -- :func:`descendants` walks what
  chains on given files or sets, :func:`classify_file` rates one
  snapshot file by its chain, :func:`classify_sets` rates every
  committed set (and :func:`delta_parent_set` the one a new delta set
  would chain on), and :func:`fsck_directory` reports both;
* **resume point and quarantine** -- :func:`resume_point` and
  :func:`quarantine` take either kind of directory.

Nothing here deserializes a payload: every verdict comes from file
names, the manifest, and envelope and metadata reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Union

from ..errors import ChainBrokenError, ManifestError, SnapshotError
from ..fileio import atomic_write
from .snapshot import chain_status, read_metadata

#: schema version of manifest.json
MANIFEST_SCHEMA = 1
MANIFEST_NAME = "manifest.json"


def shard_snapshot_name(cycle: int, shard: int) -> str:
    """On-disk name of shard ``shard``'s member of the ``cycle`` set."""
    return f"ckpt-{cycle:012d}.shard{shard}.snap"


# ----------------------------------------------------------------------
# manifest.json
# ----------------------------------------------------------------------
#: what a missing or unreadable manifest means to each kind of reader
_UNUSABLE = {
    "bundle": (
        "{path} does not exist: not a recorded run bundle (record with "
        "CheckpointConfig(record=True) or `repro checkpoint --record`)",
        "cannot read manifest {path}: {exc}",
    ),
    "sharded": (
        "no manifest in {directory}",
        "unreadable manifest in {directory}: {exc}",
    ),
    "update": (
        "record manifest {path} disappeared mid-run; the bundle is "
        "damaged and will not be silently recreated",
        "record manifest {path} is damaged mid-run ({exc}); refusing to "
        "overwrite the evidence with a fresh default",
    ),
}


def read_manifest(
    directory: Union[str, Path],
    role: str = "bundle",
    default: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Read ``directory``'s ``manifest.json``.

    ``role`` says what the caller needs the file to be, and so which
    :class:`ManifestError` a missing, unreadable or malformed file
    raises: ``"bundle"`` a record bundle of this schema, ``"sharded"``
    a sharded directory's manifest, ``"update"`` any JSON object a
    writer merges fields into.  A missing file returns a copy of
    ``default`` instead, when one is given.
    """
    path = Path(directory) / MANIFEST_NAME
    missing, unreadable = _UNUSABLE[role]
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        if default is not None:
            return dict(default)
        raise ManifestError(
            missing.format(path=path, directory=directory)
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(
            unreadable.format(path=path, directory=directory, exc=exc)
        ) from exc
    if role == "bundle":
        if (not isinstance(manifest, dict)
                or manifest.get("schema") != MANIFEST_SCHEMA):
            found = (manifest.get("schema") if isinstance(manifest, dict)
                     else manifest)
            raise ManifestError(
                f"manifest {path} has unsupported schema {found!r}; "
                f"expected {MANIFEST_SCHEMA}"
            )
    elif role == "sharded":
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
    elif not isinstance(manifest, dict):
        raise ManifestError(
            f"record manifest {path} is damaged mid-run: expected a "
            f"JSON object, found {type(manifest).__name__}"
        )
    return manifest


def write_manifest(
    directory: Union[str, Path], manifest: dict[str, Any]
) -> None:
    """Atomically replace ``directory``'s ``manifest.json``."""
    atomic_write(
        Path(directory) / MANIFEST_NAME,
        (json.dumps(manifest, indent=2, default=repr) + "\n").encode(),
    )


def is_sharded_dir(directory: Union[str, Path]) -> bool:
    """True when ``directory`` holds coordinated shard snapshot sets."""
    try:
        read_manifest(directory, "sharded")
    except ManifestError:
        return False
    return True


# ----------------------------------------------------------------------
# chain and retention policy
# ----------------------------------------------------------------------
#: hard ceiling on delta chain length: a delta that would chain deeper
#: is promoted to a full base even if ``delta_every`` has not come round
MAX_CHAIN_DEPTH = 64


def next_kind(config: Any, depth: Optional[int]) -> str:
    """What the next periodic snapshot (or coordinated set) is.

    ``"full"`` when ``config.delta_every`` is 0.  Otherwise ``"delta"``
    when the chain tip at ``depth`` can be extended inside
    ``delta_every`` and :data:`MAX_CHAIN_DEPTH`, else ``"base"``.
    ``depth`` is None when the writer has no tip it provably extends
    (a fresh, resumed or rolled-back state): its previous chain
    belongs to a state that can no longer be extended.
    """
    if not config.delta_every:
        return "full"
    if depth is None:
        return "base"
    depth += 1
    if depth >= config.delta_every or depth > MAX_CHAIN_DEPTH:
        return "base"
    return "delta"


def retire(
    entries: list,
    retain: int,
    is_delta: Callable[[Any], bool],
    keep: Callable[[list], bool] = lambda unit: False,
) -> Iterator[list]:
    """All-or-none retention over ``entries`` (oldest first).

    The prune unit is an entry plus the deltas listed right after it:
    a base and its chain live or die together, because unlinking the
    base would orphan every delta.  While more than ``retain`` entries
    are listed, the oldest unit leaves ``entries`` and is yielded --
    unless that would leave fewer than ``retain`` or ``keep(unit)``
    vetoes it.  The caller drops a yielded unit from any on-disk
    listing first and unlinks its files newest-first second, so a
    crash mid-prune leaves an intact chain prefix, never an entry
    pointing at a half-deleted unit.  ``retain=0`` keeps everything.
    """
    if not retain:
        return
    while len(entries) > retain:
        size = 1
        while size < len(entries) and is_delta(entries[size]):
            size += 1
        if len(entries) - size < retain:
            return     # pruning the whole chain would dip below retain
        unit = entries[:size]
        if keep(unit):
            return
        del entries[:size]
        yield unit


# ----------------------------------------------------------------------
# lineage and resumability
# ----------------------------------------------------------------------
def descendants(parent_of: dict[Any, Any], roots: Any) -> set[Any]:
    """Every child of ``parent_of`` (``{child: parent}``) whose parent
    chain passes through one of ``roots``, the roots excluded."""
    doomed = set(roots)
    while True:
        grown = {c for c, p in parent_of.items() if p in doomed} - doomed
        if not grown:
            return doomed - set(roots)
        doomed |= grown


def delta_parents(directory: Union[str, Path]) -> dict[str, str]:
    """``{delta file: parent file}`` over the readable
    ``*.delta.snap`` files of a single-machine directory (metadata
    reads only)."""
    parent_of = {}
    for path in Path(directory).glob("*.delta.snap"):
        try:
            parent = read_metadata(path).get("parent")
        except SnapshotError:
            continue
        if isinstance(parent, str):
            parent_of[path.name] = parent
    return parent_of


def classify_file(path: Path) -> dict[str, Any]:
    """Rate one ``*.snap`` file without touching its payload:
    ``{"name", "kind", "status", ...}`` with ``cycle``, ``chain_depth``,
    ``chain`` and ``error`` where they apply.  A base or delta is rated
    by its whole chain; any other readable snapshot is self-contained
    (the metadata read already verified both section checksums)."""
    entry: dict[str, Any] = {"name": path.name}
    try:
        meta = read_metadata(path)
    except SnapshotError as exc:
        entry.update(kind="unknown", status="damaged", error=str(exc))
        return entry
    kind = entry["kind"] = meta.get("kind", "full")
    if "cycle" in meta:
        entry["cycle"] = meta["cycle"]
    if kind not in ("base", "delta"):
        entry["status"] = "intact"
        return entry
    entry["chain_depth"] = meta.get("chain_depth", 0)
    status = chain_status(path)
    entry["status"] = status["status"]
    if status["chain"] is not None:
        entry["chain"] = status["chain"]
    if status["error"]:
        entry["error"] = status["error"]
    return entry


def classify_sets(
    directory: Union[str, Path],
    manifest: dict[str, Any],
    barred: Any = (),
) -> list[tuple[dict[str, Any], str, Optional[str]]]:
    """Rate every committed set of a sharded ``manifest``, oldest first,
    as ``(entry, status, error)``.

    ``quarantined``: listed under the manifest's ``"quarantined"`` (or
    its cycle is in ``barred``, the in-process healer's step-back);
    ``damaged``: a member file is missing; ``orphaned``: a delta set
    whose parent set is not intact; ``intact``: resumable.  Committing
    an entry makes a set visible, but only an intact chain makes it
    resumable.  Parents precede their children in the manifest, so one
    forward pass settles every chain.
    """
    directory = Path(directory)
    quarantined = {
        q.get("cycle")
        for q in manifest.get("quarantined", [])
        if isinstance(q, dict)
    }
    quarantined.update(barred)
    status_of: dict[Any, str] = {}
    out: list[tuple[dict[str, Any], str, Optional[str]]] = []
    for entry in manifest.get("coordinated", []):
        if not isinstance(entry, dict):
            continue
        cycle = entry.get("cycle")
        files = entry.get("files", [])
        missing = [n for n in files if not (directory / n).exists()]
        error = None
        if cycle in quarantined:
            status = "quarantined"
        elif missing or not files:
            status = "damaged"
            error = (
                f"committed set is missing member files: "
                f"{', '.join(missing) or '(no files listed)'}"
            )
        elif (entry.get("kind") == "delta"
              and status_of.get(entry.get("parent_cycle")) != "intact"):
            status = "orphaned"
            error = (
                "delta set's parent chain is incomplete (missing, "
                "quarantined or gutted ancestor set)"
            )
        else:
            status = "intact"
        status_of[cycle] = status
        out.append((entry, status, error))
    return out


def delta_parent_set(
    directory: Union[str, Path],
    entries: list[dict[str, Any]],
    quarantined: list[dict[str, Any]],
    cycle: int,
) -> dict[str, Any]:
    """The committed set a delta set at ``cycle`` chains on: the newest
    earlier of ``entries`` (oldest first), which must be a base or
    delta that :func:`classify_sets` rates intact -- the verdict resume
    and fsck read.  Only that set's chain is classified, from its base
    on, so the cost is bounded by :data:`MAX_CHAIN_DEPTH` sets, not by
    the directory.  Raises :class:`ChainBrokenError` otherwise: a delta
    set on an unresumable parent would be born unresumable."""
    chain: list[dict[str, Any]] = []
    for entry in reversed(entries):
        if entry.get("cycle", 0) >= cycle or (
                chain and entry.get("cycle") != chain[0].get("parent_cycle")):
            continue
        chain.insert(0, entry)
        if entry.get("kind") != "delta" or len(chain) > MAX_CHAIN_DEPTH:
            break
    why = "no chained parent set in the manifest"
    if chain and chain[-1].get("kind") in ("base", "delta"):
        parent, status, _error = classify_sets(
            directory, {"coordinated": chain, "quarantined": quarantined}
        )[-1]
        if status == "intact":
            return parent
        why = f"parent set at cycle {parent['cycle']} is {status}"
    raise ChainBrokenError(
        f"cannot commit coordinated delta set at cycle {cycle}: {why}",
        status="orphaned",
    )


def member_status(path: Path) -> Optional[str]:
    """The :func:`classify_sets` status of the committed set that
    lists shard file ``path``, or None when no committed set does (a
    crash landed between shard writes)."""
    try:
        manifest = read_manifest(path.parent, "sharded")
    except ManifestError:
        return None
    for entry, status, _error in classify_sets(path.parent, manifest):
        if path.name in entry.get("files", []):
            return status
    return None


def fsck_directory(directory: Union[str, Path]) -> dict[str, Any]:
    """Walk every snapshot chain in ``directory`` and report integrity.

    Returns ``{"directory", "ok", "files", "quarantined", "problems"}``
    plus ``"sets"`` for sharded directories.  ``ok`` is False when any
    live (non-quarantined) snapshot file or committed coordinated set
    is damaged or orphaned; already-quarantined material is listed but
    never fails the check -- it has been dealt with.  No payload is
    ever deserialized, so fsck is safe on untrusted directories.
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

    def problem(what: str, entry: dict[str, Any]) -> None:
        report["ok"] = False
        report["problems"].append(
            f"{what}: {entry['status']}"
            + (f" ({entry['error']})" if entry.get("error") else "")
        )

    for path in sorted(directory.glob("*.snap")):
        entry = classify_file(path)
        report["files"].append(entry)
        if entry["status"] != "intact":
            problem(entry["name"], entry)
    try:
        manifest = read_manifest(directory, "sharded")
    except ManifestError:
        return report   # single-machine (or record bundle) directory
    report["sets"] = []
    for entry, status, error in classify_sets(directory, manifest):
        row: dict[str, Any] = {
            "cycle": entry.get("cycle"),
            "kind": entry.get("kind", "full"),
            "files": len(entry.get("files", [])),
        }
        if "chain_depth" in entry:
            row["chain_depth"] = entry["chain_depth"]
        row["status"] = status
        if error:
            row["error"] = error
        report["sets"].append(row)
        if status not in ("intact", "quarantined"):
            problem(f"coordinated set at cycle {row['cycle']}", row)
    return report


# ----------------------------------------------------------------------
# resume point and quarantine
# ----------------------------------------------------------------------
#: snapshot name prefixes ranked for resume preference at equal cycles
_PREFIX_RANK = {"initial": 4, "ckpt": 3, "live": 2, "timeout": 1,
                "failure": 0}


def latest_snapshot(
    directory: Union[str, Path], include_failures: bool = False
) -> Optional[Path]:
    """The newest *resumable* snapshot in a single-machine directory.

    File names encode their cycle (``ckpt-<cycle>.snap``,
    ``live-<cycle>.snap``, ``timeout-<cycle>.snap``,
    ``failure-<cycle>.snap``; ``initial.snap`` is cycle 0), so no file
    needs to be opened to pick the resume point.

    Resume-from-directory wants the last *good* state: a
    ``failure-*.snap`` pins a machine that is already wedged, so
    resuming it would immediately re-fail.  By default only
    initial/periodic/live/timeout snapshots are considered -- a
    timed-out machine was still making progress and resumes usefully
    with a larger ``max_cycles`` -- and failure snapshots are loadable
    only when named explicitly (or with ``include_failures=True``).
    At equal cycles a periodic snapshot beats a live (out-of-band) one
    beats a timeout one beats a failure one.  Quarantined snapshots
    (renamed ``*.snap.poisoned``) no longer match the glob, and the
    members of a coordinated set (``.shard<k>`` kind suffix) are never
    candidates.

    Delta-mode periodic snapshots rank exactly like classic ones, but
    a delta is only a resume point if its whole chain is intact: a
    chain-broken delta is skipped and the next-newest candidate wins --
    stepping back to the last good base instead of handing resume a
    poisoned chain.
    """
    directory = Path(directory)
    candidates: list[tuple[int, int, str, Path]] = []
    for path in directory.glob("*.snap"):
        stem = path.stem
        if stem == "initial":
            key = (0, _PREFIX_RANK["initial"])
        else:
            prefix, _, rest = stem.partition("-")
            cycle, _, kind = rest.partition(".")
            if prefix not in _PREFIX_RANK or not cycle.isdigit():
                continue
            if kind not in ("", "base", "delta"):
                continue      # e.g. one member of a coordinated set
            if prefix == "failure" and not include_failures:
                continue
            key = (int(cycle), _PREFIX_RANK[prefix])
        candidates.append((*key, path.name, path))
    for *_key, _name, path in sorted(candidates, reverse=True):
        if (path.name.endswith(".delta.snap")
                and chain_status(path)["status"] != "intact"):
            continue
        return path
    return None


@dataclass(frozen=True)
class ResumePoint:
    """Where a resumed run starts: one snapshot file of a single-machine
    directory, or one committed coordinated set of a sharded one.
    ``files`` is empty when the directory holds nothing resumable."""

    directory: Path
    sharded: bool
    files: tuple[str, ...] = ()
    #: the set's barrier cycle (sharded points only)
    cycle: Optional[int] = None
    #: the sharded manifest the point was found in
    manifest: Optional[dict[str, Any]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def name(self) -> str:
        """What the supervisor keys strikes by and reports: the
        snapshot file name, or ``coordinated-set-<cycle>``."""
        if self.sharded:
            return f"coordinated-set-{self.cycle:012d}"
        return self.files[0]

    @property
    def path(self) -> Path:
        """The file a single-machine resume loads, or the directory
        itself when it holds none (the loader then says why)."""
        if not self.files:
            return self.directory
        return self.directory / self.files[0]


def resume_point(
    source: Union[str, Path], barred: Any = ()
) -> ResumePoint:
    """The newest resumable point of ``source``, of either kind.

    A sharded directory resumes from its newest intact committed set
    (cycles in ``barred`` are skipped like quarantined ones); any other
    directory from :func:`latest_snapshot`; a snapshot file is its own
    resume point.
    """
    source = Path(source)
    if source.is_file():
        return ResumePoint(source.parent, False, (source.name,))
    if not is_sharded_dir(source):
        path = latest_snapshot(source)
        return ResumePoint(source, False, (path.name,) if path else ())
    manifest = read_manifest(source, "sharded")
    for entry, status, _error in reversed(
        classify_sets(source, manifest, barred)
    ):
        if status == "intact":
            return ResumePoint(source, True, tuple(entry["files"]),
                               entry["cycle"], manifest)
    return ResumePoint(source, True, manifest=manifest)


def quarantine(point: ResumePoint, reason: str) -> list[str]:
    """Quarantine ``point`` with everything chained on it.

    Every file goes to ``<name>.poisoned``, so no resume point is
    found in it again, and is recorded under the manifest's
    ``"quarantined"`` list for forensics.  A coordinated set goes with
    every delta set chained on it, a snapshot file with every on-disk
    delta whose chain passes through it: neither can reach a trusted
    base any more.  A single-machine directory without a manifest gets
    a minimal one; an unreadable one is left as it is -- quarantine
    never destroys evidence.  Returns the renamed file names.
    """
    directory = point.directory
    manifest: Optional[dict[str, Any]]
    if point.sharded:
        manifest = read_manifest(directory, "sharded")
        entries = [e for e in manifest.get("coordinated", [])
                   if isinstance(e, dict)]
        doomed = {point.cycle} | descendants(
            {e.get("cycle"): e.get("parent_cycle") for e in entries},
            [point.cycle],
        )
        names = [n for e in entries if e.get("cycle") in doomed
                 for n in e.get("files", [])]
        already = {q.get("cycle") for q in manifest.get("quarantined", [])
                   if isinstance(q, dict)}
        records = [{"cycle": point.cycle, "reason": reason}] + [
            {"cycle": child, "reason": f"delta set chained on quarantined "
             f"set at cycle {point.cycle}"}
            for child in sorted(doomed - {point.cycle})
            if child not in already
        ]
    else:
        names = [point.name] + sorted(
            descendants(delta_parents(directory), [point.name])
        )
        records = [
            {"snapshot": n, "reason": reason if n == point.name
             else f"delta chained on quarantined {point.name}"}
            for n in names
        ]
        try:
            manifest = read_manifest(directory, "update",
                                     default={"schema": MANIFEST_SCHEMA})
        except ManifestError:
            manifest = None
    renamed = []
    for name in names:
        path = directory / name
        if path.exists():
            path.rename(path.with_name(name + ".poisoned"))
            renamed.append(name)
    if manifest is not None:
        manifest.setdefault("quarantined", []).extend(records)
        write_manifest(directory, manifest)
    return renamed

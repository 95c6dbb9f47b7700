"""Crash-consistent, versioned, checksummed machine snapshots.

A snapshot file carries one serialized :class:`repro.machine.Machine`
mid-run -- event heap, operand registers, retransmission queues,
sequence numbers, fault-plan RNG cursor, unit health and statistics --
wrapped in a self-describing **format v2** envelope:

====== ======= ====================================================
offset size    field
====== ======= ====================================================
0      8       magic ``b"RPROSNAP"``
8      4       format version (big-endian; currently 2)
12     8       metadata length in bytes (big-endian)
20     32      SHA-256 of the metadata section
52     8       payload length in bytes (big-endian)
60     32      SHA-256 of the payload
92     m       metadata: UTF-8 JSON object (format/code version,
               workload id, cycle, reason, run statistics)
92+m   n       payload: pickled ``{"machine", "cycle", "reason"}``
====== ======= ====================================================

The metadata section is plain JSON and is readable (and checksum
verifiable) without deserializing any machine state --
:func:`read_metadata` and ``repro snapshot inspect`` never touch the
payload.  The payload itself is decoded through a **restricted
unpickler**: only an explicit allowlist of state-bearing ``repro``
classes plus a short allowlist of stdlib container types may be
referenced; any other global (``os.system``, ``builtins.eval``, a
dotted attribute chain, a ``repro`` module-level *function* such as
``repro.cli.main``) raises a typed
:class:`~repro.errors.SnapshotError` *before* any object is
constructed.  Snapshots therefore no longer need to be treated as a
trusted format -- hostile or stale bytes fail closed.

The envelope is validated (magic, version, lengths, both checksums)
before any decoding, so a truncated, corrupted or foreign file raises
a typed :class:`~repro.errors.SnapshotError` instead of a pickle
crash.  Writes go to a temporary file in the target directory, are
fsynced, and are published with an atomic ``os.replace`` -- a snapshot
either exists completely or not at all.

This build reads formats v2 and v3.  Format v1 files (the pre-v2
layout: a 52-byte header over an unrestricted pickle) are recognised
by their magic and refused by their version number, before any
payload byte is decoded.

**Format v3: delta snapshots.**  When delta mode is on
(``CheckpointConfig.delta_every > 0``) periodic snapshots form
*chains*: a full **base** (``ckpt-*.base.snap``, ordinary v2 payload)
followed by **deltas** (``ckpt-*.delta.snap``, header version 3, same
header layout) that carry only the state *sections* whose pickled
bytes changed since the previous link.  A delta's metadata names its
``parent`` file, the parent's payload SHA-256 as ``parent_checksum``
and its own ``chain_depth``; :func:`verify_chain` walks those links
with envelope/metadata reads only (no payload is ever unpickled) and
raises a typed :class:`~repro.errors.ChainBrokenError` on a missing,
damaged or checksum-mismatched ancestor *before* any object is
constructed.  The delta payload is a pickled plain-data dict
``{"delta": True, "cycle", "reason", "sections": {key: bytes},
"removed": [key...]}``; each section blob decodes through the same
restricted unpickler and is applied to the base machine by
``Machine.apply_snapshot_sections``.  :func:`rebase_snapshot`
collapses a chain tip back into a standalone v2 base.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Any, Optional, Union

from ..errors import ChainBrokenError, SnapshotError

MAGIC = b"RPROSNAP"
FORMAT_VERSION = 2
#: delta snapshots: same header layout as v2, but the payload holds
#: only the state sections that changed since the parent link
DELTA_VERSION = 3

#: v2: magic(8s) + version(I) + meta len(Q) + meta sha256(32s)
#:     + payload length(Q) + payload sha256(32s)
_HEADER = struct.Struct(">8sIQ32sQ32s")
#: magic(8s) + version(I): enough to name the format (or refuse it)
_PREFIX = struct.Struct(">8sI")


# ----------------------------------------------------------------------
# restricted unpickling
# ----------------------------------------------------------------------
#: stdlib globals a machine pickle may legitimately reference.  The
#: set is deliberately tiny -- container types and the seeded RNG --
#: and was derived by enumerating ``find_class`` calls over real
#: snapshots of every paper-figure workload.
_STDLIB_ALLOWLIST: dict[str, frozenset[str]] = {
    "builtins": frozenset(
        {"set", "frozenset", "complex", "bytearray", "range", "slice",
         "object"}
    ),
    "collections": frozenset({"deque", "OrderedDict", "Counter"}),
    "random": frozenset({"Random"}),
}

#: ``repro`` globals a machine pickle may legitimately reference: the
#: state-bearing classes of a serialized machine, pinned per defining
#: module.  Derived the same way as the stdlib list -- by enumerating
#: ``find_class`` calls over real snapshots of every paper-figure
#: workload (initial, mid-run, timeout and failure states, with and
#: without fault plans and record mode).  Pinning names, rather than
#: admitting anything importable from ``repro.*``, keeps module-level
#: *functions* out of reach: pickle's ``REDUCE`` opcode calls whatever
#: ``find_class`` returns with arguments taken from the stream, so
#: admitting e.g. ``repro.cli.main`` would hand a checksummed-but-
#: hostile file arbitrary code execution.
_REPRO_ALLOWLIST: dict[str, frozenset[str]] = {
    "repro.checkpoint.manager": frozenset(
        {"CheckpointConfig", "CheckpointManager"}
    ),
    "repro.checkpoint.replay": frozenset({"EventTrace"}),
    "repro.faults.injector": frozenset({"FaultInjector", "FaultStats"}),
    "repro.faults.plan": frozenset(
        {"FaultPlan", "ShardFault", "UnitFault"}
    ),
    "repro.graph.cell": frozenset({"Arc", "Cell", "_NoTokenType"}),
    "repro.graph.graph": frozenset({"DataflowGraph"}),
    "repro.graph.opcodes": frozenset({"Op"}),
    "repro.machine.config": frozenset({"MachineConfig"}),
    "repro.machine.machine": frozenset(
        {"Machine", "_CellState", "_UnitState"}
    ),
    "repro.machine.sharded": frozenset({"ShardMachine"}),
    "repro.machine.packets": frozenset({"PacketCounters"}),
    "repro.machine.stats": frozenset(
        {"CheckpointStats", "ReliabilityStats"}
    ),
}


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that refuses every global outside the allowlists.

    ``find_class`` is the only gate through which a pickle stream can
    reach callables, so rejecting here stops gadget payloads
    (``os.system``, ``builtins.eval``, ``repro.cli.main``, ...) before
    any object is constructed.  Dotted names are rejected outright:
    protocol-4 ``STACK_GLOBAL`` resolves them with a ``getattr``
    chain, which would let ``("repro.checkpoint.snapshot",
    "os.system")`` escape a plain module prefix check.  Whatever an
    allowlisted name resolves to must additionally be a *class*
    defined in its allowlist's package -- a function (or a module
    rebound over an allowlisted name) executes under ``REDUCE``
    instead of merely constructing state, so non-classes are refused
    even if a future allowlist edit names one by mistake.
    """

    def find_class(self, module: str, name: str) -> Any:
        if "." in name:
            raise SnapshotError(
                f"snapshot payload references dotted global "
                f"{module}.{name}; refusing to traverse attributes"
            )
        allowed = _REPRO_ALLOWLIST.get(module, _STDLIB_ALLOWLIST.get(module))
        if allowed is None or name not in allowed:
            raise SnapshotError(
                f"snapshot payload references forbidden global "
                f"{module}.{name}; only allowlisted repro state classes "
                f"and stdlib containers may appear in a snapshot"
            )
        obj = super().find_class(module, name)
        if not isinstance(obj, type):
            raise SnapshotError(
                f"snapshot payload references {module}.{name}, which is "
                f"not a class; refusing a callable that REDUCE would "
                f"invoke"
            )
        if (module in _REPRO_ALLOWLIST
                and getattr(obj, "__module__", "").split(".")[0] != "repro"):
            raise SnapshotError(
                f"snapshot payload references {module}.{name}, which "
                f"is not defined inside the repro package"
            )
        return obj


def _restricted_loads(payload: bytes, where: str) -> Any:
    try:
        return _RestrictedUnpickler(io.BytesIO(payload)).load()
    except SnapshotError:
        raise
    except Exception as exc:   # checksummed yet undecodable: version skew
        raise SnapshotError(f"{where} cannot be deserialized: {exc}") from exc


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------
def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` with write-then-rename atomicity.

    The temporary sibling gets a unique per-writer name (via
    ``tempfile.mkstemp``), so two processes checkpointing into the same
    directory never clobber each other's in-flight temp file; the loser
    of the final ``os.replace`` race simply has its complete snapshot
    superseded by the winner's complete snapshot.
    """
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dirfd = os.open(path.parent, os.O_RDONLY)
    except OSError:         # platform without directory fds
        return
    try:
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def snapshot_metadata(machine: Any, reason: str = "periodic") -> dict[str, Any]:
    """The self-describing JSON metadata section for one snapshot.

    Everything here is derivable without the payload, deliberately
    free of wall-clock timestamps (snapshots of identical machine
    states are byte-identical), and safe to show for an untrusted
    file -- ``repro snapshot inspect`` prints exactly this.
    """
    from .. import __version__

    stats: dict[str, Any] = {
        "events_pending": len(getattr(machine, "_events", ())),
        "progress": getattr(machine, "_progress", 0),
    }
    sink_progress = getattr(machine, "_sink_progress", None)
    if callable(sink_progress):
        stats["sinks"] = {
            stream: list(pair) for stream, pair in sink_progress().items()
        }
    ckpt = getattr(machine, "ckpt", None)
    if ckpt is not None:
        stats["snapshots_written"] = ckpt.stats.snapshots_written
    meta = {
        "format": FORMAT_VERSION,
        "code_version": __version__,
        "workload": getattr(machine, "workload_id", None),
        "cycle": machine.now,
        "reason": reason,
        "stats": stats,
    }
    shard = getattr(machine, "shard_index", None)
    if shard is not None:
        # one member of a coordinated shard set: resumable only as a
        # complete set through the coordinated manifest
        meta["shard"] = shard
        meta["shards"] = getattr(machine, "n_shards", None)
    return meta


def _pack_envelope(
    meta: dict[str, Any], payload: bytes, version: int = FORMAT_VERSION
) -> bytes:
    meta_bytes = json.dumps(meta, sort_keys=True, default=repr).encode("utf-8")
    header = _HEADER.pack(
        MAGIC,
        version,
        len(meta_bytes),
        hashlib.sha256(meta_bytes).digest(),
        len(payload),
        hashlib.sha256(payload).digest(),
    )
    return header + meta_bytes + payload


def snapshot_bytes(
    machine: Any,
    reason: str = "periodic",
    extra: Optional[dict[str, Any]] = None,
    meta_extra: Optional[dict[str, Any]] = None,
) -> bytes:
    """Serialize ``machine`` into the v2 snapshot envelope.

    ``extra`` rides along in the payload (same restricted-unpickler
    rules apply on load); the coordinated sharded checkpoint stores
    each shard's in-flight channel state there.  ``meta_extra`` merges
    additional keys into the JSON metadata section (the chain writer
    stamps ``kind``/``chain_depth`` there).
    """
    data: dict[str, Any] = {
        "machine": machine, "cycle": machine.now, "reason": reason,
    }
    if extra is not None:
        data["extra"] = extra
    payload = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
    meta = snapshot_metadata(machine, reason)
    if meta_extra:
        meta.update(meta_extra)
    return _pack_envelope(meta, payload)


def save_snapshot(
    machine: Any,
    path: Union[str, Path],
    reason: str = "periodic",
    extra: Optional[dict[str, Any]] = None,
) -> Path:
    """Atomically write one snapshot of ``machine`` and return its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, snapshot_bytes(machine, reason, extra=extra))
    return path


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def _read_raw(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise SnapshotError(f"snapshot {path} does not exist") from None
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc


def _split_envelope(path: Path, raw: bytes) -> tuple[int, bytes, bytes]:
    """Validate the envelope and return ``(version, meta_bytes,
    payload)``.

    Every check here runs before any JSON or pickle decoding: magic,
    version (a v1 file stops here), section lengths (no truncation, no
    trailing garbage) and both SHA-256 checksums.
    """
    if len(raw) < _PREFIX.size:
        raise SnapshotError(
            f"snapshot {path} is truncated: {len(raw)} bytes is shorter "
            f"than the {_PREFIX.size}-byte magic and version"
        )
    magic, version = _PREFIX.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotError(f"{path} is not a repro snapshot (bad magic)")
    if version not in (FORMAT_VERSION, DELTA_VERSION):
        raise SnapshotError(
            f"snapshot {path} has format version {version}; this build "
            f"reads versions {FORMAT_VERSION} and {DELTA_VERSION}"
        )
    if len(raw) < _HEADER.size:
        raise SnapshotError(
            f"snapshot {path} is truncated: {len(raw)} bytes is shorter "
            f"than the {_HEADER.size}-byte header"
        )
    (_, _, meta_len, meta_digest, payload_len, payload_digest) = (
        _HEADER.unpack_from(raw)
    )
    expected = _HEADER.size + meta_len + payload_len
    if len(raw) != expected:
        raise SnapshotError(
            f"snapshot {path} is damaged: header promises {expected} "
            f"bytes total, file holds {len(raw)}"
        )
    meta_bytes = raw[_HEADER.size:_HEADER.size + meta_len]
    payload = raw[_HEADER.size + meta_len:]
    if hashlib.sha256(meta_bytes).digest() != meta_digest:
        raise SnapshotError(
            f"snapshot {path} failed its metadata checksum: the file is "
            f"corrupted"
        )
    if hashlib.sha256(payload).digest() != payload_digest:
        raise SnapshotError(
            f"snapshot {path} failed its payload checksum: the file is "
            f"corrupted"
        )
    return version, meta_bytes, payload


def _decode_meta(path: Path, meta_bytes: bytes) -> dict[str, Any]:
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(
            f"snapshot {path} has an unreadable metadata section: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise SnapshotError(
            f"snapshot {path} metadata is not a JSON object"
        )
    return meta


def read_metadata(path: Union[str, Path]) -> dict[str, Any]:
    """Read a snapshot's self-describing metadata without deserializing
    any machine state.

    Returns the embedded JSON metadata section (with ``"checksum":
    "ok"`` added -- both section checksums are verified on the way).
    The payload is never unpickled, so this is safe on untrusted files.
    """
    path = Path(path)
    raw = _read_raw(path)
    _version, meta_bytes, payload = _split_envelope(path, raw)
    meta = _decode_meta(path, meta_bytes)
    meta["payload_bytes"] = len(payload)
    meta["checksum"] = "ok"
    return meta


def read_snapshot(path: Union[str, Path]) -> dict[str, Any]:
    """Validate and deserialize one snapshot file into its payload dict.

    Raises :class:`SnapshotError` for every damage mode: missing file,
    bad magic, unsupported format version, truncation, trailing
    garbage, checksum mismatch on either section, undecodable
    metadata, or a payload that references any global outside the
    restricted-unpickler allowlist.  The returned dict carries the
    payload fields (``machine``, ``cycle``, ``reason``) plus the
    metadata section under ``"meta"``.
    """
    path = Path(path)
    raw = _read_raw(path)
    version, meta_bytes, payload = _split_envelope(path, raw)
    if version == DELTA_VERSION:
        raise SnapshotError(
            f"snapshot {path} is a v3 delta: it only carries state that "
            f"changed since its parent; load it through load_machine / "
            f"`repro resume`, which reconstructs it through its chain"
        )
    meta = _decode_meta(path, meta_bytes)
    data = _restricted_loads(payload, f"snapshot {path}")
    if not isinstance(data, dict) or "machine" not in data:
        raise SnapshotError(f"snapshot {path} has an unexpected payload")
    data["meta"] = meta
    return data


def snapshot_cycle(path: Union[str, Path]) -> int:
    """The cycle a snapshot was taken at, read from its metadata
    section (no payload deserialization)."""
    try:
        return int(read_metadata(path)["cycle"])
    except (KeyError, TypeError, ValueError):
        raise SnapshotError(
            f"snapshot {path} metadata carries no usable cycle"
        ) from None


# ----------------------------------------------------------------------
# delta chains (format v3)
# ----------------------------------------------------------------------
def _section_blobs(machine: Any) -> dict[str, bytes]:
    """Pickle each addressable state section of ``machine`` separately.

    The blobs serve double duty: their SHA-256 digests are the dirty
    tracking (a section is dirty iff its bytes changed since the chain
    tip), and the dirty blobs themselves *are* the delta payload -- so
    digest and stored bytes can never disagree.
    """
    sections = machine.snapshot_sections()
    return {
        key: pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        for key, value in sections.items()
    }


def write_chain_snapshot(
    machine: Any,
    path: Union[str, Path],
    reason: str = "periodic",
    *,
    kind: str,
    extra: Optional[dict[str, Any]] = None,
) -> Path:
    """Atomically write one link of a delta chain and advance the
    machine's in-memory chain tip.

    ``kind="base"`` writes an ordinary full v2 snapshot (payload
    identical to :func:`save_snapshot`) that starts a new chain;
    ``kind="delta"`` writes a v3 file carrying only the sections whose
    pickled bytes differ from the tip recorded at the previous link.
    The tip (``machine._snap_chain``) is deliberately *not* serialized
    into snapshots (see ``Machine.__getstate__``): any resumed or
    rolled-back machine starts a fresh chain with a full base, so a
    delta can never chain onto state the writer did not itself emit.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blobs = _section_blobs(machine)
    digests = {
        key: hashlib.sha256(blob).hexdigest() for key, blob in blobs.items()
    }
    if kind == "base":
        data = snapshot_bytes(
            machine, reason, extra=extra,
            meta_extra={"kind": "base", "chain_depth": 0},
        )
        meta_len = _HEADER.unpack_from(data)[2]
        payload = data[_HEADER.size + meta_len:]
        depth = 0
    elif kind == "delta":
        tip = getattr(machine, "_snap_chain", None)
        if tip is None:
            raise SnapshotError(
                "cannot write a delta snapshot: this machine has no "
                "chain tip (write a base first; resumed and rolled-back "
                "machines always restart their chain)"
            )
        changed = {
            key: blob
            for key, blob in blobs.items()
            if digests[key] != tip["digests"].get(key)
        }
        removed = sorted(k for k in tip["digests"] if k not in digests)
        body: dict[str, Any] = {
            "delta": True,
            "cycle": machine.now,
            "reason": reason,
            "sections": changed,
            "removed": removed,
        }
        if extra is not None:
            body["extra"] = extra
        payload = pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
        depth = int(tip["depth"]) + 1
        meta = snapshot_metadata(machine, reason)
        meta.update(
            format=DELTA_VERSION,
            kind="delta",
            parent=tip["name"],
            parent_checksum=tip["checksum"],
            chain_depth=depth,
        )
        data = _pack_envelope(meta, payload, version=DELTA_VERSION)
    else:
        raise SnapshotError(f"unknown chain snapshot kind {kind!r}")
    _atomic_write(path, data)
    machine._snap_chain = {
        "digests": digests,
        "name": path.name,
        "checksum": hashlib.sha256(payload).hexdigest(),
        "depth": depth,
    }
    return path


#: hard bound on chain walks; real chains are forced to rebase at
#: ``max_chain_depth`` long before this
_CHAIN_WALK_LIMIT = 10_000


def verify_chain(path: Union[str, Path]) -> list[Path]:
    """Verify a snapshot's parent chain and return it base-first.

    Walks ``parent``/``parent_checksum`` links from ``path`` down to a
    full base using envelope and metadata reads only -- **no payload
    is ever deserialized** -- re-verifying each ancestor's envelope
    checksums and matching its payload SHA-256 against the checksum
    its child recorded.  Raises :class:`ChainBrokenError`
    (``status="orphaned"`` for a missing parent, ``"damaged"`` for
    everything else) on any break, or a plain :class:`SnapshotError`
    if ``path`` itself is unreadable.  For a standalone snapshot the
    chain is just ``[path]``.
    """
    path = Path(path)
    raw = _read_raw(path)
    _version, meta_bytes, _payload = _split_envelope(path, raw)
    meta = _decode_meta(path, meta_bytes)
    chain = [path]
    seen = {path.name}
    while meta.get("kind") == "delta":
        child = chain[0]
        parent_name = meta.get("parent")
        want = meta.get("parent_checksum")
        depth = meta.get("chain_depth")
        if (not isinstance(parent_name, str) or not parent_name
                or not isinstance(want, str)):
            raise ChainBrokenError(
                f"delta snapshot {child} names no parent/parent_checksum; "
                f"its chain cannot be verified"
            )
        if os.sep in parent_name or parent_name in (".", ".."):
            raise ChainBrokenError(
                f"delta snapshot {child} names a parent outside its own "
                f"directory ({parent_name!r}); refusing to follow it"
            )
        if parent_name in seen or len(chain) > _CHAIN_WALK_LIMIT:
            raise ChainBrokenError(
                f"delta snapshot {path} has a cyclic or unbounded parent "
                f"chain at {parent_name!r}"
            )
        parent = child.parent / parent_name
        if not parent.exists():
            quarantined = parent.with_name(parent.name + ".poisoned")
            hint = (
                " (a quarantined copy exists)" if quarantined.exists() else ""
            )
            raise ChainBrokenError(
                f"delta snapshot {child} is orphaned: parent "
                f"{parent_name} is missing{hint}; the chain cannot be "
                f"resumed",
                status="orphaned",
            )
        praw = _read_raw(parent)
        try:
            _, pmeta_bytes, ppayload = _split_envelope(parent, praw)
        except SnapshotError as exc:
            raise ChainBrokenError(
                f"delta snapshot {child} has a damaged ancestor: {exc}"
            ) from exc
        if hashlib.sha256(ppayload).hexdigest() != want:
            raise ChainBrokenError(
                f"delta snapshot {child} records parent_checksum "
                f"{want[:12]}... but {parent_name}'s payload hashes "
                f"differently: the parent was rewritten or the link was "
                f"tampered with"
            )
        pmeta = _decode_meta(parent, pmeta_bytes)
        pdepth = pmeta.get("chain_depth", 0)
        if isinstance(depth, int) and pdepth != depth - 1:
            raise ChainBrokenError(
                f"delta snapshot {child} claims chain depth {depth} but "
                f"parent {parent_name} sits at depth {pdepth}; the chain "
                f"metadata is inconsistent"
            )
        chain.insert(0, parent)
        seen.add(parent_name)
        meta = pmeta
    return chain


def chain_status(path: Union[str, Path]) -> dict[str, Any]:
    """Classify a snapshot's chain without touching any payload:
    ``{"status": "intact"|"orphaned"|"damaged", "chain": [names...] or
    None, "error": str or None}``."""
    try:
        chain = verify_chain(path)
    except ChainBrokenError as exc:
        return {"status": exc.status, "chain": None, "error": str(exc)}
    except SnapshotError as exc:
        return {"status": "damaged", "chain": None, "error": str(exc)}
    return {
        "status": "intact",
        "chain": [p.name for p in chain],
        "error": None,
    }


def chain_descendants(
    directory: Union[str, Path], name: str
) -> list[str]:
    """File names of every on-disk delta whose parent chain passes
    through ``name`` -- the unit the supervisor quarantines together
    with a poisoned snapshot (metadata reads only)."""
    directory = Path(directory)
    parent_of: dict[str, str] = {}
    for path in directory.glob("*.snap"):
        try:
            meta = read_metadata(path)
        except SnapshotError:
            continue
        parent = meta.get("parent")
        if meta.get("kind") == "delta" and isinstance(parent, str):
            parent_of[path.name] = parent
    doomed = {name}
    out: list[str] = []
    changed = True
    while changed:
        changed = False
        for child, parent in parent_of.items():
            if parent in doomed and child not in doomed:
                doomed.add(child)
                out.append(child)
                changed = True
    return sorted(out)


def _read_delta(path: Path) -> tuple[dict[str, Any], dict[str, Any]]:
    """Decode one verified v3 delta file into ``(meta, body)``.

    The outer payload is plain data (dict/str/bytes) but still decodes
    through the restricted unpickler; the per-section blobs inside are
    decoded separately by the chain loader.
    """
    raw = _read_raw(path)
    version, meta_bytes, payload = _split_envelope(path, raw)
    if version != DELTA_VERSION:
        raise SnapshotError(f"snapshot {path} is not a v3 delta")
    meta = _decode_meta(path, meta_bytes)
    body = _restricted_loads(payload, f"delta snapshot {path}")
    if (
        not isinstance(body, dict)
        or body.get("delta") is not True
        or not isinstance(body.get("sections"), dict)
        or not all(
            isinstance(k, str) and isinstance(v, bytes)
            for k, v in body["sections"].items()
        )
        or not isinstance(body.get("removed", []), list)
    ):
        raise SnapshotError(
            f"delta snapshot {path} has an unexpected payload shape"
        )
    return meta, body


def _load_chain(path: Path) -> tuple[Any, Any]:
    """Reconstruct ``(machine, extra)`` from a delta chain tip.

    The chain is fully verified (:func:`verify_chain`) before any
    payload is unpickled; the base machine then has each delta's dirty
    sections applied in order.  ``extra`` (a shard snapshot's channel
    state) comes from the newest link that carries one.
    """
    chain = verify_chain(path)
    data = read_snapshot(chain[0])
    machine = data["machine"]
    extra = data.get("extra")
    for link in chain[1:]:
        _meta, body = _read_delta(link)
        sections = {
            key: _restricted_loads(
                blob, f"delta snapshot {link} section {key!r}"
            )
            for key, blob in body["sections"].items()
        }
        apply = getattr(machine, "apply_snapshot_sections", None)
        if apply is None:
            raise SnapshotError(
                f"snapshot {chain[0]} holds a "
                f"{type(machine).__name__}, which does not support "
                f"delta sections"
            )
        apply(sections, body.get("removed", ()))
        if "extra" in body:
            extra = body["extra"]
    return machine, extra


def rebase_snapshot(path: Union[str, Path]) -> Path:
    """Collapse a delta chain tip into a standalone full base.

    The chain is verified and replayed into a machine, which is then
    rewritten as an ordinary v2 base snapshot (``*.base.snap``); the
    delta file is removed afterwards, so a crash in between leaves
    both resumable.  Refuses (typed) if another on-disk delta lists
    ``path`` as its parent -- rebasing a mid-chain link would orphan
    its descendants.
    """
    path = Path(path)
    meta = read_metadata(path)
    if meta.get("kind") != "delta":
        raise SnapshotError(
            f"{path} is not a delta snapshot (kind="
            f"{meta.get('kind', 'full')!r}); only deltas can be rebased"
        )
    for sibling in sorted(path.parent.glob("*.snap")):
        if sibling == path:
            continue
        try:
            smeta = read_metadata(sibling)
        except SnapshotError:
            continue
        if smeta.get("kind") == "delta" and smeta.get("parent") == path.name:
            raise SnapshotError(
                f"cannot rebase {path.name}: {sibling.name} lists it as "
                f"parent and would be orphaned; rebase the chain tip "
                f"instead"
            )
    machine, extra = _load_chain(path)
    if path.name.endswith(".delta.snap"):
        new_path = path.with_name(
            path.name[: -len(".delta.snap")] + ".base.snap"
        )
    else:
        new_path = path       # coordinated shard member: same name
    _atomic_write(
        new_path,
        snapshot_bytes(
            machine, "rebase", extra=extra,
            meta_extra={"kind": "base", "chain_depth": 0},
        ),
    )
    if new_path != path:
        path.unlink(missing_ok=True)
    return new_path


#: snapshot name prefixes ranked for resume preference at equal cycles
_PREFIX_RANK = {"initial": 4, "ckpt": 3, "live": 2, "timeout": 1,
                "failure": 0}


def latest_snapshot(
    directory: Union[str, Path], include_failures: bool = False
) -> Optional[Path]:
    """The newest *resumable* snapshot in a checkpoint directory.

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
    (renamed ``*.snap.poisoned`` by the supervisor) no longer match
    the glob and are skipped naturally.

    Delta-mode periodic snapshots (``ckpt-<cycle>.base.snap`` /
    ``ckpt-<cycle>.delta.snap``) rank exactly like classic ones, but a
    delta is only a resume point if its whole parent chain verifies
    (:func:`verify_chain`): a chain-broken delta is skipped and the
    next-newest intact candidate wins -- stepping back to the last
    good base instead of handing resume a poisoned chain.
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
        if path.name.endswith(".delta.snap"):
            try:
                verify_chain(path)
            except SnapshotError:
                continue      # broken chain: not a resume point
        return path
    return None


@contextlib.contextmanager
def _gc_paused():
    """Keep the cyclic collector off while a machine is materialised.

    Unpickling or building a wide machine allocates ~10^5 containers
    that all stay alive; the generation-2 passes those allocations
    trigger walk every one of them and free nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_gc_paused()
def load_machine(
    source: Union[str, Path],
    expected_cls: Optional[type] = None,
    with_extra: bool = False,
) -> Any:
    """Load the machine held by a snapshot file or checkpoint directory.

    The deserialized event heap is checked against the machine's event
    vocabulary so a tampered payload cannot smuggle handler names in.
    A v3 delta file is reconstructed through
    its verified parent chain (:func:`verify_chain` runs first, so a
    broken chain raises :class:`ChainBrokenError` before any payload
    is deserialized).  With ``with_extra=True`` the return value is
    ``(machine, extra)`` where ``extra`` is the payload's side channel
    (e.g. a shard snapshot's in-flight messages) or ``None``.
    """
    path = Path(source)
    if path.is_dir():
        found = latest_snapshot(path)
        if found is None:
            failures = sorted(p.name for p in path.glob("failure-*.snap"))
            if failures:
                raise SnapshotError(
                    f"no resumable snapshots in directory {path}; it only "
                    f"holds failure snapshots ({', '.join(failures)}), "
                    f"which pin an already-wedged machine -- name one "
                    f"explicitly to load it for forensics"
                )
            raise SnapshotError(f"no snapshots in directory {path}")
        path = found
    raw = _read_raw(path)
    if (
        len(raw) >= _PREFIX.size
        and _PREFIX.unpack_from(raw) == (MAGIC, DELTA_VERSION)
    ):
        machine, chain_extra = _load_chain(path)
        data = {"machine": machine}
        if chain_extra is not None:
            data["extra"] = chain_extra
    else:
        data = read_snapshot(path)
        machine = data["machine"]
    if expected_cls is not None and not isinstance(machine, expected_cls):
        raise SnapshotError(
            f"snapshot {path} holds a {type(machine).__name__}, "
            f"not a {expected_cls.__name__}"
        )
    kinds = getattr(type(machine), "_EVENT_KINDS", frozenset())
    for _time, _seq, kind, _args, _aux in getattr(machine, "_events", []):
        if kind not in kinds:
            raise SnapshotError(
                f"snapshot {path} schedules unknown event kind {kind!r}"
            )
    # machines pickled by builds that predate out-of-band snapshots
    # lack the request queue; backfill so the event loop can run them
    machine.__dict__.setdefault("_snap_requests", [])
    # the chain tip is never serialized: every loaded machine starts a
    # fresh chain, so its first delta-mode snapshot is a full base
    machine.__dict__.setdefault("_snap_chain", None)
    if with_extra:
        extra = data.get("extra")
        return machine, extra if isinstance(extra, dict) else None
    return machine

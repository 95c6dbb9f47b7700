"""Durable file writes: checkpoint snapshots and manifests, and the
serve daemon's restart state, publish every file through
:func:`atomic_write`."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` with write-then-rename atomicity.

    The temporary sibling gets a unique per-writer name (via
    ``tempfile.mkstemp``), so two processes writing into the same
    directory never clobber each other's in-flight temp file; the loser
    of the final ``os.replace`` race simply has its complete file
    superseded by the winner's complete file.
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

"""Serve worker: the child process that actually runs jobs.

The pool starts it as a fresh interpreter (``python -m
repro.serve.worker``, :meth:`repro.workers.Worker.exec`), and
:func:`repro.workers.serve_requests` answers one reply per request
over fd 0 -- length-prefixed pickles, so a reply of any size arrives
whole.  Requests and replies are plain dicts:

``{"op": "ping"}``
    -> ``{"ok": true, "pid": ...}`` -- liveness handshake.
``{"op": "run", "jobs": [{...}, ...], "inject": {...}|null}``
    -> ``{"ok": true, "results": {id: {...}}}`` -- one dispatch
    (:func:`repro.serve.jobs.execute`): a lone job runs alone, several
    run as lanes of one pipeline run; a member that fails alone gets
    ``{"error": {...}}`` (a typed execution error: deterministic, the
    server does not retry it).

``inject`` is a consumed worker-level fault directive derived from a
member's FaultPlan ``shard_faults`` (``shard`` = attempt index), executed
by :func:`repro.workers.apply_fault`: ``{"kind": "kill"}`` dies like
SIGKILL before touching the job, ``{"kind": "hang"}`` stops responding
forever (the pool's deadline catches it), ``{"kind": "slow", "delay":
s}`` sleeps first.  Faults fire *before* any work, so a retried
attempt never sees partial state.

SIGUSR1 is forwarded by the daemon for hot restart: the worker fsyncs
nothing itself (results are journaled by the server on completion) but
acknowledges by ignoring the signal safely mid-computation.
"""

from __future__ import annotations

import os
import signal
import sys
from typing import Any

from ..workers import apply_fault, serve_requests
from . import jobs
from .protocol import JobRejected, JobSpec


def _handle(request: dict[str, Any]) -> dict[str, Any]:
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "pid": os.getpid()}
    if op == "run":
        apply_fault(request.get("inject"))
        specs = [JobSpec.from_dict(j) for j in request["jobs"]]
        return {"ok": True, "results": jobs.execute(specs)}
    return {
        "ok": False,
        "error": {"code": "rejected", "message": f"unknown op {op!r}"},
    }


def handle(request: dict[str, Any]) -> dict[str, Any]:
    """One reply per request; a malformed request is a rejection, never
    the end of the worker."""
    try:
        return _handle(request)
    except (JobRejected, KeyError, TypeError, ValueError) as exc:
        return {
            "ok": False,
            "error": {"code": "rejected", "message": str(exc)},
        }


def main() -> int:
    # stay alive through the daemon's broadcast SIGUSR1 (hot-restart
    # sync point); default disposition would kill the worker mid-job
    try:
        signal.signal(signal.SIGUSR1, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    serve_requests(handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

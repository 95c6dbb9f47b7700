"""The process layer: every child process the package talks to.

The sharded runner's machine workers (:mod:`repro.machine.sharded`)
and the serve daemon's job workers (:mod:`repro.serve.pool`) are both
request/reply children with one request in flight, so one
:class:`Worker` owns how they start, how requests and replies travel,
when a child counts as dead or hung, how it is torn down and when it
may be reused; the consumers own only the data.

:meth:`Worker.fork` forks this interpreter and the child inherits the
request handler (a shard's machine and graph come along for free).
:meth:`Worker.exec` starts a fresh ``python -m <module>`` whose fd 0 is
its end of a socketpair, so the parent's pages stay out of the child's
resident set.  Either child runs :func:`serve_requests`.

One ``multiprocessing.connection.Connection`` carries length-prefixed
pickles both ways (no frame size limit).  Each request carries a
sequence number the reply echoes, and :meth:`Worker.wait` drops
replies to older requests -- after a sharded rollback a survivor may
still answer the barrier that failed.  ``wait`` polls every
:data:`POLL_INTERVAL` seconds: EOF, or an exited child with nothing
left to drain, is a ``"crash"`` :class:`WorkerFailure`; a live child
past the deadline is a ``"hang"``.  :meth:`Worker.close` escalates
SIGTERM to SIGKILL.  A worker with a ``key`` can be parked after a
clean run and reclaimed by the next run with the same key
(:func:`park` / :func:`unpark`); idle ones are reaped and the pool is
capped.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, Callable, Optional

from .errors import EXIT_SHARD_CRASH

#: seconds between liveness checks while a reply is awaited (the
#: latency of noticing a dead child that left its connection open)
POLL_INTERVAL = 0.05

#: ceiling on a fresh worker's first reply -- interpreter start-up can
#: dwarf a call deadline on a loaded host, and a cold worker must never
#: be mistaken for a hung one
WARMUP_DEADLINE = 60.0

#: seconds a parked worker may idle before it is reaped
POOL_IDLE_TIMEOUT = 120.0

#: parked workers kept at most, over all keys
POOL_CAP = 16

#: seconds a child gets to exit after SIGTERM before SIGKILL
_JOIN_TIMEOUT = 5.0


class WorkerFailure(Exception):
    """A worker died (``kind="crash"``, with its ``exitcode``) or
    stopped answering (``kind="hang"``) while a request was in flight.

    Not a :class:`~repro.errors.ReproError`: each consumer turns it
    into its own typed error or retry decision.
    """

    def __init__(self, kind: str, detail: str,
                 exitcode: Optional[int] = None) -> None:
        self.kind = kind
        self.detail = detail
        self.exitcode = exitcode
        super().__init__(f"worker {kind}: {detail}")


@dataclass(frozen=True)
class BackoffPolicy:
    """Seeded-jitter exponential backoff, shared by every retry loop.

    Delay before retry *i* (1-based) is
    ``min(max_delay, base * factor**(i-1))`` scaled by a uniform draw
    from ``[1-jitter, 1+jitter]``.  The draw comes from a caller-owned
    :class:`random.Random` so each loop's schedule is reproducible and
    independent -- a fleet of supervisors (or a serve worker pool)
    seeded differently never thunders back in lockstep.
    """

    base: float = 0.5
    factor: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1

    def delay(self, retry_index: int, rng: random.Random) -> float:
        if retry_index < 1:
            return 0.0
        delay = min(self.max_delay, self.base * self.factor ** (retry_index - 1))
        if self.jitter:
            delay *= rng.uniform(1 - self.jitter, 1 + self.jitter)
        return delay


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that must import ``repro``
    even when this process was launched with an ad-hoc ``PYTHONPATH``
    (supervised runs, serve pool workers)."""
    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    parts = env.get("PYTHONPATH", "").split(os.pathsep)
    if pkg_root not in parts:
        env["PYTHONPATH"] = os.pathsep.join(
            [pkg_root] + [p for p in parts if p]
        )
    return env


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def serve_requests(handle: Callable[[Any], Any],
                   conn: Optional[Connection] = None) -> None:
    """The child's request loop: answer every ``(seq, request)`` with
    ``(seq, handle(request))`` until the parent closes the connection.

    ``conn`` defaults to fd 0, where :meth:`Worker.exec` puts the
    child's end of the socketpair.  An exception escaping ``handle``
    ends the process, which the parent sees as a crash.
    """
    if conn is None:
        conn = Connection(0)
    try:
        while True:
            seq, request = conn.recv()
            conn.send((seq, handle(request)))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        return              # parent went away; die quietly


def apply_fault(directive: Optional[dict[str, Any]]) -> None:
    """Execute a chaos directive in the child, before any work.

    ``{"kind": "kill"}`` exits like SIGKILL (code 137, no cleanup);
    ``{"kind": "hang"}`` stops answering forever, for the parent's
    deadline to catch; ``{"kind": "slow", "delay": s}`` sleeps first.
    """
    if not directive:
        return
    kind = directive.get("kind")
    if kind == "kill":
        os._exit(EXIT_SHARD_CRASH)
    if kind == "hang":
        while True:
            time.sleep(3600)
    if kind == "slow":
        time.sleep(float(directive.get("delay", 1.0)))


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class Worker:
    """One child process and the parent's end of its connection."""

    def __init__(self, proc: Any, conn: Connection,
                 key: Optional[str] = None) -> None:
        #: a ``multiprocessing`` process (fork) or a ``Popen`` (exec)
        self.proc = proc
        self.conn = conn
        #: warm-pool key this worker may be parked under; None = never
        self.key = key
        #: sequence number of the last request posted
        self._seq = 0

    @classmethod
    def fork(cls, handle: Callable[[Any], Any], *,
             name: str = "repro-worker",
             key: Optional[str] = None) -> "Worker":
        """Fork a child that answers requests with ``handle``."""
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        conn, child = ctx.Pipe(duplex=True)
        proc = ctx.Process(target=serve_requests, args=(handle, child),
                           daemon=True, name=name)
        proc.start()
        child.close()
        return cls(proc, conn, key)

    @classmethod
    def exec(cls, module: str,
             env: Optional[dict[str, str]] = None) -> "Worker":
        """Start ``python -m module`` with its connection on fd 0."""
        ours, theirs = socket.socketpair()
        with theirs:
            proc = subprocess.Popen(
                [sys.executable, "-m", module], stdin=theirs, env=env
            )
        return cls(proc, Connection(ours.detach()))

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def exitcode(self) -> Optional[int]:
        """The child's exit status (``-N`` = killed by signal N), or
        None while it runs."""
        if isinstance(self.proc, subprocess.Popen):
            return self.proc.poll()
        return self.proc.exitcode

    @property
    def alive(self) -> bool:
        return self.exitcode is None

    def _join(self, timeout: float) -> None:
        if isinstance(self.proc, subprocess.Popen):
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        else:
            self.proc.join(timeout)

    def post(self, request: Any) -> None:
        """Send one request.  A child that is already dead surfaces at
        the next :meth:`wait`, never here."""
        self._seq += 1
        try:
            self.conn.send((self._seq, request))
        except OSError:
            pass

    def wait(self, deadline: float) -> Any:
        """The reply to the last posted request, within ``deadline``
        seconds; raises :class:`WorkerFailure` on death or silence."""
        give_up = time.monotonic() + deadline
        conn, seq = self.conn, self._seq
        while True:
            try:
                if conn.poll(POLL_INTERVAL):
                    got, reply = conn.recv()
                    if got == seq:
                        return reply
                    continue    # a straggler from an abandoned request
            except (EOFError, OSError):
                raise self._crashed() from None
            if not self.alive:
                # drain replies the child managed to send before dying
                try:
                    while conn.poll(0):
                        got, reply = conn.recv()
                        if got == seq:
                            return reply
                except (EOFError, OSError):
                    pass
                raise self._crashed()
            if time.monotonic() >= give_up:
                raise WorkerFailure(
                    "hang",
                    f"pid {self.pid} missed its {deadline:.2f}s reply "
                    f"deadline",
                )

    def call(self, request: Any, deadline: float) -> Any:
        """:meth:`post` then :meth:`wait`."""
        self.post(request)
        return self.wait(deadline)

    def _crashed(self) -> WorkerFailure:
        self._join(_JOIN_TIMEOUT)
        code = self.exitcode
        return WorkerFailure(
            "crash", f"pid {self.pid} died with exit code {code}", code
        )

    def close(self) -> None:
        """Close the connection, then SIGTERM, then SIGKILL a child
        that is still there."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.alive:
            self.proc.terminate()
            self._join(_JOIN_TIMEOUT)
            if self.alive:
                # stopped or stuck in uninterruptible state: SIGTERM
                # stays pending, SIGKILL does not
                self.proc.kill()
        self._join(_JOIN_TIMEOUT)


# ----------------------------------------------------------------------
# the warm pool (module level: reuse survives across runners, and
# therefore across facade calls and ``repro serve`` jobs)
# ----------------------------------------------------------------------
#: parked ``(released_at, worker)`` pairs, oldest first
_POOL: list[tuple[float, Worker]] = []
_POOL_LOCK = threading.Lock()


def _reap() -> None:
    """Close parked workers idle past the timeout, or dead."""
    cutoff = time.monotonic() - POOL_IDLE_TIMEOUT
    keep, expired = [], []
    with _POOL_LOCK:
        for entry in _POOL:
            fresh = entry[0] >= cutoff and entry[1].alive
            (keep if fresh else expired).append(entry)
        _POOL[:] = keep
    for _, worker in expired:
        worker.close()


def unpark(key: str) -> Optional[Worker]:
    """The most recently parked live worker under ``key``, or None."""
    _reap()
    with _POOL_LOCK:
        for i in range(len(_POOL) - 1, -1, -1):
            if _POOL[i][1].key == key:
                return _POOL.pop(i)[1]
    return None


def park(worker: Worker) -> None:
    """Park ``worker`` under its key for reuse (evicting the oldest
    beyond the cap); a worker without a key, or one that has died, is
    closed instead."""
    if worker.key is None or not worker.alive:
        worker.close()
        return
    with _POOL_LOCK:
        _POOL.append((time.monotonic(), worker))
        evict = _POOL[:max(0, len(_POOL) - POOL_CAP)]
        del _POOL[:len(evict)]
    for _, old in evict:
        old.close()
    _reap()


def pooled_worker_count() -> int:
    """Parked warm workers right now (observability/tests)."""
    with _POOL_LOCK:
        return len(_POOL)


def shutdown_worker_pool() -> None:
    """Close every parked warm worker.

    Called automatically at interpreter exit; call it explicitly to
    bound resources between test phases or serve tenants.
    """
    with _POOL_LOCK:
        parked = [worker for _, worker in _POOL]
        _POOL.clear()
    for worker in parked:
        worker.close()


atexit.register(shutdown_worker_pool)

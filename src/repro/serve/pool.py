"""Supervised worker pool: the daemon's fault-isolation boundary.

Jobs never execute in the daemon process.  Each worker is a child
process speaking NDJSON over stdin/stdout; a job that kills or hangs
its worker (injectable via FaultPlan schema 2 ``kill_shard`` /
``hang_shard`` with ``shard`` = attempt index) costs exactly one
worker, which the pool respawns -- the daemon and every other tenant's
job are untouched.

The escalation policy mirrors :class:`~repro.checkpoint.supervisor.
Supervisor` one level up, via the shared
:class:`~repro.checkpoint.supervisor.BackoffPolicy`: worker respawns
are immediate (capacity must come back), but a *job* whose attempt was
lost to worker failure retries after a seeded-jitter backoff, at most
``max_retries`` times, then fails with a typed
:class:`~repro.serve.protocol.JobRetriesExhausted` -- the pool-level
analogue of the supervisor's two-strike poisoned-snapshot quarantine.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
from dataclasses import dataclass, field
from typing import Any, Optional

from ..checkpoint.supervisor import BackoffPolicy, child_env
from .protocol import MAX_LINE_BYTES, decode_line, encode_line


class WorkerFailure(Exception):
    """A worker died or stopped responding while holding a job.

    Not a :class:`~repro.errors.ReproError`: this is the pool's
    internal retry signal, turned into a typed job error only when the
    retry budget runs out.
    """

    def __init__(self, kind: str, detail: str) -> None:
        self.kind = kind            # "crash" | "hang"
        self.detail = detail
        super().__init__(f"worker {kind}: {detail}")


@dataclass
class PoolConfig:
    workers: int = 2
    #: hard ceiling on one worker call when the job's own deadline is
    #: longer (hang detection of jobs with lazy deadlines)
    call_deadline: float = 60.0
    #: ceiling on the post-spawn ping handshake -- interpreter startup
    #: can dwarf ``call_deadline`` on a loaded box, and a cold worker
    #: must never be mistaken for a hung one
    warmup_deadline: float = 60.0
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(base=0.05, max_delay=2.0)
    )
    seed: int = 0


class _Worker:
    """One child process; at most one in-flight call at a time."""

    def __init__(self, index: int, env: dict[str, str]) -> None:
        self.index = index
        self.env = env
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.calls = 0

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.returncode is None

    async def start(self) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.serve.worker",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=self.env,
            limit=MAX_LINE_BYTES + 1024,
        )

    async def call(self, payload: dict[str, Any],
                   timeout: float) -> dict[str, Any]:
        """One request/reply round; raises :class:`WorkerFailure` on
        death (EOF) or unresponsiveness (timeout)."""
        assert self.proc is not None
        self.calls += 1
        try:
            self.proc.stdin.write(encode_line(payload))
            await self.proc.stdin.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise WorkerFailure("crash", f"write failed: {exc}") from exc
        try:
            line = await asyncio.wait_for(
                self.proc.stdout.readline(), timeout=max(0.01, timeout)
            )
        except asyncio.TimeoutError:
            raise WorkerFailure(
                "hang", f"no reply within {timeout:.2f}s"
            ) from None
        if not line:
            code = self.proc.returncode
            raise WorkerFailure("crash", f"worker exited (code {code})")
        return decode_line(line)

    async def stop(self, *, kill: bool = False) -> None:
        if self.proc is None:
            return
        if self.proc.returncode is None:
            try:
                if kill:
                    self.proc.kill()
                else:
                    self.proc.terminate()
            except ProcessLookupError:
                pass
        try:
            await asyncio.wait_for(self.proc.wait(), timeout=5.0)
        except asyncio.TimeoutError:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass
            await self.proc.wait()


class WorkerPool:
    """Fixed-size pool of resident workers with respawn-on-failure."""

    def __init__(self, config: PoolConfig) -> None:
        self.config = config
        self.respawns = 0
        self._workers: list[_Worker] = []
        self._free: asyncio.Queue = asyncio.Queue()
        self._respawn_tasks: set = set()
        self._env = child_env()
        self._closed = False

    @property
    def alive(self) -> int:
        return sum(1 for w in self._workers if w.alive)

    @property
    def size(self) -> int:
        return self.config.workers

    async def _warm(self, worker: _Worker) -> None:
        """Spawn + ping before a worker is offered to callers, so a
        slow interpreter start never counts against a job's deadline."""
        await worker.start()
        await worker.call(
            {"op": "ping"}, timeout=self.config.warmup_deadline
        )

    async def start(self) -> None:
        self._workers = [
            _Worker(index, self._env)
            for index in range(self.config.workers)
        ]
        await asyncio.gather(*(self._warm(w) for w in self._workers))
        for worker in self._workers:
            self._free.put_nowait(worker)

    async def _respawn(self, worker: _Worker) -> None:
        try:
            await self._warm(worker)
        except (WorkerFailure, OSError):
            if self._closed:
                return
            # hand it back anyway: the next caller's failure path will
            # retry the respawn rather than silently shrinking the pool
            pass
        if not self._closed:
            self._free.put_nowait(worker)

    async def stop(self) -> None:
        self._closed = True
        for task in list(self._respawn_tasks):
            task.cancel()
        if self._respawn_tasks:
            await asyncio.gather(
                *self._respawn_tasks, return_exceptions=True
            )
        await asyncio.gather(
            *(w.stop(kill=True) for w in self._workers),
            return_exceptions=True,
        )

    def signal_workers(self, signum: int) -> int:
        """Forward a signal (SIGUSR1 for live snapshots) to every live
        worker; returns how many were signalled."""
        count = 0
        for worker in self._workers:
            if worker.alive:
                try:
                    os.kill(worker.pid, signum)
                    count += 1
                except (ProcessLookupError, OSError):
                    pass
        return count

    async def execute(self, payload: dict[str, Any],
                      timeout: float) -> dict[str, Any]:
        """Run one call on the next free worker.

        On worker failure the dead/hung worker is killed and respawned
        (so pool capacity recovers immediately) and the
        :class:`WorkerFailure` propagates -- the *caller* owns the
        job-level retry/backoff/exhaustion policy.
        """
        timeout = min(timeout, self.config.call_deadline)
        worker: _Worker = await self._free.get()
        try:
            reply = await worker.call(payload, timeout)
        except WorkerFailure:
            await worker.stop(kill=True)
            if not self._closed:
                self.respawns += 1
                # re-warm in the background so the failure surfaces to
                # the caller immediately; the worker rejoins the free
                # queue only once its ping answers
                task = asyncio.create_task(self._respawn(worker))
                self._respawn_tasks.add(task)
                task.add_done_callback(self._respawn_tasks.discard)
            raise
        else:
            self._free.put_nowait(worker)
            return reply

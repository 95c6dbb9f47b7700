"""Supervised worker pool: the daemon's fault-isolation boundary.

Jobs never execute in the daemon process.  Each worker is a fresh
interpreter running :mod:`repro.serve.worker`, started and watched by
:class:`repro.workers.Worker` -- the same spawn, framing, crash/hang
detection and SIGTERM->SIGKILL teardown the sharded runner's workers
use.  A call blocks, so it runs in a thread (``asyncio.to_thread``)
and the event loop stays free.  A job that kills or hangs its worker
(injectable via FaultPlan schema 2 ``kill_shard`` / ``hang_shard``
with ``shard`` = attempt index) costs exactly one worker, which the
pool replaces -- the daemon and every other tenant's job are
untouched.  So does any other exception raised while a reply is
awaited: the worker's state is unknown, so it is never handed on.

The escalation policy mirrors :class:`~repro.checkpoint.supervisor.
Supervisor` one level up, via the shared
:class:`~repro.workers.BackoffPolicy`: a replacement worker is started
at once (capacity must come back) and, should its warm-up fail, again
after a backoff until one answers; a *job* whose attempt was lost to
worker failure retries after a seeded-jitter backoff, at most
``max_retries`` times, then fails with a typed
:class:`~repro.serve.protocol.JobRetriesExhausted` -- the pool-level
analogue of the supervisor's two-strike poisoned-snapshot quarantine.
"""

from __future__ import annotations

import asyncio
import os
import random
from typing import Any

from ..workers import (
    WARMUP_DEADLINE,
    BackoffPolicy,
    Worker,
    WorkerFailure,
    child_env,
)

#: delays between attempts to warm up a replacement worker
_RESPAWN_BACKOFF = BackoffPolicy(base=0.05, max_delay=2.0)


class WorkerPool:
    """Fixed-size pool of resident workers with respawn-on-failure."""

    def __init__(self, workers: int = 2,
                 call_deadline: float = 60.0) -> None:
        self.size = workers
        #: hard ceiling on one worker call when the job's own deadline
        #: is longer (hang detection of jobs with lazy deadlines)
        self.call_deadline = call_deadline
        self.respawns = 0
        #: the worker currently serving each slot
        self._workers: list[Worker] = []
        #: free slot indices
        self._free: asyncio.Queue = asyncio.Queue()
        self._respawn_tasks: set = set()
        self._env = child_env()
        self._rng = random.Random(0)
        self._closed = False

    @property
    def alive(self) -> int:
        return sum(1 for w in self._workers if w.alive)

    async def _warm(self) -> Worker:
        """Spawn + ping before a worker is offered to callers, so a
        slow interpreter start never counts against a job's deadline."""
        worker = Worker.exec("repro.serve.worker", self._env)
        try:
            await asyncio.to_thread(
                worker.call, {"op": "ping"}, WARMUP_DEADLINE
            )
        except BaseException:
            worker.close()
            raise
        return worker

    async def start(self) -> None:
        self._workers = list(await asyncio.gather(
            *(self._warm() for _ in range(self.size))
        ))
        for slot in range(self.size):
            self._free.put_nowait(slot)

    async def _respawn(self, slot: int) -> None:
        """Replace the worker in ``slot``; a replacement whose warm-up
        fails is killed and tried again after a backoff, until one
        answers or the pool stops.  Only then does the slot rejoin the
        free queue."""
        await asyncio.to_thread(self._workers[slot].close)
        retries = 0
        while not self._closed:
            try:
                self._workers[slot] = await self._warm()
            except (WorkerFailure, OSError):
                retries += 1
                self.respawns += 1
                await asyncio.sleep(
                    _RESPAWN_BACKOFF.delay(retries, self._rng)
                )
                continue
            self._free.put_nowait(slot)
            return

    async def stop(self) -> None:
        self._closed = True
        for task in list(self._respawn_tasks):
            task.cancel()
        if self._respawn_tasks:
            await asyncio.gather(
                *self._respawn_tasks, return_exceptions=True
            )
        await asyncio.gather(
            *(asyncio.to_thread(w.close) for w in self._workers)
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

        On any failure the worker is replaced in the background (so
        pool capacity recovers) and a :class:`WorkerFailure`
        propagates -- the *caller* owns the job-level
        retry/backoff/exhaustion policy.
        """
        timeout = max(0.01, min(timeout, self.call_deadline))
        slot = await self._free.get()
        try:
            reply = await asyncio.to_thread(
                self._workers[slot].call, payload, timeout
            )
        except BaseException as exc:
            if not self._closed:
                self.respawns += 1
                task = asyncio.create_task(self._respawn(slot))
                self._respawn_tasks.add(task)
                task.add_done_callback(self._respawn_tasks.discard)
            if isinstance(exc, Exception) and not isinstance(
                exc, WorkerFailure
            ):
                raise WorkerFailure(
                    "crash", f"{type(exc).__name__}: {exc}"
                ) from exc
            raise
        self._free.put_nowait(slot)
        return reply

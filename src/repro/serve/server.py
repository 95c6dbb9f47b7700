"""The ``repro serve`` daemon: admission -> batch -> execute -> reply.

One asyncio process owns the front door (unix socket and/or TCP), the
bounded admission queue, the batch planner and the supervised worker
pool; jobs execute only in worker children, so no job can take the
daemon down.  Lifecycle of one job:

1. **admission** -- ``submit`` validates the spec, journals the accept,
   and either enqueues (bounded) or sheds with a typed
   ``ServerOverloaded`` + retry-after hint;
2. **batching** -- the dispatcher drains the queue through the
   :class:`~repro.serve.scheduler.BatchPlanner` into dispatches: lists
   of jobs, several compatible recurrence jobs when deadlines allow
   (lanes of one run of their resident serial pipeline), else one;
3. **execution** -- each dispatch is one ``run`` call on a pool worker
   under a deadline; a crashed or hung worker costs one respawn and
   the affected jobs retry with seeded-jitter backoff, at most
   ``max_retries`` times, then fail typed (never silently dropped);
   a *batch* attempt lost to a worker is disbanded and each member
   retries alone as a dispatch of one, isolating a poison job to its
   own retry budget, and a member that fails deterministically fails
   alone;
4. **reply** -- the outcome record (success payload or typed error) is
   journaled, counted, and delivered to any ``wait``-ing connection.

Hot restart: SIGUSR1 fsyncs the journal, writes an atomic
``serve-state.json`` and forwards the signal to workers; a restarted
daemon (e.g. under ``repro supervise``) replays the journal and
re-admits accepted-but-unfinished jobs exactly once.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from ..checkpoint.snapshot import _atomic_write
from ..config import check
from ..errors import EXIT_SHARD_CRASH
from ..faults import FaultPlan
from ..workers import BackoffPolicy, WorkerFailure
from .admission import JOURNAL_NAME, AdmissionQueue, JobJournal, JobState
from .pool import WorkerPool
from .protocol import (
    JobDeadlineExceeded,
    JobRejected,
    JobRetriesExhausted,
    JobSpec,
    ServeError,
    ServerOverloaded,
    decode_line,
    encode_line,
    envelope,
    error_from_dict,
)
from .scheduler import BatchPlanner, Dispatch
from .stats import ServeStats

STATE_NAME = "serve-state.json"
STATE_SCHEMA = 1

#: seconds a graceful stop waits for queued and running jobs
_DRAIN_TIMEOUT = 10.0

#: delay before a job's next attempt after a worker failure
_RETRY_BACKOFF = BackoffPolicy(base=0.05, max_delay=2.0)


@dataclass
class ServeConfig:
    """Everything the daemon needs; maps 1:1 to ``repro serve`` flags."""

    _error = ServeError

    socket: Optional[str] = None
    host: str = "127.0.0.1"
    port: Optional[int] = None
    directory: Optional[str] = None      # journal + hot-restart state
    capacity: int = field(default=256, metadata={"min": 1})
    workers: int = field(default=2, metadata={"min": 1})
    default_deadline: float = field(default=30.0, metadata={"gt": 0})
    max_retries: int = field(default=2, metadata={"min": 0})
    #: per-worker-call ceiling: a worker silent this long is hung
    hang_deadline: float = field(default=10.0, metadata={"gt": 0})
    min_batch: int = field(default=2, metadata={"min": 1})
    max_batch: int = field(default=8, metadata={"min": 1})
    batch_wait: float = field(default=0.02, metadata={"min": 0})
    seed: int = 0
    #: test hook: die like SIGKILL right after the Nth accept has been
    #: journaled (simulates a daemon crash for hot-restart tests)
    crash_after_accepts: Optional[int] = None

    __post_init__ = check


def _attempt_fault(spec: JobSpec, attempt: int) -> Optional[dict[str, Any]]:
    """The worker-level fault directive for this attempt, if any.

    A job's FaultPlan ``shard_faults`` are interpreted with ``shard``
    meaning the 0-based *attempt* index, so chaos tests can say "kill
    the worker on my first attempt, hang it on my second" regardless
    of which pool worker the job lands on.
    """
    if not spec.faults:
        return None
    plan = FaultPlan.from_dict(spec.faults)
    for fault in plan.shard_faults:
        if fault.shard == attempt:
            return {"kind": fault.kind, "delay": fault.delay}
    return None


class PipelineServer:
    """One daemon instance; create, ``await start()``, then
    ``await serve_forever()`` (or drive ops directly in tests)."""

    def __init__(self, config: ServeConfig) -> None:
        if config.socket is None and config.port is None:
            raise ServeError("serve needs --socket and/or --port")
        self.config = config
        self.stats = ServeStats(seed=config.seed)
        self.planner = BatchPlanner(
            config.min_batch, config.max_batch, config.batch_wait
        )
        self.journal: Optional[JobJournal] = None
        if config.directory is not None:
            Path(config.directory).mkdir(parents=True, exist_ok=True)
        self._inflight_count = 0
        self.queue = AdmissionQueue(
            capacity=config.capacity,
            workers=config.workers,
            default_deadline=config.default_deadline,
            estimate_job_seconds=self.planner.costs.mean,
            inflight=lambda: self._inflight_count,
        )
        self.pool = WorkerPool(config.workers, config.hang_deadline)
        self._rng = random.Random(config.seed)
        self._accepts = 0
        self._started_at = time.monotonic()
        self._accepting = False
        self._shutdown = asyncio.Event()
        self._wake = asyncio.Event()
        self._tasks: set[asyncio.Task] = set()
        self._servers: list[asyncio.AbstractServer] = []
        self._dispatcher: Optional[asyncio.Task] = None
        #: cleared by stop() right before it cancels the dispatcher
        self._dispatching = True

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        readmitted: list[JobSpec] = []
        if self.config.directory is not None:
            journal_path = Path(self.config.directory) / JOURNAL_NAME
            pending, completed, skipped = JobJournal.replay(journal_path)
            self.journal = JobJournal(journal_path)
            self.queue.journal = self.journal
            self.queue.completed.update(completed)
            readmitted = pending
            if skipped:
                self._log(f"journal: skipped {skipped} damaged line(s)")
        await self.pool.start()
        for spec in readmitted:
            # accepted before the restart, never finished: re-admit
            # exactly once (the accept line is already journaled, so
            # offer() must not journal it again)
            try:
                state = self.queue.offer(spec, readmitted=True)
            except (JobRejected, ServerOverloaded) as exc:
                self._log(f"re-admission of {spec.id!r} failed: {exc}")
                continue
            state.done = asyncio.Event()
            self.stats.note(spec.tenant, "readmitted")
        if readmitted:
            self._log(f"re-admitted {len(readmitted)} journaled job(s)")
        if self.config.socket is not None:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket
            )
            self._servers.append(server)
        if self.config.port is not None:
            server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host, port=self.config.port,
            )
            self._servers.append(server)
        self._install_signal_handlers()
        self._accepting = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._log(
            f"listening on "
            f"{self.config.socket or f'{self.config.host}:{self.config.port}'}"
            f" ({self.config.workers} workers, "
            f"capacity {self.config.capacity})"
        )

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGUSR1, self.hot_snapshot)
            loop.add_signal_handler(
                signal.SIGTERM, self._shutdown.set
            )
        except (NotImplementedError, ValueError, RuntimeError):
            pass  # non-main thread or platform without signal support

    async def serve_forever(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful stop: refuse new work, drain, then tear down."""
        self._accepting = False
        self._shutdown.set()
        deadline = time.monotonic() + _DRAIN_TIMEOUT
        while (self.queue.depth or self._inflight_count) \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        self._dispatching = False
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except (asyncio.CancelledError, Exception):
                pass
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        await self.pool.stop()
        for server in self._servers:
            server.close()
            await server.wait_closed()
        if self.journal is not None:
            self.journal.close()
        if (self.config.socket is not None
                and os.path.exists(self.config.socket)):
            try:
                os.unlink(self.config.socket)
            except OSError:
                pass
        self._log(self.stats.summary())

    def hot_snapshot(self) -> None:
        """SIGUSR1: make the restartable state durable, live."""
        self.stats.hot_restarts += 1
        if self.journal is not None:
            self.journal.sync()
        if self.config.directory is not None:
            state = {
                "schema": STATE_SCHEMA,
                "pending": self.queue.pending_ids(),
                "inflight": self._inflight_count,
                "accepts": self._accepts,
                "stats": self.stats.to_dict(),
            }
            _atomic_write(
                Path(self.config.directory) / STATE_NAME,
                (json.dumps(state, indent=2) + "\n").encode("utf-8"),
            )
        signalled = self.pool.signal_workers(signal.SIGUSR1)
        self._log(
            f"hot snapshot: journal synced, state written, "
            f"{signalled} worker(s) signalled"
        )

    @staticmethod
    def _log(message: str) -> None:
        import sys

        print(f"# serve: {message}", file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, data: dict[str, Any]) -> JobState:
        """Validate + admit one job dict; typed errors propagate."""
        spec = JobSpec.from_dict(data)
        if not self._accepting:
            raise JobRejected("server is shutting down", job_id=spec.id)
        try:
            state = self.queue.offer(spec)
        except ServerOverloaded:
            self.stats.note(spec.tenant, "shed")
            raise
        except JobRejected:
            self.stats.note(spec.tenant, "rejected")
            raise
        state.done = asyncio.Event()
        self.stats.note(spec.tenant, "accepted")
        self.stats.queue_depth = self.queue.depth
        self._accepts += 1
        self._wake.set()
        hook = self.config.crash_after_accepts
        if hook is not None and self._accepts >= hook:
            # hot-restart test hook: the accept is journaled, now die
            # like SIGKILL before the job can run
            if self.journal is not None:
                self.journal.sync()
            os._exit(EXIT_SHARD_CRASH)
        return state

    # ------------------------------------------------------------------
    # dispatch + execution
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        tick = max(0.005, self.config.batch_wait / 2 or 0.01)
        # wait_for swallows a cancel that lands just as _wake fires
        # (Python < 3.12), so the flag, not the cancel, ends the loop
        while self._dispatching:
            self._wake.clear()
            for dispatch in self.planner.plan(self.queue,
                                              idle=self.pool.idle):
                self._spawn(dispatch)
            self.stats.queue_depth = self.queue.depth
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=max(
                    0.0, min(tick, self.planner.wake_at - time.monotonic())
                ))
            except asyncio.TimeoutError:
                pass

    def _spawn(self, dispatch: Dispatch) -> None:
        task = asyncio.create_task(self._execute(dispatch))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _finish_ok(self, state: JobState, result: dict[str, Any]) -> None:
        batched = "batch" in result   # ran as a lane, not alone
        now = time.monotonic()
        latency = now - state.accepted_at
        record = {
            "id": state.spec.id,
            "tenant": state.spec.tenant,
            "ok": True,
            "batched": batched,
            "attempts": state.attempts,
            "latency_s": round(latency, 6),
            "result": result,
        }
        self.queue.finish(state, record)
        self.stats.note_done(state.spec.tenant, latency, batched)

    def _finish_err(self, state: JobState, error: ServeError) -> None:
        record = {
            "id": state.spec.id,
            "tenant": state.spec.tenant,
            "ok": False,
            "attempts": state.attempts,
            "error": error.to_dict(),
        }
        self.queue.finish(state, record)
        self.stats.note_failed(state.spec.tenant, error.code)

    def _deadline_error(self, state: JobState,
                        stage: str) -> JobDeadlineExceeded:
        now = time.monotonic()
        spec_deadline = (
            state.spec.deadline
            if state.spec.deadline is not None
            else self.config.default_deadline
        )
        return JobDeadlineExceeded(
            f"job {state.spec.id!r} missed its {spec_deadline:.2f}s "
            f"deadline while {stage}",
            job_id=state.spec.id,
            deadline=spec_deadline,
            elapsed=now - state.accepted_at,
            stage=stage,
        )

    def _may_retry(self, state: JobState, failure: WorkerFailure) -> bool:
        """False, with the job failed typed, once its attempts lost to
        worker failure exceed the retry budget."""
        if state.attempts <= self.config.max_retries:
            return True
        self._finish_err(state, JobRetriesExhausted(
            f"job {state.spec.id!r} lost {state.attempts} attempt(s) "
            f"to worker failure; retry budget of "
            f"{self.config.max_retries} exhausted",
            job_id=state.spec.id,
            attempts=state.attempts,
            reason=str(failure),
        ))
        self.stats.quarantined_jobs += 1
        return False

    async def _execute(self, dispatch: Dispatch) -> None:
        """Run one dispatch on a pool worker until every member has an
        outcome; a lone job retries in place after a worker failure, a
        batch is disbanded into dispatches of one."""
        states = dispatch.states
        self._inflight_count += len(states)
        self.stats.inflight = self._inflight_count
        try:
            while True:
                now = time.monotonic()
                remaining = min(s.remaining(now) for s in states)
                if remaining <= 0:
                    stage = ("batching" if dispatch.batched else
                             "retrying" if states[0].attempts else
                             "queued")
                    for state in states:
                        self._finish_err(
                            state, self._deadline_error(state, stage)
                        )
                    return
                inject = next(filter(None, (
                    _attempt_fault(s.spec, s.attempts) for s in states
                )), None)
                for state in states:
                    state.attempts += 1
                if dispatch.batched:
                    self.stats.batches += 1
                payload = {
                    "op": "run",
                    "jobs": [s.spec.to_dict() for s in states],
                    "inject": inject,
                }
                started = time.monotonic()
                try:
                    reply = await self.pool.execute(
                        payload, timeout=remaining
                    )
                except WorkerFailure as failure:
                    self.stats.worker_respawns = self.pool.respawns
                    for state in states:
                        self.stats.note(state.spec.tenant, "retries")
                    self._log(
                        f"{'batch' if dispatch.batched else 'job'} "
                        f"{', '.join(dispatch.ids)}: attempt "
                        f"{states[0].attempts} lost to {failure.kind} "
                        f"({failure.detail})"
                    )
                    if dispatch.batched:
                        # disband: each member retries alone, so a
                        # poison job spends only its own retry budget
                        delay = _RETRY_BACKOFF.delay(1, self._rng)
                        await asyncio.sleep(min(delay, remaining))
                        for state in states:
                            if self._may_retry(state, failure):
                                self._spawn(Dispatch([state]))
                        return
                    (state,) = states
                    if state.remaining(time.monotonic()) <= 0:
                        self._finish_err(
                            state, self._deadline_error(state, "running")
                        )
                        return
                    if not self._may_retry(state, failure):
                        return
                    delay = _RETRY_BACKOFF.delay(state.attempts, self._rng)
                    await asyncio.sleep(min(
                        delay, max(0.0, state.remaining(time.monotonic()))
                    ))
                    continue
                if not reply.get("ok"):
                    error = error_from_dict(reply.get("error", {}))
                    for state in states:
                        self._finish_err(state, error)
                    return
                self.planner.observe(dispatch, time.monotonic() - started)
                results = reply.get("results", {})
                for state in states:
                    entry = results.get(state.spec.id, {})
                    if "error" in entry:
                        error = error_from_dict(entry["error"])
                        self._finish_err(state, error)
                    else:
                        self._finish_ok(state, entry)
                return
        finally:
            self._inflight_count -= len(states)
            self.stats.inflight = self._inflight_count
            # a worker is free again: a lingering job may go now
            self._wake.set()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionResetError):
                    break  # over-long line or peer reset
                if not line:
                    break
                reply = await self._handle_request(line)
                writer.write(encode_line(reply))
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_request(self, line: bytes) -> dict[str, Any]:
        op = "?"
        try:
            request = decode_line(line)
            if not isinstance(request, dict):
                raise JobRejected("request must be a JSON object")
            op = request.get("op", "?")
            return await self._dispatch_op(op, request)
        except ServeError as exc:
            return envelope(op, False, {"error": exc.to_dict()})

    async def _dispatch_op(self, op: str,
                           request: dict[str, Any]) -> dict[str, Any]:
        if op == "submit":
            state = self.admit(request.get("job", {}))
            return envelope("submit", True, {
                "id": state.spec.id,
                "accepted": True,
                "queue_depth": self.queue.depth,
            })
        if op in ("wait", "submit_wait"):
            if op == "submit_wait":
                state = self.admit(request.get("job", {}))
                job_id = state.spec.id
            else:
                job_id = request.get("id", "")
            record = await self._await_record(
                job_id, request.get("timeout")
            )
            return envelope(op, bool(record.get("ok")), record)
        if op == "healthz":
            return envelope("healthz", True, {
                "status": "ok",
                "uptime_s": round(
                    time.monotonic() - self._started_at, 3
                ),
                "accepting": self._accepting,
                "queue_depth": self.queue.depth,
                "inflight": self._inflight_count,
                "workers": {
                    "size": self.pool.size,
                    "alive": self.pool.alive,
                    "respawns": self.pool.respawns,
                },
                "accepted_total": self._accepts,
            })
        if op == "stats":
            self.stats.queue_depth = self.queue.depth
            self.stats.worker_respawns = self.pool.respawns
            return envelope("stats", True, self.stats.to_dict())
        if op == "shutdown":
            self._accepting = False
            self._shutdown.set()
            return envelope("shutdown", True, {"stopping": True})
        raise JobRejected(f"unknown op {op!r}; expected one of "
                          f"submit/wait/submit_wait/healthz/stats/"
                          f"shutdown")

    async def _await_record(self, job_id: str,
                            timeout: Optional[float]) -> dict[str, Any]:
        record = self.queue.completed.get(job_id)
        if record is not None:
            return record
        state = self.queue.get(job_id)
        if state is None:
            raise JobRejected(f"unknown job id {job_id!r}")
        if state.done is None:
            state.done = asyncio.Event()
        budget = timeout if timeout is not None else (
            state.remaining(time.monotonic())
            + self.config.hang_deadline
            + _DRAIN_TIMEOUT
        )
        try:
            await asyncio.wait_for(
                state.done.wait(), timeout=max(0.05, budget)
            )
        except asyncio.TimeoutError:
            raise JobRejected(
                f"job {job_id!r} still pending after {budget:.2f}s wait",
                job_id=job_id,
            ) from None
        return state.record or self.queue.completed.get(job_id) or {
            "id": job_id, "ok": False,
            "error": {"code": "serve_error",
                      "message": "job finished without a record"},
        }


async def run_server(config: ServeConfig) -> None:
    """Entry point used by ``repro serve``."""
    server = PipelineServer(config)
    await server.start()
    await server.serve_forever()

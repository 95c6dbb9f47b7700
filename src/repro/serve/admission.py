"""Bounded admission with overload shedding and a crash-safe journal.

The admission queue is the only place jobs wait before execution, and
it is **bounded**: a submit that would exceed capacity is shed with a
typed :class:`~repro.serve.protocol.ServerOverloaded` carrying a
retry-after hint, so the daemon's memory never grows with offered load.

Exactly-once across hot restarts comes from the journal, not from
snapshots of server state: every accepted job appends an ``accept``
line (flushed before the client sees the ack) and every finished job a
``done`` line carrying the full outcome record.  Replaying the journal
at startup yields (a) the set of accepted-but-unfinished jobs, which
are re-admitted in acceptance order, and (b) the completed records,
so a client re-asking for a finished job's result gets the original
bytes instead of a re-execution.  SIGUSR1 fsyncs the journal so a hot
restart under ``repro supervise`` loses nothing that was acknowledged.
"""

from __future__ import annotations

import json
import os
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from . import jobs
from .protocol import JobRejected, JobSpec, ServerOverloaded

JOURNAL_NAME = "serve-journal.jsonl"


@dataclass
class JobState:
    """One accepted job's lifecycle, owned by the server."""

    spec: JobSpec
    accepted_at: float
    deadline: float                      # absolute (monotonic clock)
    sig: str                             # jobs.signature(spec)
    batchable: bool                      # jobs.batchable(spec)
    attempts: int = 0
    record: Optional[dict[str, Any]] = None
    done: Any = None                     # asyncio.Event, server-owned

    def remaining(self, now: float) -> float:
        return self.deadline - now


class JobJournal:
    """Append-only NDJSON journal of accepts and outcomes.

    A line that is not a whole ``accept`` or ``done`` entry -- a torn
    final line (the crash happened mid-append) or a damaged one
    anywhere -- is skipped but counted, never fatal: a damaged journal
    must degrade to losing *that line's* job, not the daemon.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.skipped = 0
        self._fh = open(self.path, "ab")

    # -- writing -------------------------------------------------------
    def _append(self, entry: dict[str, Any]) -> None:
        line = json.dumps(entry, separators=(",", ":")) + "\n"
        self._fh.write(line.encode("utf-8"))
        self._fh.flush()

    def accept(self, spec: JobSpec) -> None:
        self._append({"event": "accept", "job": spec.to_dict()})

    def done(self, job_id: str, record: dict[str, Any]) -> None:
        self._append({"event": "done", "id": job_id, "record": record})

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        try:
            self.sync()
        except (OSError, ValueError):
            pass
        self._fh.close()

    # -- replay --------------------------------------------------------
    @classmethod
    def replay(
        cls, path: Path
    ) -> tuple[list[JobSpec], "OrderedDict[str, dict[str, Any]]", int]:
        """Read a journal back: ``(pending specs in acceptance order,
        completed records by id, skipped line count)``."""
        pending: "OrderedDict[str, JobSpec]" = OrderedDict()
        completed: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        skipped = 0
        path = Path(path)
        if not path.exists():
            return [], completed, 0
        # a final line without its newline is parsed like any other:
        # torn by a crash mid-append it is skipped, whole it counts
        for line in path.read_bytes().split(b"\n"):
            if not line:
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
                event = entry.get("event")
                if event == "accept":
                    spec = JobSpec.from_dict(entry["job"])
                    pending[spec.id] = spec
                elif event == "done":
                    job_id = entry["id"]
                    completed[job_id] = entry["record"]
                    pending.pop(job_id, None)
                else:
                    skipped += 1
            except (ValueError, KeyError, TypeError, AttributeError,
                    JobRejected):
                skipped += 1
        return list(pending.values()), completed, skipped


@dataclass
class AdmissionQueue:
    """FIFO of accepted jobs, bounded at ``capacity``.

    ``estimate_job_seconds`` is a server-owned callable (EMA over
    observed service times) feeding the retry-after hint:
    ``(depth + inflight) * est / workers`` -- roughly when the current
    backlog drains.
    """

    capacity: int
    workers: int = 1
    journal: Optional[JobJournal] = None
    clock: Callable[[], float] = time.monotonic
    estimate_job_seconds: Callable[[], float] = lambda: 0.25
    inflight: Callable[[], int] = lambda: 0
    default_deadline: float = 30.0
    _queue: deque = field(default_factory=deque)
    _by_id: dict = field(default_factory=dict)
    completed: "OrderedDict[str, dict[str, Any]]" = field(
        default_factory=OrderedDict
    )

    @property
    def depth(self) -> int:
        return len(self._queue)

    def pending_ids(self) -> list[str]:
        return [state.spec.id for state in self._queue]

    def retry_after(self) -> float:
        backlog = self.depth + self.inflight()
        est = max(0.01, self.estimate_job_seconds())
        return max(0.05, backlog * est / max(1, self.workers))

    def offer(self, spec: JobSpec, *,
              readmitted: bool = False) -> JobState:
        """Admit one job or raise typed rejection/overload."""
        if spec.id in self.completed:
            raise JobRejected(
                f"job {spec.id!r} already completed; ask for its result "
                f"with op=wait",
                job_id=spec.id,
            )
        if spec.id in self._by_id:
            raise JobRejected(
                f"job {spec.id!r} is already accepted and pending",
                job_id=spec.id,
            )
        # the bound covers queued AND in-flight work: the dispatcher
        # drains the queue into execution tasks eagerly, so depth alone
        # would let admitted work grow without limit
        backlog = self.depth + self.inflight()
        if backlog >= self.capacity:
            raise ServerOverloaded(
                f"admission queue full ({backlog}/{self.capacity}); "
                f"retry after {self.retry_after():.2f}s",
                retry_after=self.retry_after(),
                queue_depth=backlog,
                capacity=self.capacity,
            )
        now = self.clock()
        deadline = now + (
            spec.deadline if spec.deadline is not None
            else self.default_deadline
        )
        state = JobState(
            spec=spec, accepted_at=now, deadline=deadline,
            sig=jobs.signature(spec), batchable=jobs.batchable(spec),
        )
        # the accept must be durable before the client sees the ack:
        # exactly-once over restarts hinges on this ordering
        if self.journal is not None and not readmitted:
            self.journal.accept(spec)
        self._queue.append(state)
        self._by_id[spec.id] = state
        return state

    def take_matching(
        self, predicate: Callable[[JobState], bool], limit: int
    ) -> list[JobState]:
        """Remove up to ``limit`` queued jobs satisfying ``predicate``,
        preserving FIFO order among the rest."""
        taken: list[JobState] = []
        keep: deque = deque()
        while self._queue and len(taken) < limit:
            state = self._queue.popleft()
            if predicate(state):
                taken.append(state)
            else:
                keep.append(state)
        keep.extend(self._queue)
        self._queue = keep
        return taken

    def get(self, job_id: str) -> Optional[JobState]:
        return self._by_id.get(job_id)

    def finish(self, state: JobState, record: dict[str, Any]) -> None:
        """Record a terminal outcome (success or typed failure)."""
        state.record = record
        self._by_id.pop(state.spec.id, None)
        self.completed[state.spec.id] = record
        # bound the in-memory completed map; the journal keeps the rest
        while len(self.completed) > 4 * self.capacity:
            self.completed.popitem(last=False)
        if self.journal is not None:
            self.journal.done(state.spec.id, record)
        if state.done is not None:
            state.done.set()

"""Batching scheduler: when to run jobs as lanes of one pipeline run.

``b`` recurrence jobs of one program share one firing schedule, so one
run of the serial pipeline can carry all their values
(:func:`~repro.serve.jobs.execute`).  That is a throughput
lever, but forming a batch costs latency (waiting for companions).
The planner therefore:

* groups queued jobs by signature (:meth:`~repro.serve.protocol.JobSpec.signature`,
  computed once at admission: same program, params and stream lengths
  = can share a compiled loop);
* lets a group fill while it keeps growing, and sends it whole when it
  reaches ``max_batch``, when nobody has joined it for a while, or when
  its first member has waited ``batch_wait``;
* sends a leaving group as one batch when its estimated completion
  (one EMA of observed dispatch time per signature: a lane adds ~3 %
  to a run) violates no member's deadline, else as dispatches of one,
  deadline-tightest first.

All state is plain data and the decision function is synchronous, so
the policy is unit-testable without a running daemon.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .admission import AdmissionQueue, JobState

#: EMA smoothing for service-time estimates
EMA_ALPHA = 0.3

#: conservative prior for a never-seen signature, seconds
DEFAULT_SECONDS = 0.25


@dataclass
class Dispatch:
    """One planner decision: jobs that run in one worker call, as
    lanes of one pipeline run when there are several."""

    states: list[JobState]

    @property
    def batched(self) -> bool:
        return len(self.states) > 1

    @property
    def ids(self) -> list[str]:
        return [s.spec.id for s in self.states]


class BatchPlanner:
    """Drains an :class:`AdmissionQueue` into dispatch decisions.

    A signature group leaves when it reaches ``max_batch``, when no
    member has joined for one dispatch estimate beside an idle worker
    (a longer wait costs more than a companion saves; ``batch_wait``
    while every worker is busy), or when its first member has waited
    ``batch_wait`` (0: never linger).  ``max_batch`` 1 means serial
    only."""

    def __init__(self, max_batch: int, batch_wait: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.max_batch = max_batch
        self.batch_wait = batch_wait
        self.clock = clock
        #: signature -> EMA of its observed dispatch seconds, any size
        self.costs: dict[str, float] = {}
        #: monotonic time the last plan() wants the next one by (when
        #: a lingering group's wait ends)
        self.wake_at = float("inf")

    def mean_cost(self) -> float:
        """Mean dispatch estimate over the signatures seen."""
        costs = self.costs.values()
        return sum(costs) / len(costs) if costs else DEFAULT_SECONDS

    def observe(self, dispatch: Dispatch, seconds: float) -> None:
        sig = dispatch.states[0].sig
        prev = self.costs.get(sig, seconds)
        self.costs[sig] = EMA_ALPHA * seconds + (1 - EMA_ALPHA) * prev

    def plan(self, queue: AdmissionQueue,
             idle: bool = False) -> list[Dispatch]:
        """Remove ready work from ``queue`` and decide its shape;
        ``idle``: a worker is free to run it now."""
        now = self.clock()
        self.wake_at = float("inf")
        # non-batchable jobs go alone immediately, FIFO
        dispatches = [Dispatch([state]) for state in queue.take_matching(
            lambda s: not s.batchable, limit=queue.capacity
        )]
        groups: dict[str, list[JobState]] = {}
        for state in queue._queue:
            groups.setdefault(state.sig, []).append(state)
        leaving: list[JobState] = []
        for sig, members in groups.items():
            est = self.costs.get(sig, DEFAULT_SECONDS)
            full = len(members) - len(members) % self.max_batch
            chunks = [members[k:k + self.max_batch]
                      for k in range(0, full, self.max_batch)]
            rest = members[full:]
            if rest:
                quiet = est if idle else self.batch_wait
                due = min(rest[0].accepted_at + self.batch_wait,
                          rest[-1].accepted_at + quiet)
                slack = min(m.remaining(now) for m in rest) - est
                if now < due and slack > self.batch_wait:
                    self.wake_at = min(self.wake_at, due)
                else:
                    chunks.append(rest)
            for chunk in chunks:
                leaving += chunk
                if all(m.remaining(now) > est for m in chunk):
                    dispatches.append(Dispatch(chunk))
                else:
                    # batching would blow a deadline: dispatches of
                    # one, tightest first
                    chunk.sort(key=lambda s: s.deadline)
                    dispatches.extend(Dispatch([s]) for s in chunk)
        gone = set(map(id, leaving))
        queue.take_matching(lambda s: id(s) in gone, limit=len(gone))
        return dispatches

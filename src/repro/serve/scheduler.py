"""Batching scheduler: when to multiplex jobs through one loop.

PAPER section 9's observation -- ``b`` independent recurrence
instances interleaved through one loop run at full pipeline rate --
is a throughput lever, but forming a batch costs latency (waiting for
companions) and couples failure domains.  The planner therefore:

* groups queued jobs by :func:`~repro.serve.jobs.signature` (same
  program, params and stream lengths = can share a compiled loop);
* batches a group only when at least ``min_batch`` jobs are waiting
  **and** the batch's estimated completion violates no member's
  deadline (estimate = seeded EMA of observed per-batch service time,
  conservative before first observation);
* otherwise degrades gracefully to serial execution, deadline-tightest
  first.

All state is plain data and the decision function is synchronous, so
the policy is unit-testable without a running daemon.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .admission import AdmissionQueue, JobState
from . import jobs

#: EMA smoothing for service-time estimates
EMA_ALPHA = 0.3

#: conservative prior for a never-seen signature, seconds
DEFAULT_SECONDS = 0.25


@dataclass
class Dispatch:
    """One planner decision: a serial job or an interleaved batch."""

    states: list[JobState]
    batched: bool

    @property
    def ids(self) -> list[str]:
        return [s.spec.id for s in self.states]


class CostModel:
    """Seeded EMA of observed service seconds, per scope key."""

    def __init__(self, alpha: float, default: float) -> None:
        self.alpha = alpha
        self.default = default
        self._ema: dict[str, float] = {}

    def estimate(self, key: str) -> float:
        return self._ema.get(key, self.default)

    def observe(self, key: str, seconds: float) -> None:
        prev = self._ema.get(key)
        if prev is None:
            self._ema[key] = seconds
        else:
            self._ema[key] = (
                self.alpha * seconds + (1 - self.alpha) * prev
            )

    def mean(self) -> float:
        if not self._ema:
            return self.default
        return sum(self._ema.values()) / len(self._ema)


class BatchPlanner:
    """Drains an :class:`AdmissionQueue` into dispatch decisions.

    A lone batchable job lingers ``batch_wait`` seconds for companions
    (0: never); beside an idle worker no longer than its estimated
    serial run, since a longer wait costs more than a companion can
    save.  ``min_batch > max_batch`` means serial only."""

    def __init__(self, min_batch: int, max_batch: int, batch_wait: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.min_batch = min_batch
        self.max_batch = max_batch
        self.batch_wait = batch_wait
        self.clock = clock
        #: per-signature serial cost ("sig") and per-batch cost
        #: ("sig@b"), seconds
        self.costs = CostModel(EMA_ALPHA, DEFAULT_SECONDS)
        #: signature -> monotonic time its current lone job started
        #: waiting for companions
        self._lingering: dict[str, float] = {}
        #: monotonic time the last plan() wants the next one by (when
        #: a lingering job's wait ends)
        self.wake_at = float("inf")

    # -- cost bookkeeping ---------------------------------------------
    @staticmethod
    def _batch_key(sig: str, size: int) -> str:
        return f"{sig}@{size}"

    def observe(self, dispatch: Dispatch, seconds: float) -> None:
        sig = jobs.signature(dispatch.states[0].spec)
        if dispatch.batched:
            self.costs.observe(
                self._batch_key(sig, len(dispatch.states)), seconds
            )
        else:
            self.costs.observe(sig, seconds)

    def _batch_estimate(self, sig: str, size: int) -> float:
        key = self._batch_key(sig, size)
        if key in self.costs._ema:
            return self.costs.estimate(key)
        # prior: a batch of b costs at most b serial runs (the whole
        # point is that it costs much less), so this only delays the
        # first batch when deadlines are already tight
        return self.costs.estimate(sig) * size

    # -- planning ------------------------------------------------------
    def plan(self, queue: AdmissionQueue,
             idle: bool = False) -> list[Dispatch]:
        """Remove ready work from ``queue`` and decide its shape;
        ``idle``: a worker is free to run it now."""
        now = self.clock()
        dispatches: list[Dispatch] = []
        self.wake_at = float("inf")

        # non-batchable jobs go serial immediately, FIFO
        for state in queue.take_matching(
            lambda s: not jobs.batchable(s.spec), limit=queue.capacity
        ):
            dispatches.append(Dispatch([state], batched=False))

        # group the batchable ones by signature without removing yet
        groups: dict[str, list[JobState]] = {}
        for state in list(queue._queue):
            sig = jobs.signature(state.spec)
            groups.setdefault(sig, []).append(state)

        for sig, members in groups.items():
            size = min(len(members), self.max_batch)
            if size >= self.min_batch:
                est = self._batch_estimate(sig, size)
                safe = all(
                    m.remaining(now) > est for m in members[:size]
                )
                if safe:
                    chosen = {id(m) for m in members[:size]}
                    taken = queue.take_matching(
                        lambda s: id(s) in chosen, limit=size
                    )
                    self._lingering.pop(sig, None)
                    dispatches.append(Dispatch(taken, batched=True))
                    continue
                # batching would blow a deadline: degrade to serial,
                # tightest deadline first
                chosen = {id(m) for m in members}
                taken = queue.take_matching(
                    lambda s: id(s) in chosen, limit=len(members)
                )
                taken.sort(key=lambda s: s.deadline)
                self._lingering.pop(sig, None)
                dispatches.extend(
                    Dispatch([t], batched=False) for t in taken
                )
                continue
            # a lone batchable job: linger briefly for companions,
            # unless waiting would eat its deadline slack
            state = members[0]
            est = self.costs.estimate(sig)
            slack = state.remaining(now) - est
            since = self._lingering.setdefault(sig, now)
            limit = min(self.batch_wait, est) if idle else self.batch_wait
            if (limit > 0 and now - since < limit
                    and slack > self.batch_wait):
                self.wake_at = min(self.wake_at, since + limit)
                continue  # keep it queued one more pass
            chosen = {id(state)}
            taken = queue.take_matching(lambda s: id(s) in chosen, limit=1)
            self._lingering.pop(sig, None)
            if taken:
                dispatches.append(Dispatch(taken, batched=False))
        return dispatches

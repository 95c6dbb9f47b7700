"""Service observability: per-tenant and global counters with bounded
latency samples.

The one stats shape of :mod:`repro.machine.stats`: plain counter
fields plus a :class:`~repro.machine.stats.Samples` series of job
latencies, a ``to_dict`` built from the fields for the JSON envelope
and a one-line ``summary``.  Each series is seeded, so a deterministic
job sequence yields a deterministic sample set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ..machine.stats import Samples, fields_dict

#: the counter a failed job's error code adds one to
_FAILED = {
    "deadline": "failed_deadline",
    "retries_exhausted": "failed_retries",
}


@dataclass
class TenantStats:
    """Counters for one tenant, or the global roll-up."""

    accepted: int = 0
    shed: int = 0
    rejected: int = 0
    completed: int = 0
    failed_deadline: int = 0
    failed_retries: int = 0
    failed_execution: int = 0
    retries: int = 0
    batched: int = 0        # jobs that ran as a lane of a batch
    serial: int = 0         # jobs that ran alone
    readmitted: int = 0     # jobs re-admitted from the journal
    latency: Samples = field(default_factory=Samples, compare=False)

    @property
    def failed(self) -> int:
        return (self.failed_deadline + self.failed_retries
                + self.failed_execution)

    def note_done(self, latency_seconds: float, batched: bool) -> None:
        self.completed += 1
        if batched:
            self.batched += 1
        else:
            self.serial += 1
        self.latency.add(latency_seconds)

    def to_dict(self) -> dict[str, Any]:
        return fields_dict(self)


@dataclass
class ServeStats:
    """The daemon's full observability surface.

    ``queue_depth`` / ``inflight`` are gauges maintained by the server;
    everything else is monotonic.  ``to_dict`` is what the ``stats`` op
    returns inside the envelope.
    """

    seed: int = 0
    worker_respawns: int = 0
    quarantined_jobs: int = 0
    hot_restarts: int = 0
    queue_depth: int = 0
    inflight: int = 0
    batches: int = 0        # batches dispatched
    total: TenantStats = field(default=None)  # type: ignore[assignment]
    tenants: dict[str, TenantStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.total is None:
            self.total = TenantStats(latency=Samples(self.seed))

    def for_tenant(self, tenant: str) -> TenantStats:
        stats = self.tenants.get(tenant)
        if stats is None:
            # per-tenant reservoirs get distinct seeds, derived stably
            stats = TenantStats(
                latency=Samples(self.seed + 1 + len(self.tenants))
            )
            self.tenants[tenant] = stats
        return stats

    def note(self, tenant: str, counter: str) -> None:
        """Add one to ``counter``, globally and for ``tenant``."""
        for s in (self.total, self.for_tenant(tenant)):
            setattr(s, counter, getattr(s, counter) + 1)

    def note_done(self, tenant: str, latency_seconds: float,
                  batched: bool) -> None:
        for s in (self.total, self.for_tenant(tenant)):
            s.note_done(latency_seconds, batched)

    def note_failed(self, tenant: str, code: str) -> None:
        self.note(tenant, _FAILED.get(code, "failed_execution"))

    def to_dict(self) -> dict[str, Any]:
        d = self.total.to_dict()
        d.update(
            queue_depth=self.queue_depth,
            inflight=self.inflight,
            batches=self.batches,
            worker_respawns=self.worker_respawns,
            quarantined_jobs=self.quarantined_jobs,
            hot_restarts=self.hot_restarts,
            tenants={
                name: s.to_dict()
                for name, s in sorted(self.tenants.items())
            },
        )
        return d

    def summary(self) -> str:
        t = self.total
        p99 = t.latency.percentile(0.99)
        p99_text = "-" if math.isnan(p99) else f"{p99 * 1000:.1f}ms"
        return (
            f"serve: {t.accepted} accepted ({t.shed} shed, "
            f"{t.rejected} rejected), {t.completed} completed "
            f"({t.batched} batched / {t.serial} serial), "
            f"{t.failed} failed, {t.retries} retries, "
            f"{self.worker_respawns} worker respawns, p99 {p99_text}"
        )

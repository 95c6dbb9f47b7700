"""``repro serve``: a fault-isolated multi-tenant pipeline service.

A long-lived asyncio daemon that admits jobs over the stable ``--json``
envelope, runs compatible recurrence jobs as lanes of one run of a
resident serial pipeline, executes everything in a
supervised worker pool, and hot-restarts from a journaled admission
queue without losing an accepted job.  See DESIGN.md section 11.
"""

from .admission import AdmissionQueue, JobJournal, JobState
from .pool import WorkerFailure, WorkerPool
from .protocol import (
    JOB_KINDS,
    MAX_LINE_BYTES,
    JobDeadlineExceeded,
    JobExecutionError,
    JobRejected,
    JobRetriesExhausted,
    JobSpec,
    ServeError,
    ServerOverloaded,
    envelope,
    error_from_dict,
)
from .scheduler import BatchPlanner, Dispatch
from .server import PipelineServer, ServeConfig, run_server
from .stats import ServeStats, TenantStats

__all__ = [
    "AdmissionQueue",
    "BatchPlanner",
    "Dispatch",
    "JOB_KINDS",
    "JobDeadlineExceeded",
    "JobExecutionError",
    "JobJournal",
    "JobRejected",
    "JobRetriesExhausted",
    "JobSpec",
    "JobState",
    "MAX_LINE_BYTES",
    "PipelineServer",
    "ServeConfig",
    "ServeError",
    "ServeStats",
    "ServerOverloaded",
    "TenantStats",
    "WorkerFailure",
    "WorkerPool",
    "envelope",
    "error_from_dict",
    "run_server",
]

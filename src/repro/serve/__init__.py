"""``repro serve``: a fault-isolated multi-tenant pipeline service.

A long-lived asyncio daemon that admits jobs over the stable ``--json``
envelope, runs compatible recurrence jobs as lanes of one run of a
resident serial pipeline, executes everything in a
supervised worker pool, and hot-restarts from a journaled admission
queue without losing an accepted job.  See DESIGN.md section 11.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".admission": "AdmissionQueue JobJournal JobState",
    ".pool": "WorkerFailure WorkerPool",
    ".protocol": "JOB_KINDS MAX_LINE_BYTES JobDeadlineExceeded "
                 "JobExecutionError JobRejected JobRetriesExhausted JobSpec "
                 "ServeError ServerOverloaded envelope error_from_dict",
    ".scheduler": "BatchPlanner Dispatch",
    ".server": "PipelineServer ServeConfig run_server",
    ".stats": "ServeStats TenantStats",
})

"""Simulators for machine-level dataflow programs.

* :mod:`repro.sim.sync` -- the unit-delay ("instruction time")
  simulator whose timing the paper's rate arguments assume;
* :mod:`repro.sim.trace` -- trace/utilization reporting.

The event-driven machine-level model (processing elements, function
units, array memories, routing networks) lives in :mod:`repro.machine`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".sync": "SimStats SinkRecord SyncSimulator",
    ".trace": "count_stage_depth format_trace occupancy_snapshot "
              "utilization_report",
})

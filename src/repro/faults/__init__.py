"""Fault injection and reliability modelling for the machine simulator.

The paper's machine assumes reliable packet networks; this package
models what happens when they are not.  A seeded :class:`FaultPlan`
describes packet drops, duplications, transient corruption and unit
outages/slowdowns; :class:`repro.machine.Machine` executes a workload
under the plan, and (with recovery enabled) its reliability layer --
sequence-numbered result/ack packets, timeout retransmission, duplicate
suppression and failed-unit eviction -- delivers outputs bit-identical
to a fault-free run.

See ``python -m repro faults --help`` and the "Fault model & recovery"
section of DESIGN.md.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".injector": "FaultInjector FaultStats PacketFate",
    ".plan": "FAULT_KINDS SCHEMA_VERSION SHARD_FAULT_KINDS UNIT_KINDS "
             "FaultPlan FaultPlanError ShardFault UnitFault",
})

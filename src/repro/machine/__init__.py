"""Event-driven model of the static dataflow machine of Figure 1.

Processing elements with instruction-cell memories and bounded dispatch
bandwidth, pipelined function units, array memory units and
packet-switched routing networks, executing the same machine-level
instruction graphs as :mod:`repro.sim` with configurable latencies.
"""

from .._lazy import lazy_exports

# ``diagnose`` names both a submodule and its function: bound here, or
# ``import repro.machine.diagnose`` would rebind it to the module
from .diagnose import diagnose

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "..errors": "ShardCrashError",
    ".config": "DEFAULT_FU_LATENCY MachineConfig",
    ".diagnose": "BlockedProducer DeadlockDiagnosis StarvedCell diagnose",
    ".machine": "Machine",
    ".packets": "PacketCounters UnitClass classify_unit",
    ".shard_config": "RecoveryPolicy ShardConfig",
    ".shard_runner": "ShardedRunner ShardHangError ShardRecoveryExhausted",
    ".sharded": "ShardMachine",
    ".stats": "CheckpointStats MachineStats RecoveryStats "
              "ReliabilityStats",
})

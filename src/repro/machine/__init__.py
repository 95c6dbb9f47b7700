"""Event-driven model of the static dataflow machine of Figure 1.

Processing elements with instruction-cell memories and bounded dispatch
bandwidth, pipelined function units, array memory units and
packet-switched routing networks, executing the same machine-level
instruction graphs as :mod:`repro.sim` with configurable latencies.
"""

from .config import DEFAULT_FU_LATENCY, MachineConfig
from .diagnose import (
    BlockedProducer,
    DeadlockDiagnosis,
    StarvedCell,
    diagnose,
)
from .machine import Machine
from .shard_config import RecoveryPolicy, ShardConfig
from .shard_runner import (
    ShardCrashError,
    ShardedRunner,
    ShardHangError,
    ShardRecoveryExhausted,
)
from .sharded import ShardMachine
from .packets import PacketCounters, UnitClass, classify_unit
from .stats import (
    CheckpointStats,
    MachineStats,
    RecoveryStats,
    ReliabilityStats,
)

__all__ = [
    "BlockedProducer",
    "CheckpointStats",
    "DEFAULT_FU_LATENCY",
    "DeadlockDiagnosis",
    "Machine",
    "MachineConfig",
    "MachineStats",
    "PacketCounters",
    "RecoveryPolicy",
    "RecoveryStats",
    "ReliabilityStats",
    "ShardConfig",
    "ShardCrashError",
    "ShardHangError",
    "ShardRecoveryExhausted",
    "ShardMachine",
    "ShardedRunner",
    "StarvedCell",
    "UnitClass",
    "classify_unit",
    "diagnose",
]

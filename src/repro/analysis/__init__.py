"""Static analyses of machine-level dataflow programs.

* :mod:`repro.analysis.rate` -- steady-state initiation-interval bound
  via minimum cycle mean on the marked graph (forward arcs + reverse
  acknowledge arcs);
* :mod:`repro.analysis.paths` -- equal-path-length (balance) checking;
* :mod:`repro.analysis.traffic` -- operation-packet destination
  breakdown (function units vs array memories vs local);
* :mod:`repro.analysis.partition` -- K-way shard assignment for the
  multi-process runner (level min-cut with round-robin fallback);
* :mod:`repro.analysis.scc` -- strongly connected components, shared
  by the rate analysis, the partitioner, the for-iter feedback marking
  and the compiled backend's stream evaluator.
"""

from .partition import Partition, PartitionError, partition_graph
from .paths import (
    BalanceReport,
    check_balance,
    count_buffer_cells,
    default_arc_weight,
    longest_path_levels,
    pipeline_depth,
)
from .report import BlockReport, ProgramReport, analyze_program
from .rate import (
    MAX_RATE,
    RateReport,
    analyze_rate,
    initiation_interval_bound,
    is_fully_pipelined,
)
from .traffic import TrafficReport, static_traffic_estimate, traffic_breakdown

__all__ = [
    "BalanceReport",
    "BlockReport",
    "ProgramReport",
    "MAX_RATE",
    "Partition",
    "PartitionError",
    "RateReport",
    "TrafficReport",
    "analyze_program",
    "analyze_rate",
    "check_balance",
    "count_buffer_cells",
    "default_arc_weight",
    "initiation_interval_bound",
    "is_fully_pipelined",
    "longest_path_levels",
    "partition_graph",
    "pipeline_depth",
    "static_traffic_estimate",
    "traffic_breakdown",
]

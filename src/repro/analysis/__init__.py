"""Static analyses of machine-level dataflow programs.

* :mod:`repro.analysis.rate` -- steady-state initiation-interval bound
  via minimum cycle mean on the marked graph (forward arcs + reverse
  acknowledge arcs);
* :mod:`repro.analysis.paths` -- equal-path-length (balance) checking
  and the longest-path pipeline depth;
* :mod:`repro.analysis.traffic` -- operation-packet destination
  breakdown (function units vs array memories vs local);
* :mod:`repro.analysis.partition` -- K-way shard assignment for the
  multi-process runner (level min-cut with round-robin fallback);
* :mod:`repro.analysis.scc` -- strongly connected components, shared
  by the rate analysis, the partitioner, the for-iter feedback marking
  and the compiled backend's stream evaluator.

A compiled program's per-block loop facts (length, tokens, rate bound)
are printed by :meth:`repro.compiler.CompiledProgram.describe`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".partition": "Partition PartitionError partition_graph",
    ".paths": "BalanceReport check_balance count_buffer_cells "
              "default_arc_weight longest_path_levels pipeline_depth",
    ".rate": "MAX_RATE RateReport analyze_rate initiation_interval_bound "
             "is_fully_pipelined",
    ".traffic": "TrafficReport static_traffic_estimate traffic_breakdown",
})

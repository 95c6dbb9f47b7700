"""Experiment faults -- pipeline robustness under injected faults.

The paper's machine keeps its pipelines full with acknowledge packets
and a single token per arc; this experiment measures what that
discipline costs when the networks misbehave.  Every paper-figure
workload runs under a seeded fault plan (result-packet drops,
duplications and corruption) with the reliability layer on; the run
must finish with outputs bit-identical to the fault-free run, and the
table records the cycle-count overhead the recovery traffic adds.
"""

import pytest

import repro
from repro.faults import FaultPlan
from repro.workloads.figures import FIGURES

from _common import bench_once, extra, record_rows

PLAN = FaultPlan(
    seed=99,
    drop_result=0.05,
    dup_result=0.05,
    corrupt_result=0.01,
    drop_ack=0.03,
)

M = 40


def _run_pair(figure):
    workload = FIGURES[figure]
    cp = workload.compile(m=M)
    inputs = workload.make_inputs(cp, seed=0)
    res = repro.run(cp.graph, inputs)
    clean_out, clean_stats = res.outputs, res.stats
    res = repro.run(cp.graph, inputs, faults=PLAN)
    out, stats = res.outputs, res.stats
    assert out == clean_out, f"{figure}: outputs diverged under faults"
    return clean_stats, stats


@pytest.mark.benchmark(group="faults")
def test_recovery_overhead_across_figures(benchmark):
    def sweep():
        rows = []
        for figure in sorted(FIGURES):
            clean_stats, stats = _run_pair(figure)
            rel = stats.reliability
            assert rel.retransmissions > 0
            assert rel.duplicates_suppressed > 0
            rows.append(
                (
                    figure,
                    clean_stats.cycles,
                    stats.cycles,
                    round(stats.cycles / clean_stats.cycles, 2),
                    rel.retransmissions,
                    rel.duplicates_suppressed,
                    rel.corruptions_detected,
                )
            )
        return rows

    rows = bench_once(benchmark, sweep, rounds=1)
    record_rows(
        "faults_recovery",
        "figure  clean_cycles  faulty_cycles  slowdown  retx  dups  corrupt",
        rows,
        note=f"plan: {PLAN.describe()}; outputs bit-identical in every run",
    )


@pytest.mark.benchmark(group="faults")
def test_recovery_cost_scales_with_drop_rate(benchmark):
    workload = FIGURES["fig2"]
    cp = workload.compile(m=M)
    inputs = workload.make_inputs(cp, seed=0)
    clean_stats = repro.run(cp.graph, inputs).stats

    def sweep():
        rows = []
        for drop in (0.0, 0.02, 0.05, 0.10, 0.20):
            plan = FaultPlan(seed=7, drop_result=drop)
            res = repro.run(cp.graph, inputs, faults=plan)
            out, stats = res.outputs, res.stats
            rows.append(
                (
                    drop,
                    stats.cycles,
                    round(stats.cycles / clean_stats.cycles, 2),
                    stats.reliability.retransmissions,
                )
            )
        return rows

    rows = bench_once(benchmark, sweep, rounds=1)
    # more loss -> more retransmissions -> more cycles, monotonically
    cycles = [r[1] for r in rows]
    assert cycles == sorted(cycles)
    extra(benchmark, max_slowdown=rows[-1][2])
    record_rows(
        "faults_drop_sweep",
        "drop_p  cycles  slowdown  retransmissions",
        rows,
        note="fig2, m=40: recovery cost grows with result-drop probability",
    )

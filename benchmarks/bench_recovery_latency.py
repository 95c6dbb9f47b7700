"""Experiment recovery -- in-process self-healing cost vs checkpoint
cadence.

A killed worker forces the sharded runner to roll every shard back to
the latest complete coordinated set and replay the lost windows, so
the checkpoint interval buys recovery latency with snapshot overhead:
shorter intervals mean fewer cycles to replay after a failure.  This
experiment kills one of four fig7 workers mid-run at several
intervals, verifies the healed outputs stay bit-identical to a
fault-free run, and records detection-to-resume latency and replayed
cycles under ``benchmarks/results/``.

The paper constrains none of these wall-clock numbers -- the table
documents the interval/replay trade so the self-healing defaults are
inspectable, not that a Python simulator recovers quickly.
"""

import time

import pytest

from repro.checkpoint import CheckpointConfig
from repro.faults import FaultPlan, ShardFault
from repro.machine import (
    MachineConfig,
    RecoveryPolicy,
    ShardConfig,
    ShardedRunner,
)
from repro.workloads import figure_workload

INTERVALS = [10, 25, 50, 100]
SHARDS = 4
M = 24
KILL_AT = 120

_rows: dict[int, tuple] = {}


def _workload():
    wl = figure_workload("fig7")
    cp = wl.compile(m=M)
    return cp.graph, cp.prepare_inputs(wl.make_inputs(cp))


def _run(graph, streams, tmp, interval, plan):
    start = time.perf_counter()
    runner = ShardedRunner(
        graph, streams, config=MachineConfig.unit_time(),
        checkpoint=CheckpointConfig(
            tmp / f"snaps-{interval}", interval=interval, retain=3
        ),
        fault_plan=plan,
        shard_config=ShardConfig(
            shards=SHARDS, processes=True,
            recovery=RecoveryPolicy(backoff_base=0.0, jitter=0.0),
        ),
    )
    stats = runner.run()
    elapsed = time.perf_counter() - start
    return runner.outputs(), stats, elapsed


@pytest.mark.benchmark(group="recovery")
@pytest.mark.parametrize("interval", INTERVALS)
def test_recovery_latency(benchmark, interval, tmp_path):
    graph, streams = _workload()
    clean_plan = FaultPlan(derivation="keyed")
    kill_plan = FaultPlan.from_dict({
        **clean_plan.to_dict(),
        "shard_faults": [
            {"shard": 2, "cycle": KILL_AT, "kind": "kill"}
        ],
    })
    reference, _, _ = _run(
        graph, streams, tmp_path / "ref", interval, clean_plan
    )

    def once():
        return _run(graph, streams, tmp_path, interval, kill_plan)

    outputs, stats, elapsed = benchmark.pedantic(
        once, rounds=1, iterations=1, warmup_rounds=0
    )
    assert outputs == reference, (
        f"interval={interval}: healed run diverged"
    )
    rec = stats.recovery
    assert rec.detections == 1 and rec.respawns == 1
    p50 = rec.latency_percentile(0.50)
    benchmark.extra_info["interval"] = interval
    benchmark.extra_info["latency_p50_ms"] = round(p50 * 1000, 1)
    benchmark.extra_info["cycles_replayed"] = rec.cycles_replayed
    _rows[interval] = (
        interval, rec.cycles_replayed, f"{p50 * 1000:.1f}",
        f"{elapsed:.3f}",
    )
    from _common import record_rows

    record_rows(
        "recovery_latency",
        "interval  cycles_replayed  recovery_ms_p50  run_seconds",
        [_rows[key] for key in sorted(_rows)],
        note=f"fig7 (Todd for-iter) m={M}, K={SHARDS} worker "
             f"processes, one worker killed near cycle {KILL_AT}; "
             f"outputs bit-identical to the fault-free run at every "
             f"interval; shorter checkpoint intervals bound the "
             f"post-rollback replay",
    )

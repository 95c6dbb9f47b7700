"""Experiment fidelity -- validating the cheap model against the
machine-level one (our substitution for the paper's hardware).

The rate arguments are made in abstract "instruction times"; the
event-driven machine model adds dispatch bandwidth, function-unit
latencies and routing delays.  Rows:

* unit-latency machine == unit-delay simulator (identical schedules);
* realistic latencies stretch the cycle per "instruction time" but keep
  the *relative* Todd-vs-companion shape (who wins, by what factor);
* PE count sweep: dispatch bandwidth matters until the pipeline's
  parallelism is covered.
"""

import pytest

import repro
from repro.compiler import compile_program
from repro.machine import MachineConfig
from repro.workloads import EXAMPLE1_SOURCE, EXAMPLE2_SOURCE

from _common import bench_once, constant_inputs, extra, record_rows

M = 80


@pytest.mark.benchmark(group="fidelity")
def test_unit_time_machine_matches_abstract_model(benchmark):
    cp = compile_program(EXAMPLE1_SOURCE, params={"m": M})
    inputs = constant_inputs(cp)
    sync_res = repro.run(cp.graph, inputs, backend="sync")

    def run():
        return repro.run(cp.graph, inputs, config=MachineConfig.unit_time())

    res = bench_once(benchmark, run)
    outs, stats, machine = res.outputs, res.stats, res.engine
    assert outs["A"] == sync_res.outputs["A"]
    sync_times = sync_res.sink_times["A"]
    mach_times = machine.sink_arrival_times("A")
    offsets = {m - s for s, m in zip(sync_times, mach_times)}
    extra(benchmark, schedule_offsets=len(offsets))
    assert len(offsets) == 1


@pytest.mark.benchmark(group="fidelity")
def test_relative_shape_survives_real_latencies(benchmark):
    """Todd vs companion on the realistic machine: companion still wins."""

    def measure():
        out = {}
        for scheme in ("todd", "companion"):
            cp = compile_program(
                EXAMPLE2_SOURCE, params={"m": M}, foriter_scheme=scheme
            )
            inputs = constant_inputs(cp, 0.5)
            stats = repro.run(
                cp.graph, inputs, config=MachineConfig(n_pes=8, n_fus=8),
            ).stats
            out[scheme] = stats.cycles
        return out

    cycles = bench_once(benchmark, measure, rounds=1)
    ratio = cycles["todd"] / cycles["companion"]
    extra(benchmark, speedup=ratio)
    assert ratio > 1.15  # the winner does not flip under real latencies

    record_rows(
        "fidelity",
        "model  todd cycles  companion cycles  speedup",
        [
            (
                "machine (FU/RN latencies)",
                cycles["todd"],
                cycles["companion"],
                round(ratio, 3),
            ),
        ],
        note="abstract-model speedup is 1.5; real latencies compress but "
        "preserve the ordering",
    )


@pytest.mark.benchmark(group="fidelity")
def test_pe_dispatch_sweep(benchmark):
    cp = compile_program(EXAMPLE1_SOURCE, params={"m": M})
    inputs = constant_inputs(cp)

    def sweep():
        out = {}
        for n_pes in (1, 2, 4, 8):
            stats = repro.run(
                cp.graph, inputs,
                config=MachineConfig(n_pes=n_pes, n_fus=8),
            ).stats
            out[n_pes] = stats.cycles
        return out

    cycles = bench_once(benchmark, sweep, rounds=1)
    assert cycles[8] <= cycles[1]
    extra(benchmark, **{f"pes_{k}": v for k, v in cycles.items()})
    record_rows(
        "fidelity_pes",
        "PEs  cycles (Example 1, m=80)",
        sorted(cycles.items()),
        note="bounded per-PE dispatch: more PEs until the pipeline's "
        "concurrency is covered",
    )

"""Experiment thm4 -- fully pipelined pipe-structured programs
(paper Section 8, Theorem 4; the Figure 3 program).

Claims reproduced:

* the linked Example1 -> Example2 program (Figure 3) runs fully
  pipelined end to end after inter-block balancing;
* the computation rate is set by the slowest block: with the for-iter
  block compiled by Todd's scheme, the *whole* pipe drops to 1/3;
* a diamond-shaped flow dependency graph (reconvergent blocks) balances
  and runs at full rate;
* random pipe-structured programs (several hundred blocks is the
  paper's application scale; we sweep up to 12) stay fully pipelined.
"""

import random

import pytest

from repro.compiler import compile_program
from repro.workloads import (
    DIAMOND_PIPE_SOURCE,
    FIG3_SOURCE,
    random_pipe_program,
)

from _common import bench_once, constant_inputs, extra, record_rows, steady_ii

M = 300


@pytest.mark.benchmark(group="thm4")
def test_thm4_fig3_fully_pipelined(benchmark):
    cp = compile_program(FIG3_SOURCE, params={"m": M})
    res = bench_once(benchmark, cp.run, constant_inputs(cp))
    ii = steady_ii(res.run.sink_times["X"])
    extra(benchmark, initiation_interval=ii)
    assert ii == pytest.approx(2.0, abs=0.05)


@pytest.mark.benchmark(group="thm4")
def test_thm4_slowest_block_sets_the_rate(benchmark):
    def both():
        out = {}
        for scheme in ("companion", "todd"):
            cp = compile_program(
                FIG3_SOURCE, params={"m": M}, foriter_scheme=scheme
            )
            res = cp.run(constant_inputs(cp))
            out[scheme] = steady_ii(res.run.sink_times["X"])
        return out

    data = bench_once(benchmark, both, rounds=1)
    extra(benchmark, **{f"{k}_ii": v for k, v in data.items()})
    assert data["companion"] == pytest.approx(2.0, abs=0.05)
    assert data["todd"] == pytest.approx(3.0, abs=0.05)
    record_rows(
        "thm4",
        "program  for-iter scheme  end-to-end II",
        [
            ("fig3 (Example1 -> Example2)", "companion", round(data["companion"], 3)),
            ("fig3 (Example1 -> Example2)", "todd", round(data["todd"], 3)),
        ],
        note="the slowest stage sets the whole pipe's rate (Sec. 3)",
    )


@pytest.mark.benchmark(group="thm4")
def test_thm4_diamond_flow_graph(benchmark):
    cp = compile_program(DIAMOND_PIPE_SOURCE, params={"m": M})
    res = bench_once(benchmark, cp.run, constant_inputs(cp))
    ii = steady_ii(res.run.sink_times["Z"])
    extra(benchmark, initiation_interval=ii)
    assert ii == pytest.approx(2.0, abs=0.05)


@pytest.mark.benchmark(group="thm4")
def test_thm4_block_count_sweep(benchmark):
    """End-to-end II stays 2.0 as the block chain grows (the paper
    envisions programs of several hundred blocks)."""

    def sweep():
        rows = []
        for n_blocks in (2, 6, 12):
            src = random_pipe_program(
                random.Random(n_blocks), n_blocks=n_blocks
            )
            cp = compile_program(src, params={"m": 200})
            res = cp.run(constant_inputs(cp, 0.25))
            stream = next(iter(cp.output_specs))
            rows.append(
                (n_blocks, cp.cell_count,
                 steady_ii(res.run.sink_times[stream]))
            )
        return rows

    rows = bench_once(benchmark, sweep, rounds=1)
    for n_blocks, _cells, ii in rows:
        assert ii == pytest.approx(2.0, abs=0.05), f"{n_blocks} blocks"
    record_rows(
        "thm4_sweep",
        "blocks  cells  II",
        [(b, c, round(ii, 3)) for b, c, ii in rows],
        note="Theorem 4: linked pipe-structured programs stay fully pipelined",
    )

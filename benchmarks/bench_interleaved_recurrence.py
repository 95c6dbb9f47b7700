"""Experiment interleave -- the Section 9 latency-for-rate trade.

"A recurrence having a cyclic dependence of four operators may be
implemented at the maximum rate by introducing a delay (via a FIFO
buffer) of length equal to the number of elements in the array being
generated" -- i.e. interleave independent recurrence instances through
one loop.  Rows: batch size vs II (per element) and first-output
latency; the companion scheme is the single-instance comparison point.
"""

import pytest

import repro
from repro.compiler import (
    ArraySpec,
    balance_graph,
    compile_foriter_interleaved,
    interleave,
)
from repro.val import parse_program
from repro.workloads import EXAMPLE2_SOURCE

from _common import bench_once, extra, record_rows, steady_ii

M = 120


def _run_batch(batch: int):
    node = parse_program(EXAMPLE2_SOURCE).blocks[0].expr
    specs = {"A": ArraySpec("A", 1, M), "B": ArraySpec("B", 1, M)}
    art = compile_foriter_interleaved(
        "X", node, specs, {"m": M}, batch=batch
    )
    balance_graph(art.graph)
    a = interleave([[1.0] * M] * batch)
    b = interleave([[0.5] * M] * batch)
    res = repro.run(art.graph, {"A": a, "B": b}, backend="sync")
    times = res.sink_times["X"]
    return art, steady_ii(times), times[0]


@pytest.mark.benchmark(group="interleave")
@pytest.mark.parametrize("batch", [2, 4, 8])
def test_interleaved_full_rate(benchmark, batch):
    art, ii, first = bench_once(benchmark, _run_batch, batch)
    loop = art.graph.meta["loop"]
    extra(benchmark, initiation_interval=ii, first_output=first,
          loop_length=loop["length"])
    assert loop["length"] == 2 * batch
    assert ii == pytest.approx(2.0, abs=0.05)


@pytest.mark.benchmark(group="interleave")
def test_interleaved_latency_trade(benchmark):
    """Larger batches keep the maximum rate but delay each individual
    instance's results (the Section 9 trade-off)."""

    def sweep():
        return {batch: _run_batch(batch)[1:] for batch in (2, 4, 8)}

    data = bench_once(benchmark, sweep, rounds=1)
    iis = {b: v[0] for b, v in data.items()}
    firsts = {b: v[1] for b, v in data.items()}
    assert all(ii == pytest.approx(2.0, abs=0.05) for ii in iis.values())
    assert firsts[8] >= firsts[2]
    record_rows(
        "interleave",
        "batch  loop_length  II/element  first output step",
        [
            (b, 2 * b, round(iis[b], 3), firsts[b])
            for b in sorted(iis)
        ],
        note="Sec. 9: maximum rate without a companion function, paid in "
        "latency/batching",
    )

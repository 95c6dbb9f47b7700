"""Experiment gtree -- the associative companion tree (Section 7).

"If the number of stages in F is p, we can construct a companion
pipeline consisting of log2(p) levels of G" -- because G is
associative, larger dependence distances s need only a log-depth tree
of G stages.  Rows: distance s vs loop shape, companion-pipeline cell
count (growing ~linearly in s with log depth), and II (constant 2.0).
"""

import math

import pytest

from repro.compiler import compile_program
from repro.workloads import EXAMPLE2_SOURCE

from _common import bench_once, constant_inputs, extra, record_rows, steady_ii

M = 240


def _measure(distance: int):
    cp = compile_program(
        EXAMPLE2_SOURCE,
        params={"m": M},
        foriter_scheme="companion",
        distance=distance,
    )
    res = cp.run(constant_inputs(cp, 0.5))
    loop = cp.artifacts["X"].graph.meta["loop"]
    return (
        loop["length"],
        loop["tokens"],
        cp.cell_count,
        steady_ii(res.run.sink_times["X"]),
    )


@pytest.mark.benchmark(group="gtree")
@pytest.mark.parametrize("distance", [2, 4, 8])
def test_gtree_distance_keeps_max_rate(benchmark, distance):
    length, tokens, cells, ii = bench_once(benchmark, _measure, distance)
    extra(benchmark, loop_length=length, cells=cells, initiation_interval=ii)
    assert (length, tokens) == (2 * distance, distance)
    assert ii == pytest.approx(2.0, abs=0.05)


@pytest.mark.benchmark(group="gtree")
def test_gtree_sweep(benchmark):
    def sweep():
        return {s: _measure(s) for s in (2, 3, 4, 8, 16)}

    data = bench_once(benchmark, sweep, rounds=1)
    rows = []
    for s, (length, tokens, cells, ii) in sorted(data.items()):
        assert ii == pytest.approx(2.0, abs=0.05), f"s={s}"
        rows.append((s, f"{length}/{tokens}", cells,
                     math.ceil(math.log2(s)), round(ii, 3)))
    # cell count grows with s (more G stages), II does not
    assert data[16][2] > data[2][2]
    record_rows(
        "gtree",
        "distance_s  loop(len/tokens)  cells  G_tree_depth  II",
        rows,
        note="G associative -> log2(s) tree of companion stages; rate stays "
        "at the maximum for every distance",
    )

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

from _common import axis, constant_inputs, record_claim, steady_ii

M = 300
BLOCKS = [2, 6, 12]


def _ii(source: str, m: int = M, value: float = 1.0, **options):
    cp = compile_program(source, params={"m": m}, **options)
    res = cp.run(constant_inputs(cp, value))
    stream = next(iter(cp.output_specs))
    return cp, steady_ii(res.run.sink_times[stream])


def test_thm4():
    _, companion = _ii(FIG3_SOURCE, foriter_scheme="companion")
    _, todd = _ii(FIG3_SOURCE, foriter_scheme="todd")
    _, diamond = _ii(DIAMOND_PIPE_SOURCE)
    cells, iis = [], []
    for n_blocks in BLOCKS:
        src = random_pipe_program(random.Random(n_blocks), n_blocks=n_blocks)
        cp, ii = _ii(src, m=200, value=0.25)
        cells.append(cp.cell_count)
        iis.append(ii)
    record_claim(
        "thm4",
        "§8 / Thm 4 / Fig 3: linked pipe-structured programs fully "
        "pipelined; §3: rate set by the slowest stage",
        "II 2 end-to-end; Todd block throttles all",
        {"fig3 companion II": companion, "fig3-with-Todd II": todd,
         "diamond flow graph II": diamond,
         f"cells of random chains of {axis(BLOCKS)} blocks": cells,
         "their II": iis},
        companion == pytest.approx(2.0, abs=0.05)
        and todd == pytest.approx(3.0, abs=0.05)
        and diamond == pytest.approx(2.0, abs=0.05)
        and all(ii == pytest.approx(2.0, abs=0.05) for ii in iis),
    )

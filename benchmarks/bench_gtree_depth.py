"""Experiment gtree -- the associative companion tree (Section 7).

"If the number of stages in F is p, we can construct a companion
pipeline consisting of log2(p) levels of G" -- because G is
associative, larger dependence distances s need only a log-depth tree
of G stages.  Rows: distance s vs loop shape, companion-pipeline cell
count (growing with s), and II (constant 2.0).
"""

import pytest

from repro.compiler import compile_program
from repro.workloads import EXAMPLE2_SOURCE

from _common import axis, constant_inputs, record_claim, steady_ii

M = 240
DISTANCES = [2, 3, 4, 8, 16]


def test_gtree_sweep():
    loops, cells, iis = [], [], []
    for s in DISTANCES:
        cp = compile_program(
            EXAMPLE2_SOURCE,
            params={"m": M},
            foriter_scheme="companion",
            distance=s,
        )
        res = cp.run(constant_inputs(cp, 0.5))
        loop = cp.artifacts["X"].graph.meta["loop"]
        loops.append((loop["length"], loop["tokens"]))
        cells.append(cp.cell_count)
        iis.append(steady_ii(res.run.sink_times["X"]))
    record_claim(
        "gtree",
        "§7 remark: G is associative → log₂ p levels of G for deeper "
        "dependence distances s",
        "rate stays 1/2",
        {f"loop stages at s = {axis(DISTANCES)}": [n for n, _ in loops],
         "loop values": [t for _, t in loops], "cells": cells, "II": iis},
        loops == [(2 * s, s) for s in DISTANCES]
        and all(ii == pytest.approx(2.0, abs=0.05) for ii in iis)
        # cell count grows with s (more G stages), II does not
        and cells[-1] > cells[0],
    )

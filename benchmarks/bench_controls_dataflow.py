"""Experiment controls -- control sequences as dataflow code (Todd).

The paper: boolean control sequences "can be generated by
straightforward arrangements of data flow instructions" [15].  With
``controls='dataflow'`` the compiler expands every pattern table into a
self-clocked counter + comparator subgraph; Example 1 then contains
*only* ordinary machine instructions.  Measured: cell cost, table count
and throughput of both control representations.
"""

import pytest

from repro.compiler import compile_program
from repro.graph import Op
from repro.workloads import EXAMPLE1_SOURCE

from _common import constant_inputs, record_claim, steady_ii

M = 240


def test_controls():
    measured = {}
    for mode in ("patterns", "dataflow"):
        cp = compile_program(EXAMPLE1_SOURCE, params={"m": M}, controls=mode)
        tables = [
            c for c in cp.graph.cells_by_op(Op.SOURCE) if "values" in c.params
        ]
        res = cp.run(constant_inputs(cp))
        measured[f"{mode}: cells/tables/II"] = [
            cp.cell_count, len(tables),
            round(steady_ii(res.run.sink_times["A"]), 3),
        ]
    record_claim(
        "controls",
        "§6 / Todd [15]: \"sequences of boolean control values can be "
        "generated by straightforward arrangements of data flow "
        "instructions\"; `controls='dataflow'` turns every pattern table "
        "into a self-clocked counter + comparators",
        "no numbers",
        measured,
        measured["dataflow: cells/tables/II"][1] == 0  # table-free code
        and all(v[2] == pytest.approx(2.0, abs=0.05)
                for v in measured.values()),
    )

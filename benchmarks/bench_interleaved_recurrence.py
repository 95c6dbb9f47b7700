"""Experiment interleave -- the Section 9 latency-for-rate trade.

"A recurrence having a cyclic dependence of four operators may be
implemented at the maximum rate by introducing a delay (via a FIFO
buffer) of length equal to the number of elements in the array being
generated" -- i.e. interleave independent recurrence instances through
one loop.  Rows: batch size vs loop length, II (per element) and
first-output step; larger batches keep the maximum rate but delay each
instance's results.
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

from _common import axis, record_claim, steady_ii

M = 120
BATCHES = [2, 4, 8]


def test_interleaved_latency_trade():
    node = parse_program(EXAMPLE2_SOURCE).blocks[0].expr
    specs = {"A": ArraySpec("A", 1, M), "B": ArraySpec("B", 1, M)}
    lengths, iis, firsts = [], [], []
    for batch in BATCHES:
        art = compile_foriter_interleaved(
            "X", node, specs, {"m": M}, batch=batch
        )
        balance_graph(art.graph)
        a = interleave([[1.0] * M] * batch)
        b = interleave([[0.5] * M] * batch)
        times = repro.run(art.graph, {"A": a, "B": b},
                          backend="sync").sink_times["X"]
        lengths.append(art.graph.meta["loop"]["length"])
        iis.append(steady_ii(times))
        firsts.append(times[0])
    record_claim(
        "interleave",
        "§9: cyclic dependence at max rate \"by introducing a delay ... "
        "of length equal to the number of elements\" (batch "
        "interleaving); no companion function needed",
        "rate 1/2, latency cost",
        {f"loop stages at batch {axis(BATCHES)}": lengths,
         "II per element": iis,
         "first output step": firsts},
        lengths == [2 * b for b in BATCHES]
        and all(ii == pytest.approx(2.0, abs=0.05) for ii in iis)
        and firsts[-1] >= firsts[0],
    )

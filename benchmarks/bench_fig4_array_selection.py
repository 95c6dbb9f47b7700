"""Experiment fig4 -- pipelined array selection (paper Figure 4).

``0.25*(C[i-1] + 2*C[i] + C[i+1])`` with window-selection gates and
FIFO skew buffers.  Reproduced claims:

* with the boolean selection gates and skew FIFOs the expression is
  fully pipelined (II = 2);
* without the skew buffers (balance='none') the shared source stalls
  behind the earliest window: the three-point stencil's small skew fits
  the per-arc token slots, so it crawls; a +/-4 window's skew does not
  fit at all and the pipe JAMS -- the deadlock the paper's buffering
  rule prevents.
"""

import pytest

from repro.compiler import compile_program
from repro.errors import DeadlockError
from repro.graph import Op
from repro.workloads import FIG4_SOURCE

from _common import constant_inputs, record_claim

M = 300

#: a nine-point-wide window whose skew exceeds the path token capacity
WIDE_STENCIL = (
    "S : array[real] := forall i in [4, m] construct "
    "C[i-4] + C[i+4] endall"
)


def _ii(cp) -> float:
    return cp.run(constant_inputs(cp)).initiation_interval("S")


def test_fig4():
    cp = compile_program(FIG4_SOURCE, params={"m": M})
    fifo_stages = sum(c.params["depth"] for c in cp.graph.cells_by_op(Op.FIFO))
    crawl = _ii(compile_program(FIG4_SOURCE, params={"m": M}, balance="none"))

    wide = {"params": {"m": M}, "input_ranges": {"C": (0, M + 4)}}
    jammed = compile_program(WIDE_STENCIL, balance="none", **wide)
    with pytest.raises(DeadlockError) as exc:
        jammed.run(constant_inputs(jammed))
    wide_ii = _ii(compile_program(WIDE_STENCIL, **wide))

    ii = _ii(cp)
    record_claim(
        "fig4",
        "Fig 4: array selection `0.25*(C[i-1]+2C[i]+C[i+1])` via gated "
        "windows + skew FIFOs is fully pipelined; unused elements are "
        "discarded so they don't jam; buffering absorbs the window skew "
        "(our ADD-tree shape needs fewer skew stages than the figure's "
        "FIFO(2)+FIFO(4) tree — same throughput)",
        "II 2; FIFOs of depth ≈ 2×shift",
        {"II": ii, "skew buffer stages": fifo_stages, "cells": cp.cell_count,
         "unbuffered 3-point stencil II": crawl,
         "unbuffered ±4 window: outputs pending at deadlock":
             exc.value.pending,
         "buffered ±4 window II": wide_ii},
        ii == pytest.approx(2.0, abs=0.05)
        and crawl > 4.0  # far below the full rate of 2.0
        and exc.value.pending > 0
        and wide_ii == pytest.approx(2.0, abs=0.05),
    )

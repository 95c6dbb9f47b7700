"""Experiment fig5 -- the fully pipelined if-then-else (paper Figure 5).

``if C[i] then -(A[i]+B[i]) else 5*(A[i]*B[i]+2)`` with boolean-gated
arm entry and a merge whose control path is FIFO-buffered to the arm
length.  The claim: fully pipelined operation for any mix of
true/false, *because* all paths through the graph are of equal length;
the unbalanced variant degrades when traffic alternates between arms.
"""

import random

import pytest

from repro.compiler import compile_program
from repro.workloads import FIG5_SOURCE

from _common import axis, record_claim

M = 300
MIXES = [0.0, 0.25, 0.5, 1.0]


def _inputs(true_fraction: float, seed: int = 0):
    rng = random.Random(seed)
    return {
        "A": [rng.uniform(-1, 1) for _ in range(M)],
        "B": [rng.uniform(-1, 1) for _ in range(M)],
        "C": [rng.random() < true_fraction for _ in range(M)],
    }


def test_fig5():
    balanced = compile_program(FIG5_SOURCE, params={"m": M})
    unbalanced = compile_program(FIG5_SOURCE, params={"m": M}, balance="none")
    iis = [balanced.run(_inputs(mix)).initiation_interval("Y")
           for mix in MIXES]
    ii_u = unbalanced.run(_inputs(0.5)).initiation_interval("Y")
    record_claim(
        "fig5",
        "Fig 5: if-then-else with gated arms + merge (control through "
        "FIFO); fully pipelined iff all paths equal length",
        "II 2 for any true/false mix",
        {f"II at true mix {axis(MIXES)}": iis,
         "unbalanced arms II at mix 0.5": ii_u},
        all(ii == pytest.approx(2.0, abs=0.1) for ii in iis)
        and ii_u > iis[MIXES.index(0.5)] + 0.3,
    )

"""Experiment fig2 -- basic pipelined execution (paper Figure 2).

The paper's three-stage pipe for ``let y = a*b in (y+2)*(y-3)`` runs at
one result per two instruction times; programs whose fork/join paths
differ in length must be balanced "by inserting identity operators"
(Section 3).  All three variants are measured: Figure 2 itself, an
unbalanced fork left unbalanced, and the same fork after identity
balancing.
"""

import pytest

from repro.compiler import compile_program
from repro.workloads import FIG2_SOURCE

from _common import constant_inputs, record_claim

M = 300

#: an expression whose fork paths differ by one stage: y feeds the ADD
#: both directly and through a MUL.
UNBALANCED_SOURCE = """
Y : array[real] :=
  forall i in [0, m - 1]
    y : real := a[i] * b[i]
  construct
    y + y * 2.
  endall
"""


def _ii(source: str, balance: str) -> float:
    cp = compile_program(source, params={"m": M}, balance=balance)
    return cp.run(constant_inputs(cp)).initiation_interval("Y")


def test_fig2():
    balanced = _ii(FIG2_SOURCE, "optimal")
    unbalanced = _ii(UNBALANCED_SOURCE, "none")
    identity = _ii(UNBALANCED_SOURCE, "optimal")
    record_claim(
        "fig2",
        "Fig 2: 3-stage pipe `(y+2)*(y-3)`, `y=a*b` is fully pipelined; "
        "rate is \"no greater than the rate of repeated execution of any "
        "instruction\" (1 per ~2 instruction times); unequal fork paths "
        "need identity balancing",
        "II 2; unbalanced < max rate",
        {"balanced II": balanced, "unbalanced fork II": unbalanced,
         "after identity insertion II": identity},
        balanced == pytest.approx(2.0, abs=0.05)
        and unbalanced == pytest.approx(3.0, abs=0.05)
        and identity == pytest.approx(2.0, abs=0.05),
    )

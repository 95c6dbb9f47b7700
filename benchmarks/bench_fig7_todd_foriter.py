"""Experiment fig7 -- Todd's for-iter translation (paper Figure 7).

The feedback link from the merge output back through the recurrence
body prevents full pipelining: with 3 stages in the loop, "the
initiation rate of the pipeline can not be higher than 1/3".  Deeper
recurrence bodies slow the scheme proportionally: II == loop length,
measured on synthetic recurrences of increasing F depth.
"""

import pytest

from repro.compiler import compile_program
from repro.workloads import EXAMPLE2_SOURCE

from _common import axis, constant_inputs, record_claim, steady_ii

DEPTHS = [1, 2, 3, 5]


def _body(depth: int) -> str:
    # a chain of `depth` additions applied to the x term
    expr = "T[i-1]"
    for _ in range(depth):
        expr = f"({expr} + A[i])"
    return f"""X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    if i < m then
      iter T := T[i: {expr}]; i := i + 1 enditer
    else T[i: {expr}]
    endif
  endfor"""


def _measure(source: str, m: int, value: float):
    cp = compile_program(source, params={"m": m}, foriter_scheme="todd")
    res = cp.run(constant_inputs(cp, value))
    return (cp.artifacts["X"].graph.meta["loop"],
            steady_ii(res.run.sink_times["X"]))


def test_fig7():
    loop, ii = _measure(EXAMPLE2_SOURCE, 300, 0.5)
    lengths, iis = [], []
    for depth in DEPTHS:
        synthetic, synthetic_ii = _measure(_body(depth), 240, 0.25)
        lengths.append(synthetic["length"])
        iis.append(synthetic_ii)
    record_claim(
        "fig7",
        "Fig 7: Todd's for-iter scheme; \"since there are 3 stages ... "
        "the initiation rate can not be higher than 1/3\"",
        "II 3 (rate 1/3); generally II = cycle length",
        {"Example 2 loop stages/values": [loop["length"], loop["tokens"]],
         "Example 2 II": ii,
         f"loop lengths at synthetic F depths {axis(DEPTHS)}": lengths,
         "their II": iis},
        (loop["length"], loop["tokens"]) == (3, 1)
        and ii == pytest.approx(3.0, abs=0.05)
        # F stages + the merge, and the rate is one per loop trip
        and lengths == [d + 1 for d in DEPTHS]
        and all(i == pytest.approx(n, abs=0.05) for i, n in zip(iis, lengths)),
    )

"""Experiment semiring -- companion functions beyond the ring.

The paper cites Kogge's general recurrence class [11][12]; the
companion construction needs only a semiring.  A max-plus envelope
recurrence  x_i = max(x_{i-1} - D[i], A[i])  gets the companion
G(p, q) = (p1 + q1, max(p1 + q0, p0)) and the same even 4-stage loop
with 2 values as the ring case, so it runs at II 2 where Todd's
3-stage loop runs at II 3.
"""

import pytest

from repro.compiler import compile_program
from repro.compiler.recurrence import extract_recurrence
from repro.val import classify_foriter, parse_program

from _common import record_claim, steady_ii

M = 240

ENVELOPE = """
E : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    if i < m then
      iter T := T[i: max(T[i-1] - D[i], A[i])]; i := i + 1 enditer
    else T[i: max(T[i-1] - D[i], A[i])]
    endif
  endfor
"""


def _measure(scheme: str):
    cp = compile_program(ENVELOPE, params={"m": M}, foriter_scheme=scheme)
    res = cp.run({"A": [0.5] * M, "D": [0.1] * M})
    loop = cp.artifacts["E"].graph.meta["loop"]
    return [loop["length"], loop["tokens"]], steady_ii(res.run.sink_times["E"])


def test_semiring():
    node = parse_program(ENVELOPE).blocks[0].expr
    info = classify_foriter(node, {"A", "D"}, {"m": M})
    algebra = extract_recurrence(info, {"m": M}).algebra.name
    loop_t, ii_t = _measure("todd")
    loop_c, ii_c = _measure("companion")
    record_claim(
        "semiring",
        "extension of Thm 3 via the paper's refs [11][12]: companion "
        "functions exist over any semiring; max-plus envelope recurrence "
        "`x_i = max(x_{i-1}-d_i, a_i)`",
        "(not in paper)",
        {"recognised algebra": algebra,
         "Todd loop stages/values": loop_t, "Todd II": ii_t,
         "companion loop stages/values": loop_c, "companion II": ii_c},
        algebra == "maxplus"
        and loop_c == [4, 2]
        and ii_t == pytest.approx(3.0, abs=0.05)
        and ii_c == pytest.approx(2.0, abs=0.05),
    )

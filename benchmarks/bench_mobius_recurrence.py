"""Experiment mobius -- companions for linear fractional recurrences.

The Thomas tridiagonal forward sweep ``c'_i = C_i/(B_i - A_i c'_{i-1})``
is not affine, but linear fractional transforms compose as 2x2 matrices
(associative), so the companion construction extends.  Todd's loop is
4 stages deep (II 4); the companion loop cannot be injected perfectly
evenly -- see the foriter module docs -- so it lands at ~2.33 rather
than the 2.0 the affine cases reach, still beating Todd decisively.
"""

from repro.compiler import compile_program

from _common import record_claim, steady_ii

M = 240

THOMAS = """
CP : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    if i < m then
      iter T := T[i: C[i] / (B[i] - A[i] * T[i-1])]; i := i + 1 enditer
    else T[i: C[i] / (B[i] - A[i] * T[i-1])]
    endif
  endfor
"""


def _measure(scheme: str):
    cp = compile_program(THOMAS, params={"m": M}, foriter_scheme=scheme)
    res = cp.run({"A": [0.5] * M, "B": [2.0] * M, "C": [0.5] * M})
    return (
        steady_ii(res.run.sink_times["CP"]),
        res.stats.steps,
        cp.artifacts["CP"].graph.meta.get("loop"),
    )


def test_mobius():
    ii_t, steps_t, loop_t = _measure("todd")
    ii_c, steps_c, _ = _measure("companion")
    speedup = steps_t / steps_c
    record_claim(
        "mobius",
        "extension of Thm 3: linear fractional recurrences compose as 2×2 "
        "matrices (Thomas sweep); the residual gap vs 2.0 is the "
        "loop-injection spacing analyzed in `repro/compiler/foriter.py`",
        "(not in paper)",
        {"Todd loop stages": loop_t["length"], "Todd II": ii_t,
         "companion (Möbius G = matmul) II": ii_c,
         "speedup (simulator steps)": speedup},
        loop_t["length"] == 4  # MUL/ADD/DIV-deep F + merge
        and 3.95 <= ii_t <= 4.05
        and 2.0 <= ii_c <= 2.45
        and speedup > 1.6,
    )

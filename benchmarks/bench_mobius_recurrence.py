"""Experiment mobius -- companions for linear fractional recurrences.

The Thomas tridiagonal forward sweep ``c'_i = C_i/(B_i - A_i c'_{i-1})``
is not affine, but linear fractional transforms compose as 2x2 matrices
(associative), so the companion construction extends.  Rows:

  scheme      loop             II      speedup
  todd        4 stages/1 val   4.00    1.0
  companion   8-cell SCC/3     ~2.33   ~1.7x

(The companion loop cannot be injected perfectly evenly -- see the
foriter module docs -- so it lands at ~2.33 rather than the 2.0 the
affine cases reach; it still beats Todd decisively.)
"""

import pytest

from repro.compiler import compile_program

from _common import bench_once, extra, record_rows, steady_ii

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


@pytest.mark.benchmark(group="mobius")
@pytest.mark.parametrize("scheme,lo,hi", [("todd", 3.95, 4.05),
                                          ("companion", 2.0, 2.45)])
def test_mobius_rates(benchmark, scheme, lo, hi):
    ii, _steps, loop = bench_once(benchmark, _measure, scheme)
    extra(benchmark, initiation_interval=ii)
    assert lo <= ii <= hi
    if scheme == "todd":
        assert loop["length"] == 4  # MUL/ADD/DIV-deep F + merge


@pytest.mark.benchmark(group="mobius")
def test_mobius_summary(benchmark):
    def both():
        return {s: _measure(s) for s in ("todd", "companion")}

    data = bench_once(benchmark, both, rounds=1)
    speedup = data["todd"][1] / data["companion"][1]
    assert speedup > 1.6
    record_rows(
        "mobius",
        "scheme  II  wall-clock speedup",
        [
            ("todd", round(data["todd"][0], 3), 1.0),
            ("companion (Moebius G = matmul)",
             round(data["companion"][0], 3), round(speedup, 3)),
        ],
        note="Thomas tridiagonal forward sweep; companion loop injection "
        "keeps it at ~2.33 instead of 2.0 (see repro.compiler.foriter)",
    )

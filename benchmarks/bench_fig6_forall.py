"""Experiment fig6 -- the primitive forall mapping (paper Figure 6,
Theorem 2), plus the Section 6 scheme comparison ablation.

Example 1's forall (boundary-guarded smoothing) compiles to a single
pipelined body (the *pipeline scheme*): constant cell count, full rate.
The *parallel scheme* replicates the body per element: cell count grows
linearly and the serializing merge chain caps throughput at the same
one-element-per-two-steps, so the pipeline scheme dominates for stream
workloads -- which is the paper's reason for choosing it.
"""

import pytest

from repro.compiler import compile_program
from repro.workloads import EXAMPLE1_SOURCE

from _common import axis, constant_inputs, record_claim, steady_ii

SIZES = [50, 150, 400]


def test_fig6_theorem2_holds_across_sizes():
    cells, iis = [], []
    for m in SIZES:
        cp = compile_program(EXAMPLE1_SOURCE, params={"m": m})
        res = cp.run(constant_inputs(cp))
        cells.append(cp.cell_count)
        iis.append(steady_ii(res.run.sink_times["A"]))
    record_claim(
        "fig6",
        "Fig 6 / Thm 2: Example 1's primitive forall (boundary rules via "
        "compile-time control sequences, merge of rules) fully pipelined",
        "II 2, code size independent of m",
        {f"cells at m = {axis(SIZES)}": cells, "their II": iis},
        all(ii == pytest.approx(2.0, abs=0.05) for ii in iis)
        and len(set(cells)) == 1,  # O(1) code size
    )


def test_forall_scheme_comparison():
    """Section 6 ablation: pipeline vs parallel scheme."""
    m = 24
    measured = {}
    for scheme in ("pipeline", "parallel"):
        cp = compile_program(
            EXAMPLE1_SOURCE, params={"m": m}, forall_scheme=scheme
        )
        res = cp.run(constant_inputs(cp))
        measured[f"{scheme} cells"] = cp.cell_count
        measured[f"{scheme} II"] = res.initiation_interval("A")
    record_claim(
        "fig6-schemes",
        f"§6: pipeline vs parallel scheme (m = {m})",
        "parallel \"of limited interest\"",
        measured,
        measured["parallel cells"] > 4 * measured["pipeline cells"]
        and measured["pipeline II"] == pytest.approx(2.0, abs=0.2),
    )

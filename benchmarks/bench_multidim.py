"""Experiment md -- the Section 9 multidimensional extension.

"The extension of this work to array values of multiple dimension is
straightforward": 2-D foralls lower to 1-D foralls over row-major
streams, with row-offset selections becoming constant-offset flat
selections whose skew FIFOs are the classic line buffers.  Elementwise
maps run at full rate, single-axis stencils slightly below it, and the
4-neighbour boundary-guarded Laplace settles near II 3 whatever the
buffering (a measured finding about the interaction of conditional
arms with deep row skews -- a subtlety the paper's remark does not
anticipate; analysis in ``repro.val.multidim``).
"""

from repro.compiler import compile_program
from repro.val.multidim import flatten2d

from _common import record_claim

R, C = 10, 48

KINDS = {
    "elementwise": (
        "L : array[real] := forall i in [0, r - 1]; j in [0, c - 1] "
        "construct M[i, j] * 2. + 1. endall"
    ),
    "row stencil": """
L : array[real] :=
  forall i in [0, r - 1]; j in [0, c - 1]
  construct
    if (i = 0) | (i = r - 1) then M[i, j]
    else 0.5 * (M[i-1, j] + M[i+1, j])
    endif
  endall
""",
    "column stencil": """
L : array[real] :=
  forall i in [0, r - 1]; j in [0, c - 1]
  construct
    if (j = 0) | (j = c - 1) then M[i, j]
    else 0.5 * (M[i, j-1] + M[i, j+1])
    endif
  endall
""",
    "Laplace": """
L : array[real] :=
  forall i in [0, r - 1]; j in [0, c - 1]
  construct
    if (i = 0) | (i = r - 1) | (j = 0) | (j = c - 1) then M[i, j]
    else 0.25 * (M[i-1, j] + M[i+1, j] + M[i, j-1] + M[i, j+1])
    endif
  endall
""",
}

BOUNDS = {
    "elementwise": (1.95, 2.05),
    "row stencil": (2.0, 2.6),
    "column stencil": (2.0, 2.4),
    "Laplace": (2.6, 3.2),
}


def test_md():
    measured, ok = {}, True
    for kind, source in KINDS.items():
        cp = compile_program(
            source,
            params={"r": R, "c": C},
            array_shapes={"M": ((0, R - 1), (0, C - 1))},
        )
        res = cp.run({"M": flatten2d([[1.0] * C for _ in range(R)])})
        ii = res.initiation_interval("L")
        measured[f"{kind} II/cells"] = [round(ii, 3), cp.cell_count]
        lo, hi = BOUNDS[kind]
        ok = ok and lo <= ii <= hi
    record_claim(
        "md",
        f"§9: \"the extension ... to multiple dimension is "
        f"straightforward\"; {R}×{C} grid lowered to row-major streams, "
        f"row-offset taps compile to ~2C-deep line buffers",
        "(no numbers in paper)",
        measured,
        ok,
    )

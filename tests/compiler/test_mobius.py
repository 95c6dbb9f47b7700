"""Tests for the Moebius (linear fractional) companion extension.

Linear fractional transforms compose as 2x2 matrices, giving a
companion function for recurrences like the Thomas tridiagonal
algorithm's forward sweep ``c'_i = C[i] / (B[i] - A[i] c'_{i-1})`` --
the classic case the affine class misses.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_program
from repro.compiler.recurrence import (
    MobiusForm,
    extract_mobius_form,
    extract_recurrence,
    mobius_apply,
    mobius_eval,
)
from repro.errors import RecurrenceError
from repro.val import classify_foriter, parse_program, run_program

THOMAS_SRC = """
CP : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    if i < m then
      iter T := T[i: C[i] / (B[i] - A[i] * T[i-1])]; i := i + 1 enditer
    else T[i: C[i] / (B[i] - A[i] * T[i-1])]
    endif
  endfor
"""


def thomas_inputs(m, seed=0):
    rng = random.Random(seed)
    A = [rng.uniform(0.1, 0.9) for _ in range(m)]
    C = [rng.uniform(0.1, 0.9) for _ in range(m)]
    B = [a + c + rng.uniform(0.5, 1.5) for a, c in zip(A, C)]
    return {"A": A, "B": B, "C": C}


def reference(inputs, m):
    return run_program(
        parse_program(THOMAS_SRC),
        inputs={k: (1, v) for k, v in inputs.items()},
        params={"m": m},
    )["CP"].to_list()


class TestExtraction:
    def test_thomas_is_mobius(self):
        node = parse_program(THOMAS_SRC).blocks[0].expr
        info = classify_foriter(node, {"A", "B", "C"}, {"m": 8})
        form = extract_recurrence(info, {"m": 8})
        assert isinstance(form, MobiusForm)

    def test_components_evaluate(self):
        from repro.val.interpreter import eval_expr
        from repro.val.values import ValArray

        node = parse_program(THOMAS_SRC).blocks[0].expr
        info = classify_foriter(node, {"A", "B", "C"}, {"m": 8})
        form = extract_mobius_form(info, {"m": 8})
        env = {
            "i": 2,
            "A": ValArray(1, (0.5,) * 8),
            "B": ValArray(1, (2.0,) * 8),
            "C": ValArray(1, (0.25,) * 8),
            "m": 8,
        }
        comps = tuple(eval_expr(c, env) for c in form.components)
        # C[i]/(B[i] - A[i] x) == (0*x + 0.25)/(-0.5*x + 2.0)
        assert comps == (0.0, 0.25, -0.5, 2.0)

    def test_affine_not_peeled_as_mobius(self):
        from repro.workloads import EXAMPLE2_SOURCE
        from repro.compiler.recurrence import LinearForm

        node = parse_program(EXAMPLE2_SOURCE).blocks[0].expr
        info = classify_foriter(node, {"A", "B"}, {"m": 8})
        assert isinstance(extract_recurrence(info, {"m": 8}), LinearForm)

    def test_quadratic_still_rejected(self):
        src = """
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 1.] do
    if i < m then
      iter T := T[i: (T[i-1] * T[i-1]) / (T[i-1] + 2.)]; i := i + 1 enditer
    else T[i: (T[i-1] * T[i-1]) / (T[i-1] + 2.)]
    endif
  endfor
"""
        node = parse_program(src).blocks[0].expr
        info = classify_foriter(node, set(), {"m": 5})
        with pytest.raises(RecurrenceError, match="no companion") as exc:
            extract_recurrence(info, {"m": 5})
        # the fractional try names the product's own line, as the ring
        # try does
        assert str(exc.value).count("quadratic in the accumulator at "
                                    "line 5") == 2

    def test_degenerate_ratio_is_still_mobius(self):
        """x/x == 1 is a (singular) linear fractional map; composition
        by matrix product handles it correctly."""
        node = parse_program(make := """
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 3.] do
    if i < m then
      iter T := T[i: T[i-1] / T[i-1]]; i := i + 1 enditer
    else T[i: T[i-1] / T[i-1]]
    endif
  endfor
""").blocks[0].expr
        _ = make
        m = 6
        cp = compile_program(
            parse_program(make), params={"m": m}, foriter_scheme="companion"
        )
        res = cp.run({})
        assert res.outputs["X"].to_list() == [3.0] + [1.0] * m


class TestMobiusAlgebra:
    entries = st.floats(-2, 2, allow_nan=False)
    mats = st.tuples(entries, entries, entries, entries)

    @given(mats, mats, st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=150)
    def test_companion_identity(self, p, q, x):
        """F(p, F(q, x)) == F(p*q, x) wherever both sides are well
        defined and away from poles/overflow."""
        import math

        # a near-singular matrix maps almost every x to one value, and
        # rounding decides which side of it each composition lands
        for a, b, c, d in (p, q):
            assume(abs(a * d - b * c) >= 1e-3)
        try:
            inner = mobius_eval(q, x)
            lhs = mobius_eval(p, inner)
            rhs = mobius_eval(mobius_apply(p, q), x)
        except ZeroDivisionError:
            return
        values = (inner, lhs, rhs)
        if any(not math.isfinite(v) or abs(v) > 1e6 for v in values):
            return  # near a pole; numerically meaningless
        assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-6)

    @given(mats, mats, mats)
    @settings(max_examples=150)
    def test_associative(self, p, q, r):
        left = mobius_apply(mobius_apply(p, q), r)
        right = mobius_apply(p, mobius_apply(q, r))
        assert left == pytest.approx(right, rel=1e-9, abs=1e-9)


class TestCompilation:
    @pytest.mark.parametrize("scheme", ["todd", "companion", "auto"])
    @pytest.mark.parametrize("m", [2, 3, 5, 20])
    def test_thomas_semantics(self, scheme, m):
        inputs = thomas_inputs(m, seed=m)
        cp = compile_program(
            THOMAS_SRC, params={"m": m}, foriter_scheme=scheme
        )
        res = cp.run(inputs)
        assert res.outputs["CP"].to_list() == pytest.approx(
            reference(inputs, m), rel=1e-9
        )

    def test_funnel_injection(self):
        m = 15
        inputs = thomas_inputs(m, seed=3)
        cp = compile_program(
            THOMAS_SRC, params={"m": m}, foriter_scheme="companion"
        )
        res = cp.run(inputs)
        assert res.outputs["CP"].to_list() == pytest.approx(
            reference(inputs, m), rel=1e-9
        )

    def test_injection_is_not_a_compile_option(self):
        with pytest.raises(TypeError, match="injection"):
            compile_program(
                THOMAS_SRC, params={"m": 15},
                foriter_scheme="companion", injection="funnel",
            )

    def test_companion_beats_todd(self):
        """Todd's 4-stage loop runs at 1/4; the Moebius companion
        (measured II ~2.3 -- startup spacing keeps it off the exact
        maximum, see the foriter module docs) still wins by ~1.7x."""
        m = 200
        inputs = {"A": [0.5] * m, "B": [2.0] * m, "C": [0.5] * m}
        ii = {}
        for scheme in ("todd", "companion"):
            cp = compile_program(
                THOMAS_SRC, params={"m": m}, foriter_scheme=scheme
            )
            ii[scheme] = cp.run(inputs).initiation_interval("CP")
        assert ii["todd"] == pytest.approx(4.0, abs=0.05)
        assert ii["companion"] < 2.5
        assert ii["todd"] / ii["companion"] > 1.6

    def test_loop_shape(self):
        cp = compile_program(
            THOMAS_SRC, params={"m": 20}, foriter_scheme="companion"
        )
        g = cp.artifacts["CP"].graph
        from repro.graph import Op

        assert g.find("CP.loop_div").op is Op.DIV
        loop = g.meta["loop"]
        assert loop["tokens"] == 3  # min distance for the deeper F

"""Tests for the semiring (tropical) recurrence extension.

The paper cites Kogge's general recurrence class [11][12]; the
companion construction works over any semiring where
``F(a, x) = (x (x) a1) (+) a0``.  Besides the paper's ring case we
support max-plus and min-plus, covering running-extremum recurrences
like envelope followers.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_program
from repro.compiler.recurrence import (
    MAXPLUS,
    MINPLUS,
    RING,
    companion_apply,
    extract_linear_form,
    extract_recurrence,
)
from repro.errors import RecurrenceError
from repro.val import classify_foriter, parse_program, run_program

ENVELOPE_SRC = """
E : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    if i < m then
      iter T := T[i: max(T[i-1] - D[i], A[i])]; i := i + 1 enditer
    else T[i: max(T[i-1] - D[i], A[i])]
    endif
  endfor
"""

FLOOR_SRC = """
F : array[real] :=
  for i : integer := 1; T : array[real] := [0: 100.] do
    if i < m then
      iter T := T[i: min(T[i-1] + C[i], A[i])]; i := i + 1 enditer
    else T[i: min(T[i-1] + C[i], A[i])]
    endif
  endfor
"""


def _info(src, arrays, m=10):
    node = parse_program(src).blocks[0].expr
    return classify_foriter(node, set(arrays), {"m": m}), {"m": m}


class TestBuiltinsInVal:
    def test_parse_and_eval(self):
        from repro.val import parse_expression
        from repro.val.interpreter import eval_expr

        assert eval_expr(parse_expression("max(1., 2.)"), {}) == 2.0
        assert eval_expr(parse_expression("min(1., 2.)"), {}) == 1.0
        assert eval_expr(parse_expression("max(1., 2., 3.)"), {}) == 3.0

    def test_typecheck(self):
        from repro.val import REAL, INTEGER, check_expression, parse_expression

        assert check_expression(parse_expression("max(1, 2)"), {}) == INTEGER
        assert check_expression(parse_expression("max(1., 2)"), {}) == REAL

    def test_boolean_args_rejected(self):
        from repro.errors import ValTypeError
        from repro.val import check_expression, parse_expression

        with pytest.raises(ValTypeError, match="numeric"):
            check_expression(parse_expression("max(true, 1)"), {})

    def test_single_arg_rejected(self):
        from repro.errors import ValSyntaxError
        from repro.val import parse_expression

        with pytest.raises(ValSyntaxError, match="two arguments"):
            parse_expression("max(1.)")

    def test_max_as_plain_identifier_still_works(self):
        from repro.val import parse_expression
        from repro.val.interpreter import eval_expr

        assert eval_expr(parse_expression("max + 1"), {"max": 4}) == 5

    def test_primitive_classification(self):
        from repro.val import is_primitive_expr, parse_expression

        assert is_primitive_expr(
            parse_expression("max(A[i], B[i]) + 1."), "i", {"A", "B"}, {}
        )

    def test_forall_with_max_compiles(self):
        src = (
            "Y : array[real] := forall i in [0, m - 1] construct "
            "max(A[i], 0.) endall"
        )
        cp = compile_program(src, params={"m": 6})
        res = cp.run({"A": [-1.0, 2.0, -3.0, 4.0, 0.5, -0.5]})
        assert res.outputs["Y"].to_list() == [0.0, 2.0, 0.0, 4.0, 0.5, 0.0]


class TestTropicalExtraction:
    def test_envelope_is_maxplus(self):
        info, params = _info(ENVELOPE_SRC, {"A", "D"})
        form = extract_recurrence(info, params)
        assert form.algebra is MAXPLUS

    def test_floor_is_minplus(self):
        info, params = _info(FLOOR_SRC, {"A", "C"})
        form = extract_recurrence(info, params)
        assert form.algebra is MINPLUS

    def test_ring_still_preferred(self):
        from repro.workloads import EXAMPLE2_SOURCE

        info, params = _info(EXAMPLE2_SOURCE, {"A", "B"})
        assert extract_recurrence(info, params).algebra is RING

    def test_coefficient_evaluation(self):
        from repro.val.interpreter import eval_expr
        from repro.val.values import ValArray

        info, params = _info(ENVELOPE_SRC, {"A", "D"})
        form = extract_linear_form(info, params, MAXPLUS)
        env = {
            "i": 3,
            "A": ValArray(1, (5.0,) * 10),
            "D": ValArray(1, (0.25,) * 10),
            "m": 10,
        }
        assert eval_expr(form.coeff, env) == -0.25   # x - D[i]
        assert eval_expr(form.offset, env) == 5.0    # A[i]

    @pytest.mark.parametrize(
        "element,message",
        [
            ("max(T[i-1] * 2., A[i])", "under '\\*'"),
            ("max(-T[i-1], A[i])", "negating"),
            ("max(1. - T[i-1], A[i])", "subtracting"),
            ("min(max(T[i-1], 0.), A[i])", "max of the accumulator"),
            ("max(T[i-1] + T[i-1], A[i])", "both sides"),
        ],
    )
    def test_nonlinear_tropical_rejected(self, element, message):
        src = f"""
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    if i < m then
      iter T := T[i: {element}]; i := i + 1 enditer
    else T[i: {element}]
    endif
  endfor
"""
        info, params = _info(src, {"A"})
        with pytest.raises(RecurrenceError, match=message):
            extract_linear_form(
                info, params,
                MINPLUS if element.startswith("min") else MAXPLUS,
            )


class TestTropicalCompanionProperties:
    vals = st.floats(-5, 5, allow_nan=False)
    pairs = st.tuples(vals, vals)

    @given(pairs, pairs, vals)
    @settings(max_examples=150)
    def test_maxplus_companion_identity(self, a, b, x):
        def F(p, x):
            return max(x + p[0], p[1])

        g = companion_apply(a, b, MAXPLUS)
        assert F(a, F(b, x)) == pytest.approx(F(g, x))

    @given(pairs, pairs, vals)
    @settings(max_examples=150)
    def test_minplus_companion_identity(self, a, b, x):
        def F(p, x):
            return min(x + p[0], p[1])

        g = companion_apply(a, b, MINPLUS)
        assert F(a, F(b, x)) == pytest.approx(F(g, x))

    @given(pairs, pairs, pairs)
    @settings(max_examples=150)
    def test_maxplus_associative(self, a, b, c):
        left = companion_apply(companion_apply(a, b, MAXPLUS), c, MAXPLUS)
        right = companion_apply(a, companion_apply(b, c, MAXPLUS), MAXPLUS)
        assert left == pytest.approx(right)


class TestTropicalCompilation:
    def reference(self, src, inputs, m):
        return run_program(
            parse_program(src),
            inputs={k: (1, v) for k, v in inputs.items()},
            params={"m": m},
        )

    @pytest.mark.parametrize("scheme", ["todd", "companion", "auto"])
    def test_envelope_semantics(self, scheme):
        m = 30
        rng = random.Random(2)
        A = [rng.uniform(0, 2) for _ in range(m)]
        D = [rng.uniform(0, 0.5) for _ in range(m)]
        cp = compile_program(
            ENVELOPE_SRC, params={"m": m}, foriter_scheme=scheme
        )
        res = cp.run({"A": A, "D": D})
        ref = self.reference(ENVELOPE_SRC, {"A": A, "D": D}, m)["E"]
        # the tropical (x) is float addition, which reassociates like the
        # ring case: agreement to rounding
        assert res.outputs["E"].to_list() == pytest.approx(ref.to_list())

    def test_envelope_companion_is_max_rate(self):
        m = 200
        cp = compile_program(
            ENVELOPE_SRC, params={"m": m}, foriter_scheme="companion"
        )
        res = cp.run({"A": [1.0] * m, "D": [0.1] * m})
        assert res.initiation_interval("E") == pytest.approx(2.0, abs=0.05)
        loop = cp.artifacts["E"].graph.meta["loop"]
        assert (loop["length"], loop["tokens"]) == (4, 2)

    def test_minplus_semantics(self):
        m = 25
        rng = random.Random(3)
        A = [rng.uniform(0, 10) for _ in range(m)]
        C = [rng.uniform(0, 1) for _ in range(m)]
        cp = compile_program(
            FLOOR_SRC, params={"m": m}, foriter_scheme="companion"
        )
        res = cp.run({"A": A, "C": C})
        ref = self.reference(FLOOR_SRC, {"A": A, "C": C}, m)["F"]
        assert res.outputs["F"].to_list() == pytest.approx(ref.to_list())

    @pytest.mark.parametrize("distance", [2, 4])
    def test_gtree_distances_tropical(self, distance):
        m = 20
        rng = random.Random(distance)
        A = [rng.uniform(0, 2) for _ in range(m)]
        D = [rng.uniform(0, 0.5) for _ in range(m)]
        cp = compile_program(
            ENVELOPE_SRC,
            params={"m": m},
            foriter_scheme="companion",
            distance=distance,
        )
        res = cp.run({"A": A, "D": D})
        ref = self.reference(ENVELOPE_SRC, {"A": A, "D": D}, m)["E"]
        assert res.outputs["E"].to_list() == pytest.approx(ref.to_list())

    def test_loop_cells_use_tropical_ops(self):
        from repro.graph import Op

        cp = compile_program(
            ENVELOPE_SRC, params={"m": 10}, foriter_scheme="companion"
        )
        g = cp.artifacts["E"].graph
        assert g.find("E.loop_otimes").op is Op.ADD
        assert g.find("E.loop_oplus").op is Op.MAX

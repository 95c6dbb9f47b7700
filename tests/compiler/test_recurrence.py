"""Tests for recurrence analysis and companion functions (Section 7)."""

import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    RING,
    compile_program,
    companion_apply,
    companion_fold,
    extract_linear_form,
    extract_recurrence,
    shift_index,
)
from repro.errors import RecurrenceError
from repro.val import (
    classify_foriter,
    parse_expression,
    parse_program,
    run_program,
)
from repro.val.ast_nodes import REAL, Literal
from repro.val.interpreter import eval_expr
from repro.workloads.programs import SOURCES


def foriter_info(src: str, arrays=("A", "B"), m=6):
    node = parse_program(src).blocks[0].expr
    return classify_foriter(node, set(arrays), {"m": m}), {"m": m}


def make_foriter(element: str, let: str = "") -> str:
    """A minimal for-iter template around an element expression."""
    let_open = f"let {let} in" if let else ""
    let_close = "endlet" if let else ""
    return f"""
X : array[real] :=
  for i : integer := 1; T : array[real] := [0: 0.] do
    {let_open}
    if i < m then
      iter T := T[i: {element}]; i := i + 1 enditer
    else T[i: {element}]
    endif
    {let_close}
  endfor
"""


class TestLinearFormExtraction:
    def eval_form(self, form, env):
        return (eval_expr(form.coeff, env), eval_expr(form.offset, env))

    def test_example2(self):
        info, params = foriter_info(SOURCES["example2"])
        form = extract_linear_form(info, params)
        from repro.val.values import ValArray

        env = {
            "i": 3,
            "A": ValArray(1, (2.0,) * 6),
            "B": ValArray(1, (5.0,) * 6),
            "m": 6,
        }
        assert self.eval_form(form, env) == (2.0, 5.0)

    def test_prefix_sum_coeff_is_one(self):
        info, params = foriter_info(SOURCES["prefix_sum"], arrays=("A",))
        form = extract_linear_form(info, params)
        assert form.coeff == Literal(1.0, REAL)

    @pytest.mark.parametrize(
        "element,coeff,offset",
        [
            ("T[i-1] + 1.", 1.0, 1.0),
            ("2. * T[i-1]", 2.0, 0.0),
            ("T[i-1] - 3.", 1.0, -3.0),
            ("-(T[i-1])", -1.0, 0.0),
            ("(T[i-1] + 1.) * 2.", 2.0, 2.0),
            ("T[i-1] / 2. + 1.", 0.5, 1.0),
            ("3. - T[i-1]", -1.0, 3.0),
        ],
    )
    def test_algebra(self, element, coeff, offset):
        info, params = foriter_info(make_foriter(element), arrays=())
        form = extract_linear_form(info, params)
        env = {"i": 2, "m": 6}
        assert self.eval_form(form, env) == (coeff, offset)

    def test_let_definition_carries_x(self):
        src = make_foriter("P + 1.", let="P : real := 2. * T[i-1]")
        info, params = foriter_info(src, arrays=())
        form = extract_linear_form(info, params)
        env = {"i": 2, "m": 6}
        assert self.eval_form(form, env) == (2.0, 1.0)

    def test_conditional_coefficients(self):
        src = make_foriter("if i < 3 then 2. * T[i-1] else T[i-1] + 1. endif")
        info, params = foriter_info(src, arrays=())
        form = extract_linear_form(info, params)
        assert self.eval_form(form, {"i": 2, "m": 6}) == (2.0, 0.0)
        assert self.eval_form(form, {"i": 4, "m": 6}) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "element,message",
        [
            ("T[i-1] * T[i-1]", "quadratic"),
            ("A[i]", "does not reference"),
            ("if T[i-1] > 0. then 1. else 0. endif", "condition"),
        ],
    )
    def test_nonlinear_rejected(self, element, message):
        arrays = ("A",) if "A[" in element else ()
        info, params = foriter_info(make_foriter(element), arrays=arrays)
        with pytest.raises(RecurrenceError, match=message):
            extract_linear_form(info, params)
        with pytest.raises(RecurrenceError, match="no companion function"):
            extract_recurrence(info, params)

    def test_reciprocal_is_mobius_not_affine(self):
        """1/x escapes the affine class but IS a linear fractional
        transform -- the Moebius extension finds its companion."""
        from repro.compiler.recurrence import MobiusForm

        info, params = foriter_info(make_foriter("1. / T[i-1]"), arrays=())
        with pytest.raises(RecurrenceError, match="division by the accumulator"):
            extract_linear_form(info, params)
        assert isinstance(extract_recurrence(info, params), MobiusForm)

    def test_simple_recurrence_has_a_ring_companion(self):
        info, params = foriter_info(SOURCES["example2"])
        assert extract_recurrence(info, params).algebra is RING


#: (element expression, let definitions) of a for-iter over the arrays
#: A, B, C, D, keyed by case name: ring, max-plus, min-plus and Moebius
#: forms, let-bound and conditional coefficients, and rejected shapes
FORMS = {
    "ring-shift": ("T[i-1] + 1.", ""),
    "ring-scale": ("2. * T[i-1]", ""),
    "ring-sub": ("T[i-1] - 3.", ""),
    "ring-neg": ("-(T[i-1])", ""),
    "ring-distribute": ("(T[i-1] + 1.) * 2.", ""),
    "ring-divide": ("T[i-1] / 2. + 1.", ""),
    "ring-reflect": ("3. - T[i-1]", ""),
    "ring-arrays": ("A[i] * T[i-1] + B[i] * C[i]", ""),
    "ring-xfree-quotient": ("(T[i-1] - A[i]) / B[i]", ""),
    "ring-xfree-neg": ("T[i-1] - -(A[i])", ""),
    "ring-let-x": ("P + 1.", "P : real := 2. * T[i-1]"),
    "ring-let-coeff": ("K * T[i-1] + K", "K : real := A[i] + 1."),
    "ring-inner-let": ("let Q : real := A[i] * T[i-1] in Q - B[i] endlet", ""),
    "ring-cond": ("if i < 3 then 2. * T[i-1] else T[i-1] + 1. endif", ""),
    "ring-cond-xfree-arm": ("if A[i] > 0. then T[i-1] else B[i] endif", ""),
    "ring-xfree-if": ("T[i-1] + (if i < 3 then A[i] else B[i] endif)", ""),
    "maxplus-envelope": ("max(T[i-1] - D[i], A[i])", ""),
    "maxplus-shift-right": ("max(A[i], T[i-1] + D[i])", ""),
    "maxplus-outer-shift": ("max(T[i-1], A[i]) + D[i]", ""),
    "maxplus-nested": ("max(max(T[i-1] - D[i], A[i]), B[i])", ""),
    "maxplus-let": ("max(U, A[i])", "U : real := T[i-1] - D[i]"),
    "maxplus-cond": (
        "max(if i < 3 then T[i-1] else T[i-1] - D[i] endif, A[i])", ""
    ),
    "maxplus-xfree-product": ("max(T[i-1], A[i] * 2.)", ""),
    "minplus-floor": ("min(T[i-1] + C[i], A[i])", ""),
    "minplus-shift-left": ("min(A[i] + T[i-1], B[i] - 1.)", ""),
    "mobius-thomas": ("C[i] / (B[i] - A[i] * T[i-1])", ""),
    "mobius-reciprocal": ("1. / T[i-1]", ""),
    "mobius-general": ("(A[i] * T[i-1] + B[i]) / (C[i] * T[i-1] + D[i])", ""),
    "mobius-self-ratio": ("T[i-1] / (T[i-1] + 1.)", ""),
    "mobius-let-den": ("C[i] / Q", "Q : real := B[i] - A[i] * T[i-1]"),
    "mobius-let-num": ("K / (T[i-1] + B[i])", "K : real := A[i] + 1."),
    "mobius-inner-let": (
        "let N : real := C[i] * T[i-1] in N / (T[i-1] + 1.) endlet", ""
    ),
    "reject-quadratic": ("T[i-1] * T[i-1]", ""),
    "reject-no-x": ("A[i]", ""),
    "reject-no-x-max": ("max(A[i], B[i])", ""),
    "reject-x-cond": ("if T[i-1] > 0. then 1. else 0. endif", ""),
    "reject-x-cond-max": (
        "max(if T[i-1] > 0. then T[i-1] else A[i] endif, B[i])", ""
    ),
    "reject-max-neg": ("max(-T[i-1], A[i])", ""),
    "reject-max-scale": ("max(T[i-1] * 2., A[i])", ""),
    "reject-max-reflect": ("max(1. - T[i-1], A[i])", ""),
    "reject-max-in-min": ("min(max(T[i-1], 0.), A[i])", ""),
    "reject-max-both-sides": ("max(T[i-1] + T[i-1], A[i])", ""),
}

#: case -> SHA-256 of the pickled extract_recurrence result, or
#: "error: " and its exact RecurrenceError text
FORM_PINS = {
    "maxplus-cond": (
        '7bc1984ee8679d774346da15e207564d24e3b5911b7580829759806c69ec6563'
    ),
    "maxplus-envelope": (
        '66f58d5143d1c39e7d6799d68ef9fe02f87bfe741b0fd20c8c8af5eb1a0a8a35'
    ),
    "maxplus-let": (
        '8f01613d98e7f7833036b92a99e0f91bdfe001b910d5c179e59bef9fd0b6c21b'
    ),
    "maxplus-nested": (
        '2b805c6a8e00a09817e366c82985c3cd33350464c7eae448cad6eab0f6a02b72'
    ),
    "maxplus-outer-shift": (
        'c82feae7ed207c338aae3f28b97f5090d7bf50ee2e5bda6a11cfc8b7c4e9ec68'
    ),
    "maxplus-shift-right": (
        'af2a68e3acbe12f16e7cb663ec1537dfe6c6dc26040840128158e9a36ce09871'
    ),
    "maxplus-xfree-product": (
        '709979cfb4ca84849a5ce7bed7145c0769039c40b24f5a984847223784a14a19'
    ),
    "minplus-floor": (
        'e5738b968468ea70d602e993c6c9077132656d20172c04e137b52a5e81630318'
    ),
    "minplus-shift-left": (
        'd620d3e31815095311effca0261a7d5a1936a551a50e6d55837c09e2126b6a3b'
    ),
    "mobius-general": (
        'db3c463e9f2f5e62750e17748c30c4409775f37b799f3f5eb6b6070d864cd3c2'
    ),
    "mobius-inner-let": (
        'b30335c59d357f9fc5132ad18c7c2897dc7307d43a135a20d892a39f81727b3e'
    ),
    "mobius-let-den": (
        'a1cf8c619de13beb003410dd26711fee57b819698d5a5d092657a36fea57a44f'
    ),
    "mobius-let-num": (
        '6ae2cc03706b9ba58b9115c9c2abb0c28117c4434c76902dfe8f36f59771c02b'
    ),
    "mobius-reciprocal": (
        '509506684092f1018fe47042d1cf0e0172ed66b63873ff4361028d18c6ee3d43'
    ),
    "mobius-self-ratio": (
        '57650841073dc5811b0f6192fd211d02fda404b45ca31f41dcd32e7f77d765da'
    ),
    "mobius-thomas": (
        '00d629bbbc22a3868dba7fb2f7f0c34f917a89d6a076d1783359d03c9ff6ca61'
    ),
    "reject-max-both-sides": (
        'error: no companion function found; tried: Builtin at line 6 is '
        'not allowed in a recurrence element expression; accumulator '
        "appears on both sides of '+' at line 6 (not tropical-linear); "
        'element expression is not a division; not a fractional '
        'recurrence'
    ),
    "reject-max-in-min": (
        'error: no companion function found; tried: Builtin at line 6 is '
        'not allowed in a recurrence element expression; min of the '
        'accumulator inside a maxplus recurrence (line 6); max of the '
        'accumulator inside a minplus recurrence (line 6); element '
        'expression is not a division; not a fractional recurrence'
    ),
    "reject-max-neg": (
        'error: no companion function found; tried: Builtin at line 6 is '
        'not allowed in a recurrence element expression; negating the '
        'accumulator at line 6 flips the lattice; not maxplus-linear; '
        'element expression is not a division; not a fractional '
        'recurrence'
    ),
    "reject-max-reflect": (
        'error: no companion function found; tried: Builtin at line 6 is '
        'not allowed in a recurrence element expression; subtracting the '
        'accumulator at line 6 flips the lattice; not maxplus-linear; '
        'element expression is not a division; not a fractional '
        'recurrence'
    ),
    "reject-max-scale": (
        'error: no companion function found; tried: Builtin at line 6 is '
        'not allowed in a recurrence element expression; accumulator '
        "under '*' at line 6; not maxplus-linear; element expression is "
        'not a division; not a fractional recurrence'
    ),
    "reject-no-x": (
        'error: no companion function found; tried: element expression '
        'does not reference the accumulator; this is a forall in disguise'
        ' -- use the forall mapping; element expression is not a '
        'division; not a fractional recurrence'
    ),
    "reject-no-x-max": (
        'error: no companion function found; tried: Builtin at line 6 is '
        'not allowed in a recurrence element expression; element '
        'expression does not reference the accumulator; element '
        'expression is not a division; not a fractional recurrence'
    ),
    "reject-quadratic": (
        'error: no companion function found; tried: recurrence is '
        'quadratic in the accumulator at line 6; no companion function; '
        'element expression is not a division; not a fractional '
        'recurrence'
    ),
    "reject-x-cond": (
        'error: no companion function found; tried: condition at line 6 '
        'depends on the accumulator; recurrence is not affine; element '
        'expression is not a division; not a fractional recurrence'
    ),
    "reject-x-cond-max": (
        'error: no companion function found; tried: Builtin at line 6 is '
        'not allowed in a recurrence element expression; condition at '
        'line 6 depends on the accumulator; element expression is not a '
        'division; not a fractional recurrence'
    ),
    "ring-arrays": (
        'bda19404eec5db86d904a5cd07958ca0e3b9f94091d7b25d30405f8ab0b6aa61'
    ),
    "ring-cond": (
        'd6546869722aa0ff4c7c32e4da0ddbf0ae56fbe1edb63d8fbe21226fbe230a04'
    ),
    "ring-cond-xfree-arm": (
        '9bcbbcff2d713bb7be613d0125cdc998b7b67a46e3fc6169368ff952f69a6465'
    ),
    "ring-distribute": (
        'ba4826600a8742e3b29af11614b742b995b1169abe7f93ff9805fab93b621f3c'
    ),
    "ring-divide": (
        '62ac2fc5a10527a16bd5f07322772a554bd2e7dd8582f8489387047e9f034966'
    ),
    "ring-inner-let": (
        '163c483cfa9d0842f11ff3f683c6498da2d66cd57ea41a024e069af1c1b6da23'
    ),
    "ring-let-coeff": (
        'e353cc7b7cc2194cd7f559cbf4c3a2719840a88e0e95286f80acf1e3c2b5e432'
    ),
    "ring-let-x": (
        '4444ad93c4e2ac688000d8f08ed67ee3f99c28be600a245b15094b001b1acb28'
    ),
    "ring-neg": (
        '3be6675b9d692f932925e74d2929b6f3c207c827978a0add53fca1f59729a877'
    ),
    "ring-reflect": (
        '6ba92d31976f2bba30d8990a373e95b53892b4b15a6fd2b31d4be5d2cd357331'
    ),
    "ring-scale": (
        '64d658eb4ab53e761d096db387e4c06dbc636036772b5a78aa139419ac5f877f'
    ),
    "ring-shift": (
        '9b4897497f62ee12dae8e5269a8b285e977a15ea31c139eeb9c65a1f0dc8946c'
    ),
    "ring-sub": (
        'f48952ff8ed67862e61b7792c283c89eaed2e92a00a70420c37685c95b0e78b8'
    ),
    "ring-xfree-if": (
        '6ce62237dcdf6d5ce85d748e579eca62f404c6fbfa2c8374d1d61478197d29bf'
    ),
    "ring-xfree-neg": (
        'e87fa6f66132e28cade9364cdb44b46a215ace139b08db2fda525d6ba4ef6432'
    ),
    "ring-xfree-quotient": (
        '19d7966089f3a68a24eb4a87c4164a227eaac4567cc377e4ee3e25126e619856'
    ),
}


def form_pin(case: str) -> str:
    element, let = FORMS[case]
    info, params = foriter_info(
        make_foriter(element, let), arrays=("A", "B", "C", "D")
    )
    try:
        form = extract_recurrence(info, params)
    except RecurrenceError as exc:
        return f"error: {exc}"
    return hashlib.sha256(pickle.dumps(form, protocol=4)).hexdigest()


@pytest.mark.parametrize("case", sorted(FORMS))
def test_extracted_forms_are_pinned(case):
    assert form_pin(case) == FORM_PINS[case]


class TestLetScopes:
    """A coefficient may keep a let-bound name as written (an x-free
    condition, comparison or tropical shift); it must still compile
    outside the loop body, and a name that carries x must not pass as
    an x-free condition."""

    @pytest.mark.parametrize(
        "element,let",
        [
            ("if k then 2. * T[i-1] else T[i-1] + A[i] endif",
             "k : boolean := B[i] > 2."),
            ("max(T[i-1] - K, A[i])", "K : real := B[i] * 0.1"),
            ("let q : boolean := A[i] > 0.3 in "
             "if q then 2. * T[i-1] else T[i-1] + B[i] endif endlet", ""),
            ("A[i] / (if k then B[i] - A[i] * T[i-1] "
             "else B[i] + A[i] * T[i-1] endif)",
             "k : boolean := B[i] > 2."),
            ("if i < 4 then let k : boolean := A[i] > 0.3 in "
             "if k then 2. * T[i-1] else T[i-1] + B[i] endif endlet "
             "else let k : boolean := B[i] > 2. in "
             "if k then 2. * T[i-1] else T[i-1] + A[i] endif endlet endif",
             ""),
            ("let k : boolean := A[i] > 0.3; "
             "P : real := if k then 2. * T[i-1] else T[i-1] + B[i] endif in "
             "let k : boolean := B[i] > 2. in "
             "P + (if k then 1. else 0. endif) endlet endlet", ""),
            ("let Q : real := B[i] in let Q : real := Q * 2. in "
             "A[i] / (Q - A[i] * T[i-1]) endlet endlet", ""),
        ],
        ids=["ring-cond", "maxplus-shift", "inner-let-cond", "mobius-cond",
             "same-name-in-branches", "same-name-after-use",
             "mobius-shadowed-let"],
    )
    def test_companion_compiles_a_let_named_coefficient(self, element, let):
        src = make_foriter(element, let)
        inputs = {"A": [0.5, 0.2, 0.3, 0.1, 0.4, 0.6],
                  "B": [3.0, 1.0, 3.0, 1.0, 3.0, 3.0]}
        cp = compile_program(src, params={"m": 6}, foriter_scheme="companion")
        ref = run_program(
            parse_program(src),
            inputs={k: (1, v) for k, v in inputs.items()}, params={"m": 6},
        )["X"].to_list()
        assert cp.run(inputs).outputs["X"].to_list() == pytest.approx(ref)

    def test_condition_through_an_x_carrying_let_is_rejected(self):
        src = make_foriter(
            "if K > 1. then 2. * T[i-1] else T[i-1] + B[i] endif",
            "K : real := T[i-1] + A[i]",
        )
        info, params = foriter_info(src)
        with pytest.raises(RecurrenceError, match="condition at line 6"):
            extract_recurrence(info, params)


class TestCompanionProperties:
    """The algebraic facts the scheme relies on (host-level checks)."""

    pairs = st.tuples(
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
    )

    @given(pairs, pairs, st.floats(-3, 3, allow_nan=False))
    @settings(max_examples=200)
    def test_companion_identity(self, a, b, x):
        """F(a, F(b, x)) == F(G(a, b), x) -- the defining property."""
        def F(p, x):
            return p[0] * x + p[1]

        g = companion_apply(a, b)
        assert F(a, F(b, x)) == pytest.approx(F(g, x), rel=1e-9, abs=1e-9)

    @given(pairs, pairs, pairs)
    @settings(max_examples=200)
    def test_companion_associative(self, a, b, c):
        left = companion_apply(companion_apply(a, b), c)
        right = companion_apply(a, companion_apply(b, c))
        assert left[0] == pytest.approx(right[0], rel=1e-9, abs=1e-9)
        assert left[1] == pytest.approx(right[1], rel=1e-9, abs=1e-9)

    def test_fold_matches_sequential(self):
        rng = random.Random(7)
        pairs = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)]
        x = 0.25
        # sequential application oldest-first
        val = x
        for p in reversed(pairs):
            val = p[0] * val + p[1]
        g = companion_fold(pairs)
        assert g[0] * x + g[1] == pytest.approx(val, rel=1e-9)


class TestShiftIndex:
    def test_shifts_array_offsets(self):
        e = parse_expression("A[i] * T[i-1] + B[i+2]")
        shifted = shift_index(e, "i", 2, {})
        # evaluate both on a concrete environment to compare
        from repro.val.values import ValArray

        arrays = {
            "A": ValArray(-5, tuple(float(k) for k in range(20))),
            "B": ValArray(-5, tuple(float(k) * 2 for k in range(20))),
            "T": ValArray(-5, tuple(float(k) * 3 for k in range(20))),
        }
        v_orig = eval_expr(e, {"i": 3, **arrays})
        v_shift = eval_expr(shifted, {"i": 5, **arrays})
        assert v_orig == v_shift

    def test_shifts_value_uses(self):
        e = parse_expression("i * 2 + 1")
        shifted = shift_index(e, "i", 3, {})
        assert eval_expr(shifted, {"i": 10}) == eval_expr(e, {"i": 7})

    def test_zero_shift_is_identity(self):
        e = parse_expression("A[i]")
        assert shift_index(e, "i", 0, {}) is e

    def test_shift_with_params(self):
        e = parse_expression("A[i + m]")
        shifted = shift_index(e, "i", 1, {"m": 4})
        from repro.val.values import ValArray

        arr = ValArray(0, tuple(float(k) for k in range(20)))
        assert eval_expr(shifted, {"i": 3, "A": arr, "m": 4}) == eval_expr(
            e, {"i": 2, "A": arr, "m": 4}
        )


if __name__ == "__main__":  # pragma: no cover - re-record helper
    import textwrap

    for case in sorted(FORMS):
        chunks = textwrap.wrap(
            form_pin(case), 64, drop_whitespace=False, break_on_hyphens=False
        )
        print(f'    "{case}": (')
        print("".join(f"        {c!r}\n" for c in chunks) + "    ),")

"""Unit tests for the primitive-expression compiler (Theorem 1)."""

import pytest

import repro
from repro.compiler import ArraySpec, ExprBuilder, ROOT, balance_graph
from repro.compiler.context import Seq, Uniform
from repro.compiler.expr import Wire
from repro.errors import CompileError
from repro.graph import DataflowGraph, Op, validate
from repro.val import parse_expression


def build(expr_src, m=6, arrays=(), lo=0, hi=None, params=None):
    """Compile one expression over i in [lo, hi] into a graph + builder."""
    hi = m - 1 if hi is None else hi
    g = DataflowGraph("t")
    specs = {name: ArraySpec(name, a_lo, a_hi) for name, a_lo, a_hi in arrays}
    p = {"m": m}
    p.update(params or {})
    builder = ExprBuilder(g, "i", lo, hi, p, specs)
    value = builder.compile(parse_expression(expr_src), ROOT)
    return g, builder, value


def run_expr(expr_src, inputs, m=6, arrays=(), lo=0, hi=None, balance=True):
    g, builder, value = build(expr_src, m=m, arrays=arrays, lo=lo, hi=hi)
    wire = builder.materialize(value, ROOT)
    n = (m - 1 if hi is None else hi) - lo + 1
    sink = g.add_sink("out", stream="out", limit=n)
    g.connect(wire.cell, sink, 0, tag=wire.tag)
    validate(g)
    if balance:
        balance_graph(g)
        validate(g)
    return repro.run(g, inputs, backend="sync").outputs["out"]


class TestConstantFolding:
    def test_literal_is_uniform(self):
        _, _, v = build("2.5")
        assert v == Uniform(2.5)

    def test_index_variable_is_sequence(self):
        _, _, v = build("i", m=4)
        assert v == Seq((0, 1, 2, 3))

    def test_index_arithmetic_folds(self):
        _, _, v = build("2 * i + 1", m=4)
        assert v == Seq((1, 3, 5, 7))

    def test_param_folds(self):
        _, _, v = build("m - 1", m=9)
        assert v == Uniform(8)

    def test_static_condition_folds_fully(self):
        _, _, v = build("if i < 2 then 1 else 0 endif", m=4)
        assert v == Seq((1, 1, 0, 0))

    def test_boundary_predicate_folds(self):
        _, _, v = build("(i = 0) | (i = m - 1)", m=5)
        assert v == Seq((True, False, False, False, True))

    def test_folding_emits_no_cells(self):
        g, _, _ = build("((i + 1) * 2 - m) / 3", m=6)
        assert len(g) == 0

    def test_uniform_condition_picks_arm(self):
        g, _, v = build("if m > 0 then 7 else 8 endif", m=3)
        assert v == Uniform(7)
        assert len(g) == 0


class TestArrayTaps:
    def test_full_window_has_no_gate(self):
        g, _, v = build("A[i]", arrays=[("A", 0, 5)])
        assert isinstance(v, Wire)
        assert len(g.cells_by_op(Op.ID)) == 0  # direct from the source

    def test_offset_window_gates(self):
        g, _, v = build("A[i+1]", arrays=[("A", 0, 6)])
        gates = g.cells_by_op(Op.ID)
        assert len(gates) == 1 and gates[0].gated

    def test_window_gate_arc_carries_phase_weight(self):
        g, _, _ = build("A[i+2]", arrays=[("A", 0, 7)])
        src = g.find("in_A")
        arc = g.out_arcs[src.cid][0]
        assert arc.weight == 1 + 2 * 2

    def test_taps_are_shared(self):
        g, builder, _ = build("A[i] + A[i]", arrays=[("A", 0, 5)])
        assert len(g.cells_by_op(Op.SOURCE)) == 1
        assert len(g.cells_by_op(Op.ADD)) == 1

    def test_out_of_bounds_rejected(self):
        with pytest.raises(CompileError, match="outside the input range"):
            build("A[i+1]", arrays=[("A", 0, 5)])  # i=5 -> A[6]

    def test_guarded_access_is_in_bounds(self):
        # the compile-time guard prunes the out-of-range iterations
        out = run_expr(
            "if i < 5 then A[i+1] else 0. endif",
            {"A": [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]},
            arrays=[("A", 0, 5)],
        )
        assert out == [11.0, 12.0, 13.0, 14.0, 15.0, 0.0]

    def test_window_patterns_in_paper_notation(self):
        # A over [0, m+1], i in [1, m], m = 4: the taps read
        # A[i-1] as T..TFF, A[i] as FT..TF and A[i+1] as FFT..T
        g, _, _ = build(
            "A[i-1] + A[i] + A[i+1]", m=4, lo=1, hi=4,
            arrays=[("A", 0, 5)],
        )
        T, F = True, False
        assert g.find("win_A-1").params["values"] == [T, T, T, T, F, F]
        assert g.find("win_A+0").params["values"] == [F, T, T, T, T, F]
        assert g.find("win_A+1").params["values"] == [F, F, T, T, T, T]

    def test_gapped_selection_pattern(self):
        # a compile-time guard selecting only the two boundary
        # iterations gates A[i] with TFFFFT
        g, _, _ = build(
            "if (i = 0) | (i = m - 1) then A[i] else 0. endif",
            arrays=[("A", 0, 5)],
        )
        assert g.find("win_A+0").params["values"] == [
            True, False, False, False, False, True
        ]

    def test_unknown_array(self):
        with pytest.raises(CompileError, match="unknown array"):
            build("Z[i]")

    def test_values_flow(self):
        out = run_expr(
            "A[i] * 2.", {"A": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
            arrays=[("A", 0, 5)],
        )
        assert out == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]

    def test_three_point_stencil(self):
        A = [float(k) for k in range(8)]
        out = run_expr(
            "A[i-1] + A[i] + A[i+1]",
            {"A": A},
            m=6,
            lo=1,
            hi=6,
            arrays=[("A", 0, 7)],
        )
        assert out == [sum(A[i - 1: i + 2]) for i in range(1, 7)]


class TestOperators:
    def test_constant_becomes_operand_field(self):
        g, builder, v = build("A[i] * 3.", arrays=[("A", 0, 5)])
        mul = g.cells_by_op(Op.MUL)[0]
        assert mul.consts == {1: 3.0}

    def test_constant_on_left(self):
        g, _, _ = build("10. - A[i]", arrays=[("A", 0, 5)])
        sub = g.cells_by_op(Op.SUB)[0]
        assert sub.consts == {0: 10.0}

    def test_sequence_operand_becomes_pattern_source(self):
        g, _, _ = build("A[i] * i", arrays=[("A", 0, 5)])
        pats = [
            c for c in g.cells_by_op(Op.SOURCE) if "values" in c.params
        ]
        assert any(c.params["values"] == [0, 1, 2, 3, 4, 5] for c in pats)

    def test_unary_minus(self):
        out = run_expr("-A[i]", {"A": [1.0, -2.0, 3.0, -4.0, 5.0, 6.0]},
                       arrays=[("A", 0, 5)])
        assert out == [-1.0, 2.0, -3.0, 4.0, -5.0, -6.0]

    def test_relational(self):
        out = run_expr("A[i] > 0.", {"A": [1.0, -1.0, 0.0, 2.0, -2.0, 3.0]},
                       arrays=[("A", 0, 5)])
        assert out == [True, False, False, True, False, True]


class TestLet:
    def test_let_shares_definition(self):
        g, _, _ = build(
            "let y : real := A[i] * A[i] in y + y endlet",
            arrays=[("A", 0, 5)],
        )
        assert len(g.cells_by_op(Op.MUL)) == 1  # y computed once

    def test_let_values(self):
        out = run_expr(
            "let y : real := A[i] + 1. in y * y endlet",
            {"A": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]},
            arrays=[("A", 0, 5)],
        )
        assert out == [(k + 1.0) ** 2 for k in range(6)]

    def test_let_scoping_restored(self):
        g, builder, _ = build(
            "let y : real := 1. in y endlet", arrays=[("A", 0, 5)]
        )
        assert "y" not in builder.env


class TestConditionals:
    def test_runtime_conditional_structure(self):
        g, _, _ = build(
            "if C[i] then A[i] else B[i] endif",
            arrays=[("A", 0, 5), ("B", 0, 5), ("C", 0, 5)],
        )
        assert len(g.cells_by_op(Op.MERGE)) == 1
        gates = [c for c in g.cells_by_op(Op.ID) if c.gated]
        assert len(gates) == 2  # one shared gate per data stream

    def test_runtime_conditional_values(self):
        out = run_expr(
            "if C[i] then A[i] else -A[i] endif",
            {
                "A": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                "C": [True, False, True, False, True, False],
            },
            arrays=[("A", 0, 5), ("C", 0, 5)],
        )
        assert out == [1.0, -2.0, 3.0, -4.0, 5.0, -6.0]

    def test_static_conditional_with_runtime_arms(self):
        out = run_expr(
            "if i = 0 then A[i] else A[i] * 10. endif",
            {"A": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
            arrays=[("A", 0, 5)],
        )
        assert out == [1.0, 20.0, 30.0, 40.0, 50.0, 60.0]

    def test_uniform_arm_becomes_merge_constant(self):
        g, _, _ = build(
            "if C[i] then 5. else A[i] endif",
            arrays=[("A", 0, 5), ("C", 0, 5)],
        )
        merge = g.cells_by_op(Op.MERGE)[0]
        assert merge.consts.get(1) == 5.0  # I1 (true side) constant

    def test_nested_conditionals(self):
        out = run_expr(
            "if C[i] then if A[i] > 0. then 1. else 2. endif else 3. endif",
            {
                "A": [1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
                "C": [True, True, False, False, True, True],
            },
            arrays=[("A", 0, 5), ("C", 0, 5)],
        )
        assert out == [1.0, 2.0, 3.0, 3.0, 1.0, 2.0]

    def test_mixed_static_in_runtime(self):
        # static predicate inside a runtime arm must degrade to runtime
        out = run_expr(
            "if C[i] then (if i < 3 then A[i] else -A[i] endif) else 0. endif",
            {
                "A": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                "C": [True, True, True, True, True, False],
            },
            arrays=[("A", 0, 5), ("C", 0, 5)],
        )
        assert out == [1.0, 2.0, 3.0, -4.0, -5.0, 0.0]


class TestFullPipelining:
    """Compiled expressions sustain the maximum rate after balancing."""

    @pytest.mark.parametrize(
        "src,arrays",
        [
            ("A[i] * 2. + 1.", [("A", 0, 99)]),
            ("A[i-1] + 2. * A[i] + A[i+1]", [("A", -1, 100)]),
            ("if C[i] then A[i] else -A[i] endif", [("A", 0, 99), ("C", 0, 99)]),
            ("let y : real := A[i] * A[i] in (y + 2.) * (y - 3.) endlet",
             [("A", 0, 99)]),
        ],
    )
    def test_steady_state_ii_is_two(self, src, arrays):
        g = DataflowGraph("t")
        specs = {n: ArraySpec(n, lo, hi) for n, lo, hi in arrays}
        builder = ExprBuilder(g, "i", 0, 99, {}, specs)
        value = builder.compile(parse_expression(src), ROOT)
        wire = builder.materialize(value, ROOT)
        sink = g.add_sink("out", stream="out", limit=100)
        g.connect(wire.cell, sink, 0, tag=wire.tag)
        balance_graph(g)
        inputs = {}
        for n, lo, hi in arrays:
            if n == "C":
                inputs[n] = [(k % 3 == 0) for k in range(hi - lo + 1)]
            else:
                inputs[n] = [float(k) for k in range(hi - lo + 1)]
        res = repro.run(g, inputs, backend="sync")
        assert res.initiation_interval() == pytest.approx(2.0, abs=0.1)

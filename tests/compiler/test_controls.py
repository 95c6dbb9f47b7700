"""Tests for Todd-style dataflow control generation."""

import random

import pytest

import repro
from repro.compiler import (
    build_selfclocked_counter,
    compile_program,
    expand_controls,
)
from repro.graph import DataflowGraph, Op, validate
from repro.workloads import SOURCES
from tests.util import assert_outputs_match, random_inputs, reference_outputs


def pattern_tables(g) -> list:
    return [c for c in g.cells_by_op(Op.SOURCE) if "values" in c.params]


class TestSelfClockedCounter:
    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_counts_from_zero(self, n):
        g = DataflowGraph()
        ctr = build_selfclocked_counter(g, n)
        sink = g.add_sink("out", stream="k", limit=n)
        g.connect(ctr, sink, 0)
        validate(g)
        res = repro.run(g, {}, backend="sync")
        assert res.outputs["k"] == list(range(n))

    def test_full_rate(self):
        g = DataflowGraph()
        ctr = build_selfclocked_counter(g, 60)
        sink = g.add_sink("out", stream="k", limit=60)
        g.connect(ctr, sink, 0)
        res = repro.run(g, {}, backend="sync")
        assert res.initiation_interval("k") == pytest.approx(2.0, abs=0.05)

    def test_no_pattern_sources_inside(self):
        g = DataflowGraph()
        ctr = build_selfclocked_counter(g, 5)
        sink = g.add_sink("out", stream="k", limit=5)
        g.connect(ctr, sink, 0)
        assert not pattern_tables(g)


class TestExpansion:
    def expand_and_run(self, pattern, n_out=None):
        g = DataflowGraph()
        src = g.add_source("x", stream="x")
        ctl = g.add_pattern_source("ctl", pattern)
        gate = g.add_cell(Op.ID, name="gate")
        sink = g.add_sink("out", stream="y")
        g.connect(src, gate, 0)
        g.connect(ctl, gate, -1)
        g.connect(gate, sink, 0, tag=True)
        report = expand_controls(g)
        validate(g)
        xs = list(range(len(pattern)))
        res = repro.run(g, {"x": xs}, backend="sync")
        return report, res.outputs["y"], [x for x, b in zip(xs, pattern) if b]

    @pytest.mark.parametrize(
        "pattern",
        [
            [True, True, False, False],                    # T..TFF window
            [False, True, True, True, False],              # FT..TF window
            [True, False, False, False, True],             # boundary T,F..,T
            [False, True, False, True, True, False, True],  # many runs
            [True] + [False] * 6,
            [False] * 6 + [True],
        ],
    )
    def test_boolean_patterns(self, pattern):
        report, got, expect = self.expand_and_run(pattern)
        assert report.expanded_boolean == 1
        assert got == expect

    def test_constant_patterns_kept(self):
        report, got, expect = self.expand_and_run([True, True, True])
        assert report.expanded_boolean == 0
        assert report.kept_tables >= 1
        assert got == expect

    def test_affine_sequences_expanded(self):
        g = DataflowGraph()
        seq = g.add_pattern_source("iota", [5, 8, 11, 14])
        sink = g.add_sink("out", stream="y", limit=4)
        g.connect(seq, sink, 0)
        report = expand_controls(g)
        validate(g)
        assert report.expanded_affine == 1
        res = repro.run(g, {}, backend="sync")
        assert res.outputs["y"] == [5, 8, 11, 14]

    def test_irregular_tables_kept(self):
        g = DataflowGraph()
        seq = g.add_pattern_source("tab", [1.0, 4.0, 2.0])
        sink = g.add_sink("out", stream="y", limit=3)
        g.connect(seq, sink, 0)
        report = expand_controls(g)
        assert report.expanded_affine == 0
        assert report.kept_tables >= 1
        res = repro.run(g, {}, backend="sync")
        assert res.outputs["y"] == [1.0, 4.0, 2.0]


class TestCompiledWithDataflowControls:
    @pytest.mark.parametrize("name", ["example1", "example2", "fig5", "fig3"])
    def test_semantics_preserved(self, name):
        rng = random.Random(7)
        m = 11
        cp = compile_program(
            SOURCES[name], params={"m": m}, controls="dataflow"
        )
        inputs = random_inputs(cp, rng, bool_arrays=frozenset({"C"})
                               if name == "fig5" else frozenset())
        result = cp.run(inputs)
        reference = reference_outputs(SOURCES[name], cp, inputs, {"m": m})
        assert_outputs_match(result.outputs, reference)

    def test_example1_fully_table_free(self):
        cp = compile_program(
            SOURCES["example1"], params={"m": 10}, controls="dataflow"
        )
        assert not pattern_tables(cp.graph)

    def test_still_fully_pipelined(self):
        m = 200
        cp = compile_program(
            SOURCES["example2"], params={"m": m}, controls="dataflow"
        )
        res = cp.run({"A": [1.0] * m, "B": [0.5] * m})
        assert res.initiation_interval("X") == pytest.approx(2.0, abs=0.05)

    def test_unknown_mode_rejected(self):
        from repro.errors import CompileError

        with pytest.raises(CompileError, match="controls"):
            compile_program(
                SOURCES["fig2"], params={"m": 4}, controls="telepathy"
            )

    def test_machine_runs_expanded_code(self):

        m = 10
        cp = compile_program(
            SOURCES["example1"], params={"m": m}, controls="dataflow"
        )
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        expect = cp.run(inputs).outputs["A"].to_list()
        outs = repro.run(cp.graph, inputs).outputs
        assert outs["A"] == expect

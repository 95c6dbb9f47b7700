"""Tests for program linking and the compile driver (Theorem 4)."""

from fractions import Fraction

import pytest

from repro.analysis import static_traffic_estimate
from repro.compiler import compile_program, infer_input_ranges, verify_balanced
from repro.errors import CompileError
from repro.graph import Op, validate
from repro.val import parse_program
from repro.workloads.programs import SOURCES
from tests.util import compile_and_compare


class TestInputRangeInference:
    def infer(self, name, m=8, **kw):
        return infer_input_ranges(
            parse_program(SOURCES[name]), {"m": m}, **kw
        )

    def test_example1_boundary_guard_tightens_range(self):
        """C is accessed at offsets -1..+1 but the boundary conditional
        guards the out-of-range iterations: inferred range is exactly
        [0, m+1]."""
        specs = self.infer("example1", m=8)
        assert (specs["C"].lo, specs["C"].hi) == (0, 9)
        assert (specs["B"].lo, specs["B"].hi) == (0, 9)

    def test_fig4_unguarded_stencil_needs_halo(self):
        specs = self.infer("fig4", m=8)
        assert (specs["C"].lo, specs["C"].hi) == (0, 9)

    def test_example2(self):
        specs = self.infer("example2", m=8)
        assert (specs["A"].lo, specs["A"].hi) == (1, 8)
        assert (specs["B"].lo, specs["B"].hi) == (1, 8)

    def test_fig3_internal_stream_excluded(self):
        specs = self.infer("fig3", m=8)
        assert set(specs) == {"B", "C", "D"}

    def test_override(self):
        specs = self.infer("example2", m=8, overrides={"A": (0, 20)})
        assert (specs["A"].lo, specs["A"].hi) == (0, 20)
        assert (specs["B"].lo, specs["B"].hi) == (1, 8)


class TestLinking:
    def test_fig3_splices_the_stream(self):
        cp = compile_program(SOURCES["fig3"], params={"m": 8})
        # A is produced and consumed: no SOURCE cell for it, no sink kept
        streams = {
            c.params.get("stream") for c in cp.graph.sources()
        }
        assert "A" not in streams
        sink_streams = {
            c.params["stream"] for c in cp.graph.cells_by_op(Op.SINK)
        }
        assert sink_streams == {"X"}

    def test_keep_all_outputs(self):
        cp = compile_program(
            SOURCES["fig3"], params={"m": 8}, keep_all_outputs=True
        )
        sink_streams = {
            c.params["stream"] for c in cp.graph.cells_by_op(Op.SINK)
        }
        assert sink_streams == {"A", "X"}
        assert set(cp.output_specs) == {"A", "X"}

    def test_diamond_reconvergence(self):
        """U feeds V and W which feed Z: the flow dependency graph is a
        diamond and must still link and balance."""
        cp, res = compile_and_compare(
            SOURCES["diamond"], {"m": 12}, seed=3
        )
        assert set(cp.output_specs) == {"Z"}
        validate(cp.graph)

    def test_nonblock_program_rejected(self):
        with pytest.raises(CompileError, match="neither forall nor"):
            compile_program("Y : real := 1.", typecheck=False)


class TestCompiledProgramApi:
    def test_missing_input_reported(self):
        cp = compile_program(SOURCES["example2"], params={"m": 5})
        with pytest.raises(CompileError, match="missing input array 'A'"):
            cp.run({"B": [1.0] * 5})

    def test_wrong_range_reported(self):
        cp = compile_program(SOURCES["example2"], params={"m": 5})
        with pytest.raises(CompileError, match="covers"):
            cp.run({"A": [1.0] * 4, "B": [1.0] * 5})

    def test_unexpected_input_reported(self):
        cp = compile_program(SOURCES["example2"], params={"m": 5})
        with pytest.raises(CompileError, match="unexpected"):
            cp.run({"A": [1.0] * 5, "B": [1.0] * 5, "Z": [1.0]})

    def test_valarray_inputs(self):
        from repro.val import ValArray

        cp = compile_program(SOURCES["example2"], params={"m": 3})
        res = cp.run(
            {
                "A": ValArray(1, (1.0, 1.0, 1.0)),
                "B": ValArray(1, (1.0, 2.0, 3.0)),
            }
        )
        assert res.outputs["X"].to_list() == [0.0, 1.0, 3.0, 6.0]
        assert res.outputs["X"].lo == 0

    def test_describe_mentions_blocks(self):
        cp = compile_program(SOURCES["fig3"], params={"m": 6})
        text = cp.describe()
        assert "block A" in text and "block X" in text
        assert "balancing" in text

    def test_describe_pins_block_and_loop_lines(self):
        """describe() is the one compile report: its block lines carry
        each block's range, size and loop rate bound."""
        for scheme, x_line in (
            ("companion", "  block X: [0,12] 29 cells "
                          "loop(len=4, tokens=2, rate<=1/2)"),
            ("todd", "  block X: [0,12] 10 cells "
                     "loop(len=3, tokens=1, rate<=1/3)"),
        ):
            cp = compile_program(
                SOURCES["fig3"], params={"m": 12}, foriter_scheme=scheme
            )
            lines = cp.describe().splitlines()
            assert lines[1:3] == ["  block A: [0,13] 19 cells", x_line]

    def test_fig3_is_balanced_and_fully_pipelined(self):
        cp = compile_program(SOURCES["fig3"], params={"m": 12})
        assert verify_balanced(cp.graph)
        assert cp.balance.inserted_stages > 0
        assert set(cp.artifacts) == {"A", "X"}
        assert cp.artifacts["A"].graph.meta.get("loop") is None
        assert cp.artifacts["X"].graph.meta["loop"] == {
            "length": 4, "tokens": 2, "rate_bound": Fraction(1, 2),
        }
        assert static_traffic_estimate(cp.graph).am_fraction == 0.0

    def test_dot_export(self):
        cp = compile_program(SOURCES["fig2"], params={"m": 4})
        dot = cp.to_dot()
        assert dot.startswith("digraph") and "MERGE" not in dot

    def test_balance_none_leaves_graph_unbuffered(self):
        cp_b = compile_program(SOURCES["example1"], params={"m": 6})
        cp_n = compile_program(
            SOURCES["example1"], params={"m": 6}, balance="none"
        )
        assert cp_n.balance is None
        assert cp_n.cell_count < cp_b.cell_count

    def test_typecheck_catches_errors(self):
        from repro.errors import ValTypeError

        bad = "Y : array[real] := forall i in [0, m] construct A[i] & true endall"
        with pytest.raises(ValTypeError):
            compile_program(bad, params={"m": 4})


class TestTheorem4:
    """Linked pipe-structured programs are fully pipelined end to end."""

    def test_fig3_full_rate(self):
        m = 150
        cp = compile_program(SOURCES["fig3"], params={"m": m})
        inputs = {
            name: [1.0] * spec.length for name, spec in cp.input_specs.items()
        }
        res = cp.run(inputs)
        assert res.initiation_interval("X") == pytest.approx(2.0, abs=0.05)

    def test_fig3_todd_bottleneck_throttles_the_whole_pipe(self):
        """With the for-iter block compiled by Todd's scheme the entire
        linked pipeline degrades to rate 1/3 -- the slowest stage sets
        the computation rate (Section 3)."""
        m = 150
        cp = compile_program(
            SOURCES["fig3"], params={"m": m}, foriter_scheme="todd"
        )
        inputs = {
            name: [1.0] * spec.length for name, spec in cp.input_specs.items()
        }
        res = cp.run(inputs)
        assert res.initiation_interval("X") == pytest.approx(3.0, abs=0.05)

    def test_diamond_full_rate(self):
        m = 150
        cp = compile_program(SOURCES["diamond"], params={"m": m})
        inputs = {
            name: [1.0] * spec.length for name, spec in cp.input_specs.items()
        }
        res = cp.run(inputs)
        assert res.initiation_interval("Z") == pytest.approx(2.0, abs=0.05)

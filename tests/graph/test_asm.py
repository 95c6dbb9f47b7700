"""Tests for the dfasm textual machine-code format."""

import random

import pytest

import repro
from repro.compiler import compile_program
from repro.errors import GraphError
from repro.graph import DataflowGraph, Op, validate
from repro.graph.asm import from_asm, read_asm, to_asm, write_asm
from repro.workloads import SOURCES, random_layered_graph


def graphs_equal(a: DataflowGraph, b: DataflowGraph) -> bool:
    if sorted(a.cells) != sorted(b.cells):
        return False
    for cid in a.cells:
        ca, cb = a.cells[cid], b.cells[cid]
        if (ca.op, ca.name, ca.consts, ca.gated, ca.params) != (
            cb.op, cb.name, cb.consts, cb.gated, cb.params
        ):
            return False
    arcs_a = sorted(
        (x.src, x.dst, x.dst_port, x.tag, x.weight,
         x.initial if x.has_initial else None, x.has_initial)
        for x in a.arcs.values()
    )
    arcs_b = sorted(
        (x.src, x.dst, x.dst_port, x.tag, x.weight,
         x.initial if x.has_initial else None, x.has_initial)
        for x in b.arcs.values()
    )
    return arcs_a == arcs_b


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["fig2", "example1", "example2", "fig5"])
    def test_compiled_programs_round_trip(self, name):
        cp = compile_program(SOURCES[name], params={"m": 9})
        text = to_asm(cp.graph)
        g2 = from_asm(text)
        validate(g2)
        assert graphs_equal(cp.graph, g2)

    def test_random_graphs_round_trip(self):
        for seed in range(5):
            g = random_layered_graph(random.Random(seed), n_layers=4, width=3)
            g2 = from_asm(to_asm(g))
            validate(g2)
            assert graphs_equal(g, g2)

    def test_round_trip_preserves_behaviour(self):
        cp = compile_program(SOURCES["example2"], params={"m": 8})
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        r1 = repro.run(cp.graph, inputs, backend="sync")
        g2 = from_asm(to_asm(cp.graph))
        r2 = repro.run(g2, inputs, backend="sync")
        assert r1.outputs == r2.outputs
        assert (
            r1.sink_times["X"] == r2.sink_times["X"]
        )

    @pytest.mark.parametrize("controls", ["patterns", "dataflow"])
    def test_round_trip_with_both_control_modes(self, controls):
        cp = compile_program(
            SOURCES["example1"], params={"m": 8}, controls=controls
        )
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        direct = repro.run(cp.graph, inputs, backend="sync")
        again = repro.run(from_asm(to_asm(cp.graph)), inputs, backend="sync")
        assert direct.outputs == again.outputs

    def test_feedback_arcs_metadata_round_trips(self):
        cp = compile_program(
            SOURCES["example2"], params={"m": 8}, foriter_scheme="todd"
        )
        g2 = from_asm(to_asm(cp.graph))
        orig = cp.graph.meta["feedback_arcs"]
        back = g2.meta["feedback_arcs"]
        assert len(orig) == len(back)
        ends = lambda g, aids: sorted(  # noqa: E731
            (g.arcs[a].src, g.arcs[a].dst) for a in aids
        )
        assert ends(cp.graph, orig) == ends(g2, back)

    def test_file_round_trip(self, tmp_path):
        g = random_layered_graph(random.Random(7), n_layers=3, width=2)
        path = tmp_path / "g.dfasm"
        write_asm(g, str(path))
        g2 = read_asm(str(path))
        assert graphs_equal(g, g2)

    def test_double_round_trip_is_stable(self):
        cp = compile_program(SOURCES["example1"], params={"m": 6})
        once = to_asm(from_asm(to_asm(cp.graph)))
        assert once == to_asm(from_asm(once))


class TestFormat:
    def test_readable_output(self):
        g = DataflowGraph("demo")
        s = g.add_source("in", stream="x")
        add = g.add_cell(Op.ADD, name="plus1", consts={1: 1.0})
        sink = g.add_sink("out", stream="y", limit=3)
        g.connect(s, add, 0)
        g.connect(add, sink, 0)
        text = to_asm(g)
        assert "graph demo" in text
        assert ".stream 'x'" in text
        assert ".const 1 1.0" in text
        assert "arc 1 2 0" in text

    def test_gate_port_spelled_gate(self):
        g = DataflowGraph()
        s = g.add_source("x", stream="x")
        ctl = g.add_pattern_source("ctl", [True, False])
        gate = g.add_cell(Op.ID, name="gate")
        sink = g.add_sink("out", stream="y")
        g.connect(s, gate, 0)
        g.connect(ctl, gate, -1)
        g.connect(gate, sink, 0, tag=True)
        text = to_asm(g)
        assert "gate" in text and "tag=T" in text
        g2 = from_asm(text)
        assert g2.find("gate").gated

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# header comment\n"
            "graph t\n\n"
            "cell 0 source\n"
            "  .stream 'x'   # trailing\n"
            "cell 1 sink\n"
            "  .stream 'y'\n"
            "arc 0 1 0\n"
        )
        g = from_asm(text)
        assert len(g) == 2 and len(g.arcs) == 1

    def test_bad_directive(self):
        with pytest.raises(GraphError, match="unknown directive"):
            from_asm("bogus 1 2 3\n")

    def test_bad_opcode(self):
        with pytest.raises(GraphError, match="line 1"):
            from_asm("cell 0 frobnicate\n")

    def test_dangling_arc(self):
        with pytest.raises(GraphError, match="unknown cell"):
            from_asm("cell 0 id\narc 0 9 0\n")

    def test_attribute_outside_cell(self):
        with pytest.raises(GraphError, match="outside"):
            from_asm("  .name foo\n")

    def test_unknown_arc_attribute(self):
        with pytest.raises(GraphError, match="arc attribute"):
            from_asm("cell 0 id\ncell 1 id\narc 0 1 0 color=red\n")

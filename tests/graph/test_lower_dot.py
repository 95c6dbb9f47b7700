"""Tests for FIFO lowering and dot export."""

import repro
from repro.compiler import compile_program
from repro.graph import DataflowGraph, Op, lower_fifos, to_dot, validate
from repro.workloads import SOURCES


class TestLowering:
    def graph_with_fifo(self, depth=3, tagged=False):
        g = DataflowGraph("t")
        s = g.add_source("src", stream="x")
        f = g.add_fifo(depth)
        sink = g.add_sink("out", stream="y")
        if tagged:
            ctl = g.add_pattern_source("ctl", [True, False, True, False])
            gate = g.add_cell(Op.ID, name="gate")
            g.connect(s, gate, 0)
            g.connect(ctl, gate, -1)
            g.connect(gate, f, 0, tag=True)
        else:
            g.connect(s, f, 0)
        g.connect(f, sink, 0)
        return g

    def test_expansion_counts(self):
        g = self.graph_with_fifo(4)
        lowered = lower_fifos(g)
        assert not lowered.cells_by_op(Op.FIFO)
        assert len(lowered.cells_by_op(Op.ID)) == 4
        validate(lowered)

    def test_expansion_preserves_tags(self):
        g = self.graph_with_fifo(2, tagged=True)
        lowered = lower_fifos(g)
        validate(lowered)
        tagged = [a for a in lowered.arcs.values() if a.tag is not None]
        assert len(tagged) == 1 and tagged[0].tag is True
        res = repro.run(lowered, {"x": [1, 2, 3, 4]}, backend="sync")
        assert res.outputs["y"] == [1, 3]

    def test_expansion_preserves_initial_tokens(self):
        g = DataflowGraph()
        a = g.add_cell(Op.ID, name="a")
        f = g.add_fifo(2)
        sink = g.add_sink("out", stream="t")
        g.connect(a, f, 0)
        g.connect(f, a, 0, initial=7)
        g.connect(a, sink, 0)
        lowered = lower_fifos(g)
        assert sum(1 for arc in lowered.arcs.values() if arc.has_initial) == 1

    def test_no_fifo_graphs_copy_through(self):
        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        sink = g.add_sink("out", stream="y")
        g.connect(s, sink, 0)
        lowered = lower_fifos(g)
        assert len(lowered) == 2


    def test_compiled_fifos_expand_by_their_stages(self):
        """Lowering a balanced program adds one cell per buffer stage
        beyond the first of each FIFO."""
        cp = compile_program(SOURCES["fig4"], params={"m": 8})
        fifos = cp.graph.cells_by_op(Op.FIFO)
        assert fifos
        lowered = lower_fifos(cp.graph)
        validate(lowered)
        assert len(lowered) - len(cp.graph) == (
            cp.balance.inserted_stages - len(fifos)
        )


class TestDot:
    def test_dot_mentions_cells_and_tags(self):
        g = DataflowGraph("demo")
        s = g.add_source("src", stream="x")
        ctl = g.add_pattern_source("ctl", [True, True, False])
        gate = g.add_cell(Op.ID, name="gate")
        f = g.add_fifo(5)
        sink = g.add_sink("out", stream="y")
        g.connect(s, gate, 0)
        g.connect(ctl, gate, -1)
        g.connect(gate, f, 0, tag=True)
        g.connect(f, sink, 0)
        text = to_dot(g, title="demo graph")
        assert text.startswith("digraph")
        assert "FIFO(5)" in text
        assert 'label="T"' in text
        assert "ctl<TTF>" in text
        assert "demo graph" in text

    def test_dot_marks_initial_tokens(self):
        g = DataflowGraph()
        a = g.add_cell(Op.ID, name="a")
        b = g.add_cell(Op.ID, name="b")
        sink = g.add_sink("out", stream="t")
        g.connect(a, b, 0, initial=3)
        g.connect(b, a, 0)
        g.connect(b, sink, 0)
        text = to_dot(g)
        assert "color=red" in text and "(3)" in text

    def test_write_dot(self, tmp_path):
        from repro.graph import write_dot

        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        sink = g.add_sink("out", stream="y")
        g.connect(s, sink, 0)
        path = tmp_path / "g.dot"
        write_dot(g, str(path))
        assert path.read_text().startswith("digraph")

"""Tests for control-sequence helpers, FIFO lowering and dot export."""

import pytest

import repro
from repro.errors import GraphError
from repro.graph import (
    DataflowGraph,
    Op,
    first_k_pattern,
    last_k_pattern,
    lower_fifos,
    pattern_to_str,
    predicate_pattern,
    str_to_pattern,
    strip_names,
    to_dot,
    validate,
    window_pattern,
)


class TestPatterns:
    def test_window_pattern_paper_notation(self):
        # C[i-1] for i in [1, m], C over [0, m+1], m = 4: T..TFF
        assert pattern_to_str(window_pattern(0, 5, 0, 3)) == "TTTTFF"
        # C[i] : FT..TF
        assert pattern_to_str(window_pattern(0, 5, 1, 4)) == "FTTTTF"
        # C[i+1] : FFT..T
        assert pattern_to_str(window_pattern(0, 5, 2, 5)) == "FFTTTT"

    def test_window_pattern_bounds(self):
        with pytest.raises(GraphError, match="outside"):
            window_pattern(0, 5, -1, 3)
        with pytest.raises(GraphError, match="empty"):
            window_pattern(0, 5, 4, 2)

    def test_first_last_k(self):
        assert first_k_pattern(5, 2) == [False, False, True, True, True]
        assert last_k_pattern(5, 2) == [True, True, True, False, False]
        assert first_k_pattern(4, 1, value=True) == [True, False, False, False]
        with pytest.raises(GraphError):
            first_k_pattern(3, 4)
        with pytest.raises(GraphError):
            last_k_pattern(3, -1)

    def test_predicate_pattern(self):
        pat = predicate_pattern(0, 5, lambda i: i in (0, 5))
        assert pattern_to_str(pat) == "TFFFFT"

    def test_str_roundtrip(self):
        assert str_to_pattern("TFFT") == [True, False, False, True]
        assert pattern_to_str(str_to_pattern("TTFF")) == "TTFF"
        with pytest.raises(GraphError, match="bad pattern"):
            str_to_pattern("TXF")


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

    def test_strip_names(self):
        g = self.graph_with_fifo(2)
        anon = strip_names(g)
        assert all(not c.name for c in anon)
        validate(anon)


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

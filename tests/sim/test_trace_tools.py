"""Tests for the trace/utilization reporting helpers."""

import pytest

from repro.analysis import pipeline_depth
from repro.graph import DataflowGraph, Op
from repro.sim import (
    SyncSimulator,
    format_trace,
    occupancy_snapshot,
    utilization_report,
)


def pipeline() -> DataflowGraph:
    g = DataflowGraph("p")
    s = g.add_source("src", stream="x")
    a = g.add_cell(Op.ADD, name="plus", consts={1: 1.0})
    f = g.add_fifo(3)
    sink = g.add_sink("out", stream="y")
    g.connect(s, a, 0)
    g.connect(a, f, 0)
    g.connect(f, sink, 0)
    return g


class TestFormatTrace:
    def test_requires_recording(self):
        sim = SyncSimulator(pipeline(), {"x": [1.0]})
        with pytest.raises(ValueError, match="record_trace"):
            format_trace(sim)

    def test_lists_fired_cells(self):
        sim = SyncSimulator(pipeline(), {"x": [1.0, 2.0]}, record_trace=True)
        sim.run()
        text = format_trace(sim)
        assert "t=    0" in text
        assert "src" in text and "plus" in text

    def test_window_and_width(self):
        sim = SyncSimulator(pipeline(), {"x": [1.0] * 5}, record_trace=True)
        sim.run()
        text = format_trace(sim, first=2, last=4)
        assert text.count("\n") == 1  # two lines


class TestUtilizationReport:
    def test_table_shape(self):
        g = pipeline()
        sim = SyncSimulator(g, {"x": [1.0] * 20})
        stats = sim.run()
        report = utilization_report(g, stats)
        lines = report.splitlines()
        assert "util" in lines[0]
        assert len(lines) == 1 + len(g)

    def test_top_filter(self):
        g = pipeline()
        sim = SyncSimulator(g, {"x": [1.0] * 20})
        stats = sim.run()
        report = utilization_report(g, stats, top=2)
        assert len(report.splitlines()) == 3

    def test_full_pipeline_utilization_near_one(self):
        g = pipeline()
        sim = SyncSimulator(g, {"x": [1.0] * 50})
        stats = sim.run()
        add = g.find("plus")
        assert stats.utilization(add.cid) > 0.85


class TestOccupancy:
    def test_counts_tokens(self):
        g = pipeline()
        sim = SyncSimulator(g, {"x": [1.0] * 10})
        for _ in range(6):
            sim.step()
        snap = occupancy_snapshot(sim)
        assert snap["total"] == snap["arcs"] + snap["fifos"]
        assert snap["total"] >= 1

    def test_empty_after_drain(self):
        g = pipeline()
        sim = SyncSimulator(g, {"x": [1.0]})
        sim.run()
        snap = occupancy_snapshot(sim)
        assert snap["total"] == 0


class TestStageDepth:
    def test_counts_fifo_depth(self):
        # instruction times from the source: add 1, fifo(3) 3, sink 1
        assert pipeline_depth(pipeline()) == 5

    def test_plain_chain(self):
        g = DataflowGraph()
        s = g.add_source("s", stream="x")
        a = g.add_cell(Op.ID)
        k = g.add_sink("k", stream="y")
        g.connect(s, a, 0)
        g.connect(a, k, 0)
        assert pipeline_depth(g) == 2

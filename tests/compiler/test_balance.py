"""Tests for the balancing algorithms (Sections 3 and 8)."""

import pytest

import repro
from repro.analysis import analyze_rate, is_fully_pipelined
from repro.analysis.paths import default_arc_weight
from repro.compiler import (
    balance,
    balance_graph,
    compile_program,
    compute_levels,
    verify_balanced,
)
from repro.compiler.balance import METHODS, min_buffer_stages_via_flow
from repro.compiler.foriter import compile_foriter_interleaved
from repro.errors import CompileError
from repro.graph import DataflowGraph, Op, validate
from repro.val import parse_program
from repro.workloads import EXAMPLE2_SOURCE, SOURCES, figure_workload


def wide_dag(lengths=(3, 1, 0)) -> DataflowGraph:
    """A fork into parallel ID chains of the given lengths, re-joined by
    a chain of ADD cells -- unbalanced whenever lengths differ."""
    g = DataflowGraph("dag")
    src = g.add_source("src", stream="x")
    fork = g.add_cell(Op.ID, name="fork")
    g.connect(src, fork, 0)
    ends = []
    for ci, length in enumerate(lengths):
        prev = fork
        for k in range(length):
            cell = g.add_cell(Op.ID, name=f"c{ci}_{k}")
            g.connect(prev, cell, 0)
            prev = cell
        ends.append(prev)
    join = ends[0]
    for ci, end in enumerate(ends[1:], start=1):
        nxt = g.add_cell(Op.ADD, name=f"join{ci}")
        g.connect(join, nxt, 0)
        g.connect(end, nxt, 1)
        join = nxt
    sink = g.add_sink("out", stream="y")
    g.connect(join, sink, 0)
    return g


def double_diamond() -> DataflowGraph:
    """Two stacked diamonds; minimum buffering is exactly 2 stages."""
    g = DataflowGraph("dd")
    s = g.add_source("s", stream="x")
    v1 = g.add_cell(Op.ID, name="v1")
    x1 = g.add_cell(Op.ID, name="x1")
    w1 = g.add_cell(Op.ADD, name="w1")
    x2 = g.add_cell(Op.ID, name="x2")
    w2 = g.add_cell(Op.ADD, name="w2")
    sink = g.add_sink("out", stream="y")
    g.connect(s, v1, 0)
    g.connect(v1, x1, 0)
    g.connect(x1, w1, 0)
    g.connect(v1, w1, 1)       # short path 1: needs 1 buffer
    g.connect(w1, x2, 0)
    g.connect(x2, w2, 0)
    g.connect(w1, w2, 1)       # short path 2: needs 1 buffer
    g.connect(w2, sink, 0)
    return g


class TestMethods:
    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_balance(self, method):
        g = wide_dag()
        res = balance_graph(g, method=method)
        validate(g)
        assert verify_balanced(g)
        assert res.inserted_stages >= 1

    def test_optimal_not_worse_than_others(self):
        costs = {}
        for method in METHODS:
            g = wide_dag(lengths=(4, 2, 1, 0))
            res = balance_graph(g, method=method)
            costs[method] = res.inserted_stages
        assert costs["optimal"] <= costs["reduce"] <= costs["naive"]

    def test_unknown_method_rejected(self):
        with pytest.raises(CompileError, match="unknown balancing"):
            compute_levels(wide_dag(), method="magic")

    def test_balanced_graph_untouched(self):
        g = DataflowGraph()
        s = g.add_source("s", stream="x")
        a = g.add_cell(Op.ID, name="a")
        b = g.add_cell(Op.NEG, name="b")
        sink = g.add_sink("out", stream="y")
        g.connect(s, a, 0)
        g.connect(a, b, 0)
        g.connect(b, sink, 0)
        res = balance_graph(g)
        assert res.inserted_stages == 0


class TestKnownOptima:
    def test_single_diamond_needs_one_stage(self):
        g = DataflowGraph()
        s = g.add_source("s", stream="x")
        v = g.add_cell(Op.ID, name="v")
        x = g.add_cell(Op.ID, name="x")
        w = g.add_cell(Op.ADD, name="w")
        sink = g.add_sink("out", stream="y")
        g.connect(s, v, 0)
        g.connect(v, x, 0)
        g.connect(x, w, 0)
        g.connect(v, w, 1)
        g.connect(w, sink, 0)
        res = balance_graph(g, method="optimal")
        assert res.inserted_stages == 1

    def test_double_diamond_needs_two_stages(self):
        res = balance_graph(double_diamond(), method="optimal")
        assert res.inserted_stages == 2

    def test_source_slack_is_free(self):
        """A dedicated source reaching a deep join must not be buffered:
        the source is self-paced (its level is a free LP variable)."""
        g = DataflowGraph()
        s1 = g.add_source("s1", stream="a")
        s2 = g.add_source("s2", stream="b")
        deep = s1
        for k in range(5):
            nxt = g.add_cell(Op.ID, name=f"d{k}")
            g.connect(deep, nxt, 0)
            deep = nxt
        join = g.add_cell(Op.ADD, name="join")
        g.connect(deep, join, 0)
        g.connect(s2, join, 1)      # direct from the other source
        sink = g.add_sink("out", stream="y")
        g.connect(join, sink, 0)
        res = balance_graph(g, method="optimal")
        assert res.inserted_stages == 0
        res2 = repro.run(g, {"a": [1.0] * 30, "b": [1.0] * 30}, backend="sync")
        assert res2.initiation_interval() == pytest.approx(2.0)

    def test_naive_buffers_source_slack(self):
        """The naive labeling anchors sources at level 0 and wastes
        buffers on them (why conclusion 2/3 of Section 8 matter)."""
        g = DataflowGraph()
        s1 = g.add_source("s1", stream="a")
        s2 = g.add_source("s2", stream="b")
        deep = s1
        for k in range(5):
            nxt = g.add_cell(Op.ID, name=f"d{k}")
            g.connect(deep, nxt, 0)
            deep = nxt
        join = g.add_cell(Op.ADD, name="join")
        g.connect(deep, join, 0)
        g.connect(s2, join, 1)
        sink = g.add_sink("out", stream="y")
        g.connect(join, sink, 0)
        res = balance_graph(g, method="naive")
        assert res.inserted_stages == 5

    def test_phase_weights_respected(self):
        """Arc weights (window skew) demand proportional FIFO depth."""
        g = DataflowGraph()
        s = g.add_source("s", stream="x")
        g1c = g.add_cell(Op.ID, name="g1")
        g2c = g.add_cell(Op.ID, name="g2")
        join = g.add_cell(Op.ADD, name="join")
        sink = g.add_sink("out", stream="y")
        g.connect(s, g1c, 0, weight=1)          # window shift 0
        g.connect(s, g2c, 0, weight=1 + 2 * 3)  # window shift 3
        g.connect(g1c, join, 0)
        g.connect(g2c, join, 1)
        g.connect(join, sink, 0)
        res = balance_graph(g, method="optimal")
        assert res.inserted_stages == 6  # 2 * shift difference


class TestThroughputRestoration:
    def test_unbalanced_dag_is_slow_then_fixed(self):
        g1 = wide_dag()
        assert not is_fully_pipelined(g1)
        res1 = repro.run(
            g1, {"x": [float(k) for k in range(40)]}, backend="sync",
        )
        assert res1.initiation_interval() > 2.0

        g2 = wide_dag()
        balance_graph(g2)
        assert is_fully_pipelined(g2)
        res2 = repro.run(
            g2, {"x": [float(k) for k in range(40)]}, backend="sync",
        )
        assert res2.initiation_interval() == pytest.approx(2.0)
        assert res1.outputs["y"] == res2.outputs["y"]

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_restores_full_rate(self, method):
        g = wide_dag(lengths=(3, 2, 0))
        balance_graph(g, method=method)
        assert is_fully_pipelined(g)

    def test_rate_analysis_agrees_with_simulation(self):
        g = double_diamond()
        rep = analyze_rate(g)
        res = repro.run(g, {"x": [1.0] * 60}, backend="sync")
        assert res.initiation_interval() == pytest.approx(
            float(rep.initiation_interval), abs=0.1
        )


class TestFeedbackArcsSkipped:
    def test_loop_arcs_untouched(self):
        g = DataflowGraph()
        a = g.add_cell(Op.ID, name="a")
        b = g.add_cell(Op.ID, name="b")
        c = g.add_cell(Op.ID, name="c")
        g.connect(a, b, 0)
        g.connect(b, c, 0)
        back = g.connect(c, a, 0, initial=1)
        sink = g.add_sink("out", stream="t")
        g.connect(c, sink, 0)
        g.meta["feedback_arcs"] = list(g.arcs)
        res = balance_graph(g)
        assert res.inserted_stages == 0
        assert back.aid in g.arcs

    def test_explicit_ignore(self):
        g = wide_dag()
        skip = list(g.arcs)
        res = balance_graph(g, ignore_arcs=skip)
        assert res.inserted_stages == 0


def _figure_graph(fig):
    """The figure's graph as the compiler hands it to the balancer."""
    wl = figure_workload(fig)
    return compile_program(
        SOURCES[wl.source_name], params={"m": 12}, balance="none",
        **wl.compile_opts,
    ).graph


def _example2_graph(batch):
    """The graphs ``repro serve`` keeps resident for Example 2: the
    Todd loop, alone or ``batch`` instances interleaved through it."""
    serial = compile_program(
        EXAMPLE2_SOURCE, params={"m": 8}, foriter_scheme="todd",
        balance="none",
    )
    if batch == 1:
        return serial.graph
    block = parse_program(EXAMPLE2_SOURCE).blocks[0]
    return compile_foriter_interleaved(
        block.name, block.expr, serial.input_specs, {"m": 8}, batch=batch
    ).graph


class TestSolverOnlyWhereThereIsSlack:
    """Longest-path levels with every arc tight *are* the LP optimum
    (total slack 0 is its lower bound), so such a graph never reaches
    the solver; any slack anywhere still does."""

    @staticmethod
    def _replace_solver(monkeypatch, fn):
        import scipy.optimize

        monkeypatch.setattr(scipy.optimize, "linprog", fn)
        # and the name a module-level ``from scipy.optimize import
        # linprog`` would have bound, so neither form slips past
        monkeypatch.setattr(balance, "linprog", fn, raising=False)

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        from scipy.optimize import linprog

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return linprog(*args, **kwargs)

        self._replace_solver(monkeypatch, counted)
        return calls

    @pytest.mark.parametrize("build", [
        lambda: _figure_graph("fig2"),
        lambda: _figure_graph("fig7"),
        lambda: _example2_graph(1),
        lambda: _example2_graph(8),
    ], ids=["fig2", "fig7", "example2", "example2x8"])
    def test_zero_slack_graph_skips_the_lp(self, build, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LP solved for a graph with no slack")

        self._replace_solver(monkeypatch, refuse)
        g = build()
        skip = set(g.meta.get("feedback_arcs", ()))
        w = default_arc_weight(g)
        levels = compute_levels(g, "optimal")
        assert all(
            levels[a.dst] - levels[a.src] == w(a)
            for a in g.arcs.values() if a.aid not in skip
        )
        cells, arcs = set(g.cells), set(g.arcs)
        assert balance_graph(g).inserted_stages == 0
        assert (set(g.cells), set(g.arcs)) == (cells, arcs)
        assert verify_balanced(g)

    @pytest.mark.parametrize("build", [
        wide_dag,
        lambda: _figure_graph("fig4"),
        lambda: _figure_graph("fig6"),
    ], ids=["wide_dag", "fig4", "fig6"])
    def test_slack_still_reaches_the_lp(self, build, lp_calls):
        g = build()
        optimum = min_buffer_stages_via_flow(g)
        assert optimum > 0
        assert balance_graph(g, method="optimal").inserted_stages == optimum
        assert len(lp_calls) == 1
        assert verify_balanced(g)

    def test_unbalanced_graph_is_still_reported(self, lp_calls):
        assert not verify_balanced(wide_dag())
        assert len(lp_calls) == 1

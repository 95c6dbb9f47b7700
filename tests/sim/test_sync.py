"""Tests of the unit-delay simulator's timing model.

These pin down the properties the paper's arguments rest on:
the 2-instruction-time refire period, cyclic rate limits (k tokens in an
L-cycle -> k/L, capped by the reverse acknowledge cycle), the
even-loop-length requirement, FIFO semantics, gating and merging.
"""

import pytest

import repro
from repro.errors import DeadlockError, SimulationError, SimulationTimeout
from repro.graph import (
    GATE_PORT,
    MERGE_CONTROL_PORT,
    MERGE_FALSE_PORT,
    MERGE_TRUE_PORT,
    DataflowGraph,
    Op,
    build_todd_counter,
    lower_fifos,
    window_pattern,
)
from repro.sim import SyncSimulator


def chain_graph(n_ids: int = 1) -> DataflowGraph:
    g = DataflowGraph("chain")
    prev = g.add_source("src", stream="x")
    for k in range(n_ids):
        nxt = g.add_cell(Op.ID, name=f"id{k}")
        g.connect(prev, nxt, 0)
        prev = nxt
    sink = g.add_sink("out", stream="y")
    g.connect(prev, sink, 0)
    return g


class TestBasicFiring:
    def test_values_flow_through_chain(self):
        res = repro.run(chain_graph(3), {"x": [1, 2, 3, 4]}, backend="sync")
        assert res.outputs["y"] == [1, 2, 3, 4]

    def test_refire_period_is_two(self):
        """The paper: an instruction refires every ~2 instruction times."""
        res = repro.run(chain_graph(1), {"x": list(range(20))}, backend="sync")
        times = res.sink_times["y"]
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d == 2 for d in deltas)
        assert res.initiation_interval() == pytest.approx(2.0)

    def test_latency_grows_with_depth(self):
        r1 = repro.run(chain_graph(1), {"x": [5]}, backend="sync")
        r4 = repro.run(chain_graph(4), {"x": [5]}, backend="sync")
        assert r4.latency("y") == r1.latency("y") + 3

    def test_rate_independent_of_depth(self):
        """Pipeline rate does not depend on the number of stages (Sec. 3)."""
        xs = list(range(30))
        ii_short = repro.run(
            chain_graph(1), {"x": xs}, backend="sync"
        ).initiation_interval()
        ii_long = repro.run(
            chain_graph(12), {"x": xs}, backend="sync"
        ).initiation_interval()
        assert ii_short == pytest.approx(2.0)
        assert ii_long == pytest.approx(2.0)

    def test_constant_operands(self):
        g = DataflowGraph()
        s = g.add_source("a", stream="a")
        add = g.add_cell(Op.ADD, consts={1: 10})
        sink = g.add_sink("out", stream="y")
        g.connect(s, add, 0)
        g.connect(add, sink, 0)
        res = repro.run(g, {"a": [1, 2, 3]}, backend="sync")
        assert res.outputs["y"] == [11, 12, 13]

    def test_arithmetic_ops(self):
        g = DataflowGraph()
        a = g.add_source("a", stream="a")
        b = g.add_source("b", stream="b")
        mul = g.add_cell(Op.MUL)
        neg = g.add_cell(Op.NEG)
        sink = g.add_sink("out", stream="y")
        g.connect(a, mul, 0)
        g.connect(b, mul, 1)
        g.connect(mul, neg, 0)
        g.connect(neg, sink, 0)
        res = repro.run(g, {"a": [2.0, 3.0], "b": [4.0, 5.0]}, backend="sync")
        assert res.outputs["y"] == [-8.0, -15.0]

    def test_division_by_zero_raises(self):
        g = DataflowGraph()
        a = g.add_source("a", stream="a")
        div = g.add_cell(Op.DIV, consts={0: 1.0})
        sink = g.add_sink("out", stream="y")
        g.connect(a, div, 1)
        g.connect(div, sink, 0)
        with pytest.raises(SimulationError, match="division by zero"):
            repro.run(g, {"a": [0.0]}, backend="sync")


class TestFigure2:
    """The paper's Figure 2: let y = a*b in (y+2)*(y-3) endlet."""

    def build(self) -> DataflowGraph:
        g = DataflowGraph("fig2")
        a = g.add_source("a", stream="a")
        b = g.add_source("b", stream="b")
        cell1 = g.add_cell(Op.MUL, name="cell1")
        cell2 = g.add_cell(Op.ADD, name="cell2", consts={1: 2.0})
        cell3 = g.add_cell(Op.SUB, name="cell3", consts={1: 3.0})
        cell4 = g.add_cell(Op.MUL, name="cell4")
        sink = g.add_sink("out", stream="y")
        g.connect(a, cell1, 0)
        g.connect(b, cell1, 1)
        g.connect(cell1, cell2, 0)
        g.connect(cell1, cell3, 0)
        g.connect(cell2, cell4, 0)
        g.connect(cell3, cell4, 1)
        g.connect(cell4, sink, 0)
        return g

    def test_values(self):
        res = repro.run(
            self.build(), {"a": [1.0, 2.0], "b": [3.0, 4.0]}, backend="sync",
        )
        expect = [(y + 2) * (y - 3) for y in (3.0, 8.0)]
        assert res.outputs["y"] == expect

    def test_fully_pipelined(self):
        n = 40
        res = repro.run(
            self.build(), {"a": [1.0] * n, "b": [2.0] * n}, backend="sync",
        )
        assert res.initiation_interval() == pytest.approx(2.0)

    def test_every_stage_utilized(self):
        n = 50
        g = self.build()
        sim = SyncSimulator(g, {"a": [1.0] * n, "b": [2.0] * n})
        stats = sim.run()
        for name in ("cell1", "cell2", "cell3", "cell4"):
            assert stats.fire_counts[g.find(name).cid] == n


class TestPathBalance:
    def diamond(self, buffered: bool) -> DataflowGraph:
        """v forks to w directly and via x; unbalanced unless buffered."""
        g = DataflowGraph("diamond")
        s = g.add_source("src", stream="x")
        v = g.add_cell(Op.ID, name="v")
        x = g.add_cell(Op.ID, name="x")
        w = g.add_cell(Op.ADD, name="w")
        sink = g.add_sink("out", stream="y")
        g.connect(s, v, 0)
        g.connect(v, x, 0)
        g.connect(x, w, 0)
        if buffered:
            f = g.add_fifo(1)
            g.connect(v, f, 0)
            g.connect(f, w, 1)
        else:
            g.connect(v, w, 1)
        g.connect(w, sink, 0)
        return g

    def test_unbalanced_fork_join_throttles(self):
        """Unequal path lengths limit the rate below 1/2 (Section 3)."""
        res = repro.run(
            self.diamond(buffered=False), {"x": list(range(30))},
            backend="sync",
        )
        assert res.initiation_interval() == pytest.approx(3.0)

    def test_identity_buffer_restores_full_rate(self):
        res = repro.run(
            self.diamond(buffered=True), {"x": list(range(30))},
            backend="sync",
        )
        assert res.initiation_interval() == pytest.approx(2.0)

    def test_values_unaffected_by_balance(self):
        xs = list(range(10))
        r1 = repro.run(self.diamond(False), {"x": xs}, backend="sync")
        r2 = repro.run(self.diamond(True), {"x": xs}, backend="sync")
        assert r1.outputs["y"] == r2.outputs["y"] == [2 * v for v in xs]


class TestCyclicRates:
    def ring(self, n_cells: int, n_tokens: int) -> tuple[DataflowGraph, list[int]]:
        """A ring of ID cells with ``n_tokens`` preloaded, plus a tap sink."""
        g = DataflowGraph("ring")
        ids = [g.add_cell(Op.ID, name=f"r{k}") for k in range(n_cells)]
        token_arcs = {n_cells - 1 - 2 * t for t in range(n_tokens)}
        for k in range(n_cells):
            nxt = (k + 1) % n_cells
            if k in token_arcs:
                g.connect(ids[k], ids[nxt], 0, initial=k)
            else:
                g.connect(ids[k], ids[nxt], 0)
        sink = g.add_sink("tap", stream="t")
        g.connect(ids[0], sink, 0)
        return g, ids

    def rate_of(self, n_cells: int, n_tokens: int, steps: int = 240) -> float:
        g, ids = self.ring(n_cells, n_tokens)
        sim = SyncSimulator(g)
        for _ in range(steps):
            sim.step()
        return sim.stats.fire_counts[ids[0]] / steps

    def test_three_cycle_one_token_is_one_third(self):
        """Todd's feedback limit: 3 stages -> rate 1/3 (Section 7)."""
        assert self.rate_of(3, 1) == pytest.approx(1 / 3, abs=0.02)

    def test_four_cycle_two_tokens_is_max_rate(self):
        """The companion scheme's even loop with two circulating values
        runs at the maximum rate 1/2 (Figure 8)."""
        assert self.rate_of(4, 2) == pytest.approx(1 / 2, abs=0.02)

    def test_odd_loop_cannot_sustain_two_tokens(self):
        """Why the paper inserts an ID to make the loop even (Section 7)."""
        assert self.rate_of(3, 2) == pytest.approx(1 / 3, abs=0.02)

    def test_longer_cycles(self):
        assert self.rate_of(6, 1) == pytest.approx(1 / 6, abs=0.02)
        assert self.rate_of(6, 3) == pytest.approx(1 / 2, abs=0.02)
        assert self.rate_of(8, 2) == pytest.approx(1 / 4, abs=0.02)


class TestFifo:
    def fifo_graph(self, depth: int) -> DataflowGraph:
        g = DataflowGraph("fifo")
        s = g.add_source("src", stream="x")
        f = g.add_fifo(depth)
        sink = g.add_sink("out", stream="y")
        g.connect(s, f, 0)
        g.connect(f, sink, 0)
        return g

    @pytest.mark.parametrize("depth", [1, 2, 3, 5, 8])
    def test_fifo_matches_id_chain_exactly(self, depth):
        """FIFO(d) is *defined* as a chain of d identity cells; the
        shift-register implementation must match its timing exactly."""
        xs = list(range(12))
        g = self.fifo_graph(depth)
        res_fifo = repro.run(g, {"x": xs}, backend="sync")
        res_chain = repro.run(lower_fifos(g), {"x": xs}, backend="sync")
        assert res_fifo.outputs["y"] == res_chain.outputs["y"]
        assert (
            res_fifo.sink_times["y"] == res_chain.sink_times["y"]
        )

    @pytest.mark.parametrize("depth", [1, 4])
    def test_fifo_latency(self, depth):
        base = repro.run(
            chain_graph(0), {"x": [7]}, backend="sync"
        ).latency("y")
        res = repro.run(self.fifo_graph(depth), {"x": [7]}, backend="sync")
        assert res.latency("y") == base + depth

    def test_fifo_preserves_full_rate(self):
        res = repro.run(
            self.fifo_graph(6), {"x": list(range(30))}, backend="sync",
        )
        assert res.initiation_interval() == pytest.approx(2.0)


class TestGating:
    def test_window_selection_discards_unused(self):
        """Unused array elements are consumed and dropped so they do not
        cause jams (Section 5)."""
        g = DataflowGraph()
        src = g.add_source("C", stream="C")
        gate = g.add_cell(Op.ID, name="sel")
        ctl = g.add_pattern_source("ctl", window_pattern(0, 5, 2, 4))
        sink = g.add_sink("out", stream="y")
        g.connect(src, gate, 0)
        g.connect(ctl, gate, GATE_PORT)
        g.connect(gate, sink, 0, tag=True)
        res = repro.run(g, {"C": [10, 11, 12, 13, 14, 15]}, backend="sync")
        assert res.outputs["y"] == [12, 13, 14]

    def test_two_sided_gate_routes_both_ways(self):
        g = DataflowGraph()
        src = g.add_source("x", stream="x")
        gate = g.add_cell(Op.ID, name="route")
        ctl = g.add_pattern_source("ctl", [True, False, True, False])
        s1 = g.add_sink("tout", stream="t")
        s2 = g.add_sink("fout", stream="f")
        g.connect(src, gate, 0)
        g.connect(ctl, gate, GATE_PORT)
        g.connect(gate, s1, 0, tag=True)
        g.connect(gate, s2, 0, tag=False)
        res = repro.run(g, {"x": [1, 2, 3, 4]}, backend="sync")
        assert res.outputs["t"] == [1, 3]
        assert res.outputs["f"] == [2, 4]

    def test_gate_value_based_on_runtime_boolean(self):
        """Gate control computed by the graph itself (Figure 5 style)."""
        g = DataflowGraph()
        src = g.add_source("x", stream="x")
        fan = g.add_cell(Op.ID, name="fan")
        cmp_cell = g.add_cell(Op.GT, consts={1: 0})
        f = g.add_fifo(1)
        gate = g.add_cell(Op.ID, name="route")
        pos = g.add_sink("pos", stream="pos")
        neg = g.add_sink("neg", stream="neg")
        g.connect(src, fan, 0)
        g.connect(fan, cmp_cell, 0)
        g.connect(fan, f, 0)
        g.connect(f, gate, 0)
        g.connect(cmp_cell, gate, GATE_PORT)
        g.connect(gate, pos, 0, tag=True)
        g.connect(gate, neg, 0, tag=False)
        res = repro.run(g, {"x": [3, -1, 0, 7]}, backend="sync")
        assert res.outputs["pos"] == [3, 7]
        assert res.outputs["neg"] == [-1, 0]


class TestMerge:
    def test_merge_interleaves_by_control(self):
        g = DataflowGraph()
        a = g.add_source("A", stream="A")
        b = g.add_source("B", stream="B")
        ctl = g.add_pattern_source("ctl", [False, True, False, True])
        m = g.add_merge()
        sink = g.add_sink("out", stream="y")
        g.connect(ctl, m, MERGE_CONTROL_PORT)
        g.connect(a, m, MERGE_TRUE_PORT)
        g.connect(b, m, MERGE_FALSE_PORT)
        g.connect(m, sink, 0)
        res = repro.run(g, {"A": [1, 2], "B": [10, 20]}, backend="sync")
        assert res.outputs["y"] == [10, 1, 20, 2]

    def test_merge_with_constant_initial_value(self):
        """Todd's scheme uses a constant I2 operand for the loop init."""
        g = DataflowGraph()
        a = g.add_source("A", stream="A")
        ctl = g.add_pattern_source("ctl", [False, True, True])
        m = g.add_merge()
        g.set_const(m, MERGE_FALSE_PORT, 99)
        sink = g.add_sink("out", stream="y")
        g.connect(ctl, m, MERGE_CONTROL_PORT)
        g.connect(a, m, MERGE_TRUE_PORT)
        g.connect(m, sink, 0)
        res = repro.run(g, {"A": [1, 2]}, backend="sync")
        assert res.outputs["y"] == [99, 1, 2]

    def test_merge_leaves_other_operand_untouched(self):
        """Firing on M=True must not consume I2 (paper, Section 5)."""
        g = DataflowGraph()
        a = g.add_source("A", stream="A")
        b = g.add_source("B", stream="B")
        ctl = g.add_pattern_source("ctl", [True, True, False])
        m = g.add_merge()
        sink = g.add_sink("out", stream="y")
        g.connect(ctl, m, MERGE_CONTROL_PORT)
        g.connect(a, m, MERGE_TRUE_PORT)
        g.connect(b, m, MERGE_FALSE_PORT)
        g.connect(m, sink, 0)
        res = repro.run(g, {"A": [1, 2], "B": [42]}, backend="sync")
        assert res.outputs["y"] == [1, 2, 42]


class TestInitialTokens:
    def test_preloaded_token_emerges_first(self):
        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        i = g.add_cell(Op.ID)
        sink = g.add_sink("out", stream="y")
        g.connect(s, i, 0)
        g.connect(i, sink, 0, initial=-1)
        res = repro.run(g, {"x": [1, 2]}, backend="sync")
        assert res.outputs["y"] == [-1, 1, 2]


class TestDeadlockDetection:
    def test_starved_join_reports_jam(self):
        g = DataflowGraph()
        a = g.add_source("a", stream="a")
        b = g.add_source("b", stream="b")
        add = g.add_cell(Op.ADD)
        sink = g.add_sink("out", stream="y", limit=5)
        g.connect(a, add, 0)
        g.connect(b, add, 1)
        g.connect(add, sink, 0)
        with pytest.raises(DeadlockError) as exc:
            repro.run(
                g, {"a": [1, 2, 3], "b": [1, 2, 3, 4, 5]}, backend="sync",
            )
        assert exc.value.pending == 2

    def test_no_error_without_limit(self):
        g = DataflowGraph()
        a = g.add_source("a", stream="a")
        b = g.add_source("b", stream="b")
        add = g.add_cell(Op.ADD)
        sink = g.add_sink("out", stream="y")
        g.connect(a, add, 0)
        g.connect(b, add, 1)
        g.connect(add, sink, 0)
        res = repro.run(
            g, {"a": [1, 2, 3], "b": [1, 2, 3, 4, 5]}, backend="sync",
        )
        assert res.outputs["y"] == [2, 4, 6]

    def test_nonquiescent_guard(self):
        g = DataflowGraph()
        a = g.add_cell(Op.ID, name="a")
        b = g.add_cell(Op.ID, name="b")
        g.connect(a, b, 0, initial=0)
        g.connect(b, a, 0)
        sim = SyncSimulator(g)
        with pytest.raises(SimulationError, match="did not quiesce"):
            sim.run(max_steps=100)


class TestToddCounter:
    def test_counter_computes_comparison_stream(self):
        """Control sequences are themselves dataflow code (Todd)."""
        g = DataflowGraph()
        cmp_cell = build_todd_counter(g, lo=1, hi=5, cmp_op=Op.LE, bound=3)
        sink = g.add_sink("out", stream="y")
        g.connect(cmp_cell, sink, 0)
        res = repro.run(g, {}, backend="sync")
        assert res.outputs["y"] == [True, True, True, False, False]

    def test_counter_quiesces(self):
        g = DataflowGraph()
        cmp_cell = build_todd_counter(g, lo=0, hi=9, cmp_op=Op.LT, bound=5)
        sink = g.add_sink("out", stream="y", limit=10)
        g.connect(cmp_cell, sink, 0)
        res = repro.run(g, {}, backend="sync")
        assert res.outputs["y"] == [True] * 5 + [False] * 5


class TestMaxStepsBoundary:
    """``run(max_steps=N)`` allows N steps; a graph whose final firing
    lands exactly on step N has quiesced, not overrun the budget."""

    def _steps_to_quiesce(self):
        full = SyncSimulator(chain_graph(1), {"x": [1, 2, 3]})
        full.run()
        # the counted final step fired nothing (that is how quiescence
        # is detected), so the last *firing* step is one earlier
        return full.step_count - 1, full

    def test_quiescing_on_the_final_allowed_step_is_not_a_timeout(self):
        last_firing, full = self._steps_to_quiesce()
        sim = SyncSimulator(chain_graph(1), {"x": [1, 2, 3]})
        stats = sim.run(max_steps=last_firing)  # regression: used to raise
        assert stats.total_firings == full.stats.total_firings
        assert sim.sink_records == full.sink_records

    def test_one_step_short_still_times_out(self):
        last_firing, _ = self._steps_to_quiesce()
        sim = SyncSimulator(chain_graph(1), {"x": [1, 2, 3]})
        with pytest.raises(SimulationTimeout):
            sim.run(max_steps=last_firing - 1)

    def test_genuinely_unfinished_graph_times_out_at_the_boundary(self):
        # plenty of tokens left: exhausting the budget mid-stream must
        # still raise even though the final step did fire something
        sim = SyncSimulator(chain_graph(1), {"x": list(range(50))})
        with pytest.raises(SimulationTimeout):
            sim.run(max_steps=5)

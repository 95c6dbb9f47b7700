"""Edge-case tests for the machine model: array memories, initial
tokens, gating, packet accounting."""

import pytest

import repro
from repro.graph import DataflowGraph, Op
from repro.machine import MachineConfig


class TestArrayMemory:
    def am_graph(self):
        g = DataflowGraph()
        r = g.add_cell(Op.AM_READ, name="read", stream="state")
        a = g.add_cell(Op.ADD, consts={1: 1.0})
        w = g.add_cell(Op.AM_WRITE, name="write", stream="next", limit=4)
        g.connect(r, a, 0)
        g.connect(a, w, 0)
        return g

    def test_read_modify_write(self):
        g = self.am_graph()
        res = repro.run(g, {"state": [1.0, 2.0, 3.0, 4.0]})
        outs, stats, machine = res.outputs, res.stats, res.engine
        assert outs["next"] == [2.0, 3.0, 4.0, 5.0]
        assert machine.am_arrays["next"] == [2.0, 3.0, 4.0, 5.0]
        assert stats.packets.op_am == 8  # 4 reads + 4 writes
        assert stats.packets.am_fraction == pytest.approx(8 / 12)

    def test_same_graph_on_unit_sim(self):
        """AM cells degrade to source/sink on the unit-delay model."""
        res = repro.run(
            self.am_graph(), {"state": [1.0, 2.0, 3.0, 4.0]}, backend="sync",
        )
        assert res.outputs["next"] == [2.0, 3.0, 4.0, 5.0]

    def test_am_latency_visible(self):
        g = self.am_graph()
        fast = repro.run(
            g, {"state": [1.0] * 4}, config=MachineConfig(am_latency=1),
        ).stats
        slow = repro.run(
            g, {"state": [1.0] * 4}, config=MachineConfig(am_latency=40),
        ).stats
        assert slow.cycles > fast.cycles

    def test_multiple_am_units_round_robin(self):
        g = self.am_graph()
        stats = repro.run(
            g, {"state": [1.0] * 4}, config=MachineConfig(n_ams=2),
        ).stats
        assert sum(stats.am_ops) == 8
        assert all(n > 0 for n in stats.am_ops)


class TestInitialTokensAndGates:
    def test_initial_token_on_machine(self):
        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        i = g.add_cell(Op.ID)
        sink = g.add_sink("out", stream="y", limit=3)
        g.connect(s, i, 0)
        g.connect(i, sink, 0, initial=-5)
        outs = repro.run(g, {"x": [1, 2]}).outputs
        assert outs["y"] == [-5, 1, 2]

    def test_gated_discard_on_machine(self):
        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        ctl = g.add_pattern_source("ctl", [False, True, False, True])
        gate = g.add_cell(Op.ID, name="gate")
        sink = g.add_sink("out", stream="y", limit=2)
        g.connect(s, gate, 0)
        g.connect(ctl, gate, -1)
        g.connect(gate, sink, 0, tag=True)
        outs = repro.run(g, {"x": [1, 2, 3, 4]}).outputs
        assert outs["y"] == [2, 4]

    def test_merge_with_const_port(self):
        from repro.graph import MERGE_CONTROL_PORT, MERGE_TRUE_PORT, MERGE_FALSE_PORT

        g = DataflowGraph()
        a = g.add_source("A", stream="A")
        ctl = g.add_pattern_source("ctl", [False, True])
        m = g.add_merge()
        g.set_const(m, MERGE_FALSE_PORT, 42)
        sink = g.add_sink("out", stream="y", limit=2)
        g.connect(ctl, m, MERGE_CONTROL_PORT)
        g.connect(a, m, MERGE_TRUE_PORT)
        g.connect(m, sink, 0)
        outs = repro.run(g, {"A": [7]}).outputs
        assert outs["y"] == [42, 7]


class TestPacketAccounting:
    def test_results_equal_acks(self):
        """Every result packet eventually triggers one acknowledge."""
        from repro.compiler import compile_program
        from repro.workloads import SOURCES

        cp = compile_program(SOURCES["example1"], params={"m": 10})
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        stats = repro.run(cp.graph, inputs).stats
        assert stats.packets.results == stats.packets.acks

    def test_counters_summary(self):
        from repro.machine.packets import PacketCounters

        c = PacketCounters(op_local=1, op_fu=1, op_am=1)
        assert c.op_total == 3
        assert c.am_fraction == pytest.approx(1 / 3)
        assert "AM fraction" in c.summary()

    def test_samples_bound_their_reservoir(self):
        from repro.stats import SAMPLE_CAP, Samples

        series = Samples(seed=3)
        for value in range(1, 2001):
            series.add(float(value))
        assert len(series) == SAMPLE_CAP == 512
        assert series.count == 2000
        assert series.total == sum(range(1, 2001))
        assert set(series) <= set(map(float, range(1, 2001)))

    def test_samples_percentiles_are_nearest_rank(self):
        from repro.stats import Samples

        series = Samples()
        for value in (4.0, 1.0, 3.0, 2.0):
            series.add(value)
        # nearest rank: ceil(q * n)-th smallest, no interpolation
        assert series.percentile(0.50) == 2.0
        assert series.percentile(0.99) == 4.0
        assert series.percentile(0.25) == 1.0
        assert series.to_dict("latency") == {
            "latency_samples": 4, "latency_p50": 2.0, "latency_p99": 4.0,
        }

    def test_empty_samples_map_to_none(self):
        from repro.stats import Samples

        assert Samples().to_dict("write") == {
            "write_samples": 0, "write_p50": None, "write_p99": None,
        }

    def test_equal_seeds_keep_equal_samples(self):
        from repro.stats import Samples

        def fill(seed):
            series = Samples(seed)
            for value in range(3000):
                series.add(value / 7)
            return list(series)

        assert fill(5) == fill(5)
        assert fill(5) != fill(6)

    def test_classify_unit(self):
        from repro.machine.packets import UnitClass, classify_unit

        assert classify_unit("add") is UnitClass.FUNCTION_UNIT
        assert classify_unit("id") is UnitClass.LOCAL
        assert classify_unit("merge") is UnitClass.LOCAL
        assert classify_unit("am_read") is UnitClass.ARRAY_MEMORY


class TestLoopsOnMachine:
    def test_interleaved_scheme_on_machine(self):
        from repro.compiler import (
            ArraySpec,
            balance_graph,
            compile_foriter_interleaved,
            deinterleave,
            interleave,
        )
        from repro.val import parse_program
        from repro.workloads import EXAMPLE2_SOURCE

        m, b = 8, 2
        node = parse_program(EXAMPLE2_SOURCE).blocks[0].expr
        art = compile_foriter_interleaved(
            "X", node,
            {"A": ArraySpec("A", 1, m), "B": ArraySpec("B", 1, m)},
            {"m": m}, batch=b,
        )
        balance_graph(art.graph)
        A = interleave([[1.0] * m, [0.5] * m])
        B = interleave([[1.0] * m, [2.0] * m])
        ref = repro.run(
            art.graph, {"A": A, "B": B}, backend="sync"
        ).outputs["X"]
        outs = repro.run(art.graph, {"A": A, "B": B}).outputs
        assert outs["X"] == ref
        assert len(deinterleave(outs["X"], b)) == b


class TestInitialTokenAcks:
    def test_initial_token_blocks_producer_until_acked(self):
        """Regression: a producer whose arc is pre-loaded owes an
        acknowledge before its first firing (machine model)."""
        from repro.graph import DataflowGraph, Op
        from repro.machine import MachineConfig

        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        i = g.add_cell(Op.ID, name="mid")
        sink = g.add_sink("out", stream="y", limit=4)
        g.connect(s, i, 0)
        g.connect(i, sink, 0, initial=99)
        expect = repro.run(g, {"x": [1, 2, 3]}, backend="sync").outputs["y"]
        res = repro.run(g, {"x": [1, 2, 3]}, config=MachineConfig.unit_time())
        outs, machine = res.outputs, res.engine
        assert outs["y"] == expect == [99, 1, 2, 3]

    def test_producer_queued_before_start_waits_for_its_ack(self):
        """A source needs no operand, so the machine queues it as it
        loads, before the run pre-loads the initial token on its arc:
        its first dispatch must see the acknowledge it now owes.  Fired
        at once, its values would trail the initial token by one cycle
        instead of two (single-token arcs, unit time)."""
        from repro.machine.machine import Machine

        g = DataflowGraph()
        s = g.add_source("src", stream="x")
        sink = g.add_sink("out", stream="y", limit=4)
        g.connect(s, sink, 0, initial=99)
        machine = Machine(g, config=MachineConfig.unit_time(),
                          inputs={"x": [1, 2, 3]})
        assert machine.cell_state[s].queued
        machine.run()
        assert machine.outputs()["y"] == [99, 1, 2, 3]
        assert machine.sink_arrival_times("y") == [1, 3, 5, 7]

    def test_self_clocked_counter_on_machine(self):
        from repro.compiler import build_selfclocked_counter
        from repro.graph import DataflowGraph

        g = DataflowGraph()
        ctr = build_selfclocked_counter(g, 8)
        sink = g.add_sink("out", stream="k", limit=8)
        g.connect(ctr, sink, 0)
        outs = repro.run(g, {}).outputs
        assert outs["k"] == list(range(8))


class TestMachineConfigIsValidated:
    """The firing plans bake the config's values in at load, so a value
    the machine cannot honor is refused by name up front -- not a raw
    ZeroDivisionError / TypeError from deep inside, and above all not
    a modeled cycle count computed with a negative delay."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_pes", 0),
            ("n_pes", "2"),
            ("rn_delay", -1),
            ("local_latency", -5),
            ("pe_issue_interval", -1),
            ("fu_issue_interval", -3),
            ("rn_bandwidth", -1),
        ],
    )
    def test_bad_value_is_a_simulation_error_naming_the_field(
        self, field, value
    ):
        from repro.errors import SimulationError
        from repro.workloads import FIGURES

        cp = FIGURES["fig2"].compile(m=8)
        inputs = FIGURES["fig2"].make_inputs(cp, seed=0)
        with pytest.raises(SimulationError, match=field):
            repro.run(cp, inputs, config=MachineConfig(**{field: value}))

    def test_more_of_the_rule(self):
        from repro.errors import SimulationError

        for bad in (
            {"n_fus": True},                    # a bool is not a count
            {"watchdog_patience": 0},
            {"am_latency": 1.5},
            {"fu_latency": {Op.ADD: -2}},
            {"fu_latency": {Op.ADD: 2.0}},
            {"fu_latency": [2, 3]},
        ):
            with pytest.raises(SimulationError, match=next(iter(bad))):
                MachineConfig(**bad).validate()
        # zero is a legal count, delay, latency and interval
        MachineConfig.unit_time().validate()
        MachineConfig(n_fus=0, n_ams=0, local_latency=0).validate()

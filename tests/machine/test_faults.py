"""Fault injection and the reliability layer of the machine simulator.

The acceptance bar from the paper's robustness angle: under a seeded
fault plan with >= 5% result-packet drop and duplication, every
paper-figure workload must complete with outputs *identical* to the
fault-free run (the dataflow graph is a Kahn network: values are
deterministic, so the reliability layer only has to preserve per-arc
delivery order and exactly-once consumption).
"""

import pytest

import repro
from repro.errors import DeadlockError, SimulationError, SimulationTimeout
from repro.faults import FaultPlan, UnitFault
from repro.graph.graph import DataflowGraph
from repro.graph.opcodes import Op
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.workloads.figures import FIGURES

#: the acceptance plan: >= 5% drop and duplication plus some of
#: everything else
ACCEPTANCE_PLAN = FaultPlan(
    seed=1234,
    drop_result=0.06,
    dup_result=0.06,
    corrupt_result=0.02,
    drop_ack=0.04,
    dup_ack=0.04,
)


def _chain_graph(n_values=5):
    """source -> inc -> sink, the smallest interesting pipeline."""
    g = DataflowGraph()
    s = g.add_source("x", stream="x")
    a = g.add_cell(Op.ADD, name="inc", consts={1: 1})
    sink = g.add_sink("out", stream="y", limit=n_values)
    g.connect(s, a, 0)
    g.connect(a, sink, 0)
    inputs = {"x": list(range(n_values))}
    return g, inputs, [v + 1 for v in range(n_values)]


class TestRecoveryOnFigures:
    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_outputs_identical_under_faults(self, figure):
        workload = FIGURES[figure]
        cp = workload.compile(m=12)
        inputs = workload.make_inputs(cp, seed=7)
        res = repro.run(cp.graph, inputs)
        clean_out, clean_stats = res.outputs, res.stats
        res = repro.run(cp.graph, inputs, faults=ACCEPTANCE_PLAN)
        out, stats = res.outputs, res.stats
        assert out == clean_out
        rel = stats.reliability
        assert rel is not None
        assert rel.retransmissions > 0
        assert rel.duplicates_suppressed > 0
        assert stats.faults.total_injected > 0
        # injected latency must show, or the plan did nothing
        assert stats.cycles >= clean_stats.cycles

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_same_plan_same_run(self, figure):
        workload = FIGURES[figure]
        cp = workload.compile(m=8)
        inputs = workload.make_inputs(cp, seed=3)

        def once():
            res = repro.run(cp.graph, inputs, faults=ACCEPTANCE_PLAN)
            out, stats = res.outputs, res.stats
            return out, stats.cycles, stats.reliability.retransmissions

        assert once() == once()


class TestRecoveryMechanics:
    def test_fault_free_plan_changes_nothing(self):
        g, inputs, expected = _chain_graph()
        res = repro.run(g, inputs)
        clean_out, clean_stats = res.outputs, res.stats
        res = repro.run(g, inputs, faults=FaultPlan())
        out, stats = res.outputs, res.stats
        assert out == clean_out == {"y": expected}
        assert stats.reliability.retransmissions == 0
        assert stats.faults.total_injected == 0

    def test_heavy_drop_recovers(self):
        g, inputs, expected = _chain_graph(10)
        plan = FaultPlan(seed=5, drop_result=0.4, drop_ack=0.3)
        res = repro.run(g, inputs, faults=plan)
        out, stats = res.outputs, res.stats
        assert out == {"y": expected}
        assert stats.reliability.retransmissions > 0

    def test_corruption_detected_and_retransmitted(self):
        g, inputs, expected = _chain_graph(20)
        plan = FaultPlan(seed=11, corrupt_result=0.3)
        res = repro.run(g, inputs, faults=plan)
        out, stats = res.outputs, res.stats
        # a checksummed receiver discards corrupted packets; the clean
        # stored copy is retransmitted, so values stay bit-identical
        assert out == {"y": expected}
        assert stats.reliability.corruptions_detected > 0
        assert stats.reliability.retransmissions > 0

    def test_initial_tokens_survive_faults(self):
        g = DataflowGraph()
        s = g.add_source("x", stream="x")
        a = g.add_cell(Op.ADD, name="acc")
        d = g.add_cell(Op.ID, name="loop")
        sink = g.add_sink("out", stream="y", limit=3)
        g.connect(s, a, 0)
        g.connect(a, d, 0)
        g.connect(d, a, 1, initial=-5)  # running sum seeded with -5
        g.connect(a, sink, 0)
        # the feedback arc makes seq-number bookkeeping of pre-loaded
        # tokens observable: a mismatch would deadlock or corrupt
        plan = FaultPlan(seed=2, drop_result=0.2, dup_result=0.2)
        out = repro.run(g, {"x": [1, 2, 3]}, faults=plan).outputs
        assert out["y"] == [-4, -2, 1]

    def test_without_recovery_faults_break_the_run(self):
        g, inputs, _ = _chain_graph(10)
        plan = FaultPlan(seed=3, drop_result=0.3)
        with pytest.raises(DeadlockError) as exc_info:
            repro.run(g, inputs, faults=plan, recovery=False)
        assert exc_info.value.diagnosis is not None


class TestUnitFaults:
    @pytest.fixture()
    def workload(self):
        cp = FIGURES["fig6"].compile(m=10)
        inputs = FIGURES["fig6"].make_inputs(cp, seed=1)
        clean_out = repro.run(cp.graph, inputs).outputs
        return cp, inputs, clean_out

    def test_dead_fu_evicted(self, workload):
        cp, inputs, clean_out = workload
        plan = FaultPlan(unit_faults=(UnitFault(unit="fu", index=0),))
        res = repro.run(cp.graph, inputs, faults=plan)
        out, stats = res.outputs, res.stats
        assert out == clean_out
        assert stats.faults.units_evicted == 1
        assert stats.fu_ops[0] == 0  # nothing ran on the dead unit

    def test_dead_pe_cells_rerouted(self, workload):
        cp, inputs, clean_out = workload
        plan = FaultPlan(unit_faults=(UnitFault(unit="pe", index=1),))
        res = repro.run(cp.graph, inputs, faults=plan)
        out, stats = res.outputs, res.stats
        assert out == clean_out
        assert stats.faults.cells_rerouted > 0
        assert stats.pe_ops[1] == 0

    def test_slow_unit_costs_cycles_not_correctness(self, workload):
        cp, inputs, clean_out = workload
        base_stats = repro.run(cp.graph, inputs).stats
        plan = FaultPlan(
            unit_faults=tuple(
                UnitFault(unit="fu", index=i, kind="slow", factor=6.0)
                for i in range(MachineConfig().n_fus)
            )
        )
        res = repro.run(cp.graph, inputs, faults=plan)
        out, stats = res.outputs, res.stats
        assert out == clean_out
        assert stats.cycles > base_stats.cycles

    def test_all_units_dead_is_an_error(self):
        g, inputs, _ = _chain_graph()
        cfg = MachineConfig(n_fus=2)
        plan = FaultPlan(
            unit_faults=(
                UnitFault(unit="fu", index=0),
                UnitFault(unit="fu", index=1),
            )
        )
        with pytest.raises(SimulationError, match="all 2 FU units failed"):
            repro.run(g, inputs, config=cfg, faults=plan)

    def test_bounded_outage_without_recovery_waits_it_out(self):
        g, inputs, expected = _chain_graph()
        plan = FaultPlan(
            unit_faults=(UnitFault(unit="pe", index=0, start=0, end=400),)
        )
        cfg = MachineConfig(n_pes=1)
        res = repro.run(g, inputs, config=cfg, faults=plan, recovery=False)
        out, stats = res.outputs, res.stats
        assert out == {"y": expected}
        assert stats.cycles > 400  # stranded until the window closed


class TestWatchdog:
    def test_livelock_caught_long_before_max_cycles(self):
        g, inputs, _ = _chain_graph(3)
        plan = FaultPlan(seed=1, drop_result=1.0)
        cfg = MachineConfig(max_retransmits=0)  # retry forever
        with pytest.raises(DeadlockError) as exc_info:
            repro.run(
                g, inputs, config=cfg, faults=plan, max_cycles=10_000_000,
            )
        err = exc_info.value
        assert "watchdog" in str(err)
        assert err.diagnosis is not None
        assert err.step < 100_000  # nowhere near max_cycles

    def test_retransmit_budget_lets_the_run_quiesce(self):
        g, inputs, _ = _chain_graph(3)
        plan = FaultPlan(seed=1, drop_result=1.0)
        cfg = MachineConfig(max_retransmits=3, watchdog=False)
        with pytest.raises(DeadlockError):
            repro.run(g, inputs, config=cfg, faults=plan)

    def test_watchdog_quiet_on_healthy_run(self):
        g, inputs, expected = _chain_graph(50)
        cfg = MachineConfig(watchdog_interval=8, watchdog_patience=2)
        out = repro.run(g, inputs, config=cfg).outputs
        assert out == {"y": expected}


class TestSimulationTimeout:
    def test_timeout_carries_partial_progress(self):
        g, inputs, _ = _chain_graph(100)
        with pytest.raises(SimulationTimeout) as exc_info:
            repro.run(g, inputs, max_cycles=40)
        err = exc_info.value
        assert isinstance(err, SimulationError)  # old callers still catch
        assert err.cycles > 40
        assert err.stats is not None
        got, expected = err.sink_progress["y"]
        assert expected == 100
        assert 0 < got < 100

    def test_watchdog_events_do_not_trip_the_budget(self):
        # aux events (watchdog ticks) can be scheduled past max_cycles;
        # only real machine activity may exhaust the budget
        g, inputs, expected = _chain_graph(3)
        cfg = MachineConfig(watchdog_interval=10_000)
        res = repro.run(g, inputs, config=cfg, max_cycles=5_000)
        out, stats = res.outputs, res.stats
        assert out == {"y": expected}
        assert stats.cycles < 5_000


class TestDispatchQueueBound:
    def test_event_queue_stays_small(self):
        # regression: dispatch used to enqueue one event per enabling
        # trigger, so a token-rich run grew the heap to O(tokens);
        # the per-PE pending flag keeps it O(cells + arcs)
        cp = FIGURES["fig2"].compile(m=60)
        inputs = FIGURES["fig2"].make_inputs(cp, seed=0)

        # the heap only grows inside a handler (the loop pops between
        # them), so its length after every handler is the exact peak --
        # whichever way the handler pushed its events
        class Tracking(Machine):
            peak = 0

        def tracked(name):
            base = getattr(Machine, name)

            def handler(self, *args):
                base(self, *args)
                self.peak = max(self.peak, len(self._events))

            return handler

        for kind in Machine._EVENT_KINDS:
            setattr(Tracking, "_" + kind, tracked("_" + kind))
        machine = Tracking(cp.graph, inputs=inputs)
        machine.run()
        bound = 2 * len(cp.graph.arcs) + len(cp.graph.cells) + 16
        assert len(cp.graph.cells) < machine.peak <= bound

    def test_dispatch_dedup_preserves_schedule(self):
        # the flag must not change *when* cells fire, only how many
        # redundant events exist; spot-check against expected outputs
        # across configs that stress dispatch contention
        g, inputs, expected = _chain_graph(20)
        for cfg in (
            MachineConfig(n_pes=1, pe_issue_interval=3),
            MachineConfig(n_pes=2, pe_issue_interval=1, rn_delay=4),
        ):
            out = repro.run(g, inputs, config=cfg).outputs
            assert out == {"y": expected}

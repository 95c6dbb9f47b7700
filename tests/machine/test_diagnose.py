"""Deadlock diagnosis: the paper's Section 5 "jam" scenarios.

The paper warns that array-access pipelines jam when (a) a recurrence
arc is missing its buffering/initial token or (b) a conditional's MERGE
never receives its control token because the control path is unbuffered
or gated away.  These tests build exactly those broken graphs, assert
the machine raises a *diagnosed* DeadlockError naming the starved cell,
and then fix each graph and assert it runs clean.
"""

import pytest

import repro
from repro.errors import DeadlockError
from repro.graph.graph import DataflowGraph
from repro.graph.opcodes import MERGE_CONTROL_PORT, MERGE_TRUE_PORT, Op


def _recurrence_graph(with_initial: bool):
    """x[i] + y[i-1] with the loop arc optionally missing its initial
    token -- the mis-buffered ``A[i-1]`` access."""
    g = DataflowGraph()
    s = g.add_source("x", stream="x")
    a = g.add_cell(Op.ADD, name="acc")
    d = g.add_cell(Op.ID, name="delay")
    sink = g.add_sink("out", stream="y", limit=3)
    g.connect(s, a, 0)
    g.connect(a, d, 0)
    if with_initial:
        g.connect(d, a, 1, initial=0)
    else:
        g.connect(d, a, 1)
    g.connect(a, sink, 0)
    return g, {"x": [1, 2, 3]}


def _conditional_graph(control_values):
    """A MERGE whose control stream may be empty -- the unbuffered
    control path of a conditional."""
    g = DataflowGraph()
    ctl = g.add_pattern_source("ctl", list(control_values))
    s = g.add_source("a", stream="a")
    m = g.add_merge("pick")
    sink = g.add_sink("out", stream="y", limit=3)
    g.connect(ctl, m, MERGE_CONTROL_PORT)
    g.connect(s, m, MERGE_TRUE_PORT)
    g.cells[m].consts[2] = 0.0  # false arm is a constant
    g.connect(m, sink, 0)
    return g, {"a": [1.0, 2.0, 3.0]}


class TestRecurrenceJam:
    def test_missing_initial_token_is_diagnosed(self):
        g, inputs = _recurrence_graph(with_initial=False)
        with pytest.raises(DeadlockError) as exc_info:
            repro.run(g, inputs)
        err = exc_info.value
        diag = err.diagnosis
        assert diag is not None
        # the starved cell is named, with the port it is waiting on
        starved = {c.label for c in diag.starved_cells}
        assert "acc" in starved
        acc = next(c for c in diag.starved_cells if c.label == "acc")
        assert 1 in acc.missing_ports
        assert "delay" in acc.waiting_on
        # the acc <-> delay wait-for cycle is reported as the root cause
        assert set(diag.wait_cycle) == {"acc", "delay"}
        assert any("initial token" in s for s in diag.suspects)
        # ... and all of it surfaces in the error text
        assert "acc" in str(err) and "wait cycle" in str(err)

    def test_corrected_graph_runs(self):
        g, inputs = _recurrence_graph(with_initial=True)
        out = repro.run(g, inputs).outputs
        assert out["y"] == [1, 3, 6]


class TestConditionalJam:
    def test_starved_merge_control_is_diagnosed(self):
        g, inputs = _conditional_graph(control_values=[])
        with pytest.raises(DeadlockError) as exc_info:
            repro.run(g, inputs)
        diag = exc_info.value.diagnosis
        assert diag is not None
        pick = next(c for c in diag.starved_cells if c.label == "pick")
        assert 0 in pick.missing_ports  # the MERGE control port
        assert any("control" in s for s in diag.suspects)

    def test_corrected_graph_runs(self):
        g, inputs = _conditional_graph(control_values=[True, False, True])
        out = repro.run(g, inputs).outputs
        # MERGE consumes only the selected port: the False firing leaves
        # a's second token queued for the next True control
        assert out["y"] == [1.0, 0.0, 2.0]


class TestUndrainedSources:
    def test_quiescence_with_leftover_inputs_is_deadlock(self):
        # all limited sinks are satisfied, but input tokens remain: the
        # run used to be reported as a clean completion
        g = DataflowGraph()
        a = g.add_source("a", stream="a")
        b = g.add_source("b", stream="b")
        add = g.add_cell(Op.ADD, name="add")
        sink = g.add_sink("out", stream="y", limit=3)
        g.connect(a, add, 0)
        g.connect(b, add, 1)
        g.connect(add, sink, 0)
        inputs = {"a": [1, 2, 3, 4, 5], "b": [10, 20, 30]}
        with pytest.raises(DeadlockError) as exc_info:
            repro.run(g, inputs)
        err = exc_info.value
        assert "never consumed" in str(err)
        diag = err.diagnosis
        assert diag.undrained_sources["a"] == (4, 5)
        # sink got everything it asked for; the problem is upstream
        assert diag.missing_outputs == 0
        assert err.pending == 1

    def test_exactly_consumed_inputs_still_complete(self):
        g = DataflowGraph()
        a = g.add_source("a", stream="a")
        sink = g.add_sink("out", stream="y", limit=3)
        g.connect(a, sink, 0)
        out = repro.run(g, {"a": [1, 2, 3]}).outputs
        assert out["y"] == [1, 2, 3]


class TestDiagnosisReporting:
    def test_pending_sink_counts(self):
        g, inputs = _recurrence_graph(with_initial=False)
        with pytest.raises(DeadlockError) as exc_info:
            repro.run(g, inputs)
        diag = exc_info.value.diagnosis
        assert diag.pending_sinks == {"y": (0, 3)}
        assert diag.missing_outputs == 3
        # the source delivered a token that acc never consumed
        blocked = {p.label for p in diag.blocked_producers}
        assert "x" in blocked

    def test_live_machine_diagnose_is_callable(self):
        from repro.machine.machine import Machine

        g, inputs = _recurrence_graph(with_initial=True)
        machine = Machine(g, inputs=inputs)
        diag = machine.diagnose()  # before run(): everything still pending
        assert diag.pending_sinks == {"y": (0, 3)}

    def test_summary_is_multiline_prose(self):
        g, inputs = _conditional_graph(control_values=[])
        with pytest.raises(DeadlockError) as exc_info:
            repro.run(g, inputs)
        text = exc_info.value.diagnosis.summary()
        assert text.startswith("deadlock diagnosis at cycle")
        assert "starved" in text and "suspect" in text


class TestFailureForensics:
    """Stalls and timeouts carry the forensic fields the checkpoint
    layer and the CI smoke job key on: a cycle number, and -- when the
    run was checkpointed -- the path of the final failure snapshot."""

    def test_deadlock_carries_cycle_and_no_snapshot_by_default(self):
        g, inputs = _recurrence_graph(with_initial=False)
        with pytest.raises(DeadlockError) as exc_info:
            repro.run(g, inputs)
        err = exc_info.value
        assert err.cycle == err.step >= 0
        assert err.snapshot_path is None
        assert str(err).startswith("machine quiescent at cycle")

    def test_checkpointed_deadlock_names_its_failure_snapshot(
        self, tmp_path
    ):
        from repro.checkpoint import CheckpointConfig, load_machine

        g, inputs = _recurrence_graph(with_initial=False)
        with pytest.raises(DeadlockError) as exc_info:
            repro.run(
                g, inputs, checkpoint=CheckpointConfig(tmp_path, interval=0),
            )
        err = exc_info.value
        assert err.snapshot_path is not None
        wedged = load_machine(err.snapshot_path)
        assert wedged.now == err.cycle
        # the snapshot holds the wedged state: same diagnosis on reload
        diag = wedged.diagnose()
        assert diag.pending_sinks == {"y": (0, 3)}

    def test_timeout_carries_cycle_and_snapshot(self, tmp_path):
        from repro.checkpoint import CheckpointConfig
        from repro.errors import SimulationTimeout
        from repro.machine.machine import Machine

        g, inputs = _recurrence_graph(with_initial=True)
        machine = Machine(
            g, inputs=inputs, checkpoint=CheckpointConfig(tmp_path)
        )
        with pytest.raises(SimulationTimeout) as exc_info:
            machine.run(max_cycles=4)
        err = exc_info.value
        assert err.cycle == err.cycles > 4
        assert err.snapshot_path is not None
        assert "exceeded 4 cycles" in str(err)
        # the timed-out snapshot is resumable with a bigger budget
        resumed = Machine.resume(err.snapshot_path)
        resumed.run()
        assert resumed.outputs()["y"] == [1, 3, 6]

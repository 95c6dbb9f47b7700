"""Tests for the compiled steady-state backend.

``backend="compiled"`` runs the same event machine but detects the
periodic steady state (paper Theorems 1-4) and fast-forwards whole
periods.  The contract under test: bit-identical values *and* modeled
sink times versus ``backend="event"`` on every figure, loud rejection
of every option the replay cannot honor, and honest concrete fallback
(never a wrong answer) whenever the steady state is not statically
replayable.
"""

import pytest

import repro
from repro.backends.compiled import TurboMachine
from repro.checkpoint import CheckpointConfig
from repro.errors import ReproError, SimulationTimeout
from repro.faults import FaultPlan
from repro.workloads import figure_workload

FIGURES = ["fig2", "fig4", "fig5", "fig6", "fig7"]
#: large enough that every statically replayable figure jumps
M_JUMP = 400


def _workload(name, m=16, seed=0):
    wl = figure_workload(name)
    cp = wl.compile(m=m)
    return cp, wl.make_inputs(cp, seed=seed)


def _pair(name, m=16, seed=0, **kwargs):
    cp, inputs = _workload(name, m=m, seed=seed)
    event = repro.run(cp, inputs, backend="event", **kwargs)
    compiled = repro.run(cp, inputs, backend="compiled", **kwargs)
    return event, compiled


def _assert_identical(event, compiled):
    assert compiled.outputs == event.outputs
    assert compiled.sink_times == event.sink_times
    assert compiled.cycles == event.cycles
    assert compiled.stats.summary() == event.stats.summary()


class TestBitIdentity:
    @pytest.mark.parametrize("name", FIGURES)
    def test_jump_preserves_everything(self, name):
        event, compiled = _pair(name, m=M_JUMP)
        _assert_identical(event, compiled)
        schedule = compiled.engine.schedule
        if name == "fig5":
            # data-dependent merge control: must refuse to jump
            assert not schedule.jumps
        else:
            assert schedule.jumps, f"{name}: expected a steady-state jump"
            assert schedule.cycles_skipped > 0
            assert schedule.anchor is not None

    @pytest.mark.parametrize("seed", [1, 13])
    def test_identity_across_seeds(self, seed):
        event, compiled = _pair("fig7", m=120, seed=seed)
        _assert_identical(event, compiled)

    def test_timeout_parity(self):
        """A max_cycles cap must fire at the *same* modeled cycle: the
        jump bound keeps the fast-forwarded clock from overshooting the
        deadline the event machine would have hit."""
        cp, inputs = _workload("fig2", m=M_JUMP)
        for cap in (37, 500):
            with pytest.raises(SimulationTimeout) as ev:
                repro.run(cp, inputs, backend="event", max_cycles=cap)
            with pytest.raises(SimulationTimeout) as co:
                repro.run(cp, inputs, backend="compiled", max_cycles=cap)
            assert str(co.value) == str(ev.value)

    def test_div_graph_falls_back(self):
        """DIV can raise on a data-dependent zero, so its streams are
        excluded from replay -- the run still agrees with event."""
        src = (
            "Y : array[real] :=\n"
            "  forall i in [0, m - 1]\n"
            "    y : real := a[i] / b[i]\n"
            "  construct\n"
            "    y + 1.\n"
            "  endall\n"
        )
        cp = repro.compile_program(src, params={"m": 32})
        inputs = {
            "a": [float(i + 1) for i in range(32)],
            "b": [float(i % 7 + 1) for i in range(32)],
        }
        event = repro.run(cp, inputs, backend="event")
        compiled = repro.run(cp, inputs, backend="compiled")
        _assert_identical(event, compiled)
        assert not compiled.engine.schedule.jumps
        assert "DIV" in compiled.engine.schedule.fallback_reason

    def test_calibration_budget_disarms_with_reason(self):
        """On a long data-dependent run the detector gives up after its
        calibration budget instead of scanning forever, and says so."""
        cp, inputs = _workload("fig5", m=4500)
        compiled = repro.run(cp, inputs, backend="compiled")
        schedule = compiled.engine.schedule
        assert not schedule.jumps
        assert "calibration budget" in schedule.fallback_reason

    def test_small_streams_never_jump_but_agree(self):
        """Below the minimum-profit jump size the machine just runs
        concretely; identity still holds."""
        event, compiled = _pair("fig4", m=5)
        _assert_identical(event, compiled)
        schedule = compiled.engine.schedule
        assert not schedule.jumps
        assert "no recurring machine state" in schedule.fallback_reason

    def test_period_too_late_to_jump_says_so(self):
        """The detector finds the period (12 elements / 120 cycles)
        with 5 replayable periods left, under the 8 a jump takes: the
        run stays concrete and the reason names the period."""
        element = "(A[i]) * T[i-1] + 1."
        src = (
            "X : array[real] :=\n"
            "  for i : integer := 1; T : array[real] := [0: 0.] do\n"
            "    if i < m then\n"
            f"      iter T := T[i: {element}]; i := i + 1 enditer\n"
            f"    else T[i: {element}]\n"
            "    endif\n"
            "  endfor\n"
        )
        cp = repro.compile_program(
            src, params={"m": 150}, foriter_scheme="companion"
        )
        inputs = {"A": [0.5] * cp.input_specs["A"].length}
        event = repro.run(cp, inputs, backend="event")
        compiled = repro.run(cp, inputs, backend="compiled")
        _assert_identical(event, compiled)
        schedule = compiled.engine.schedule
        assert not schedule.jumps
        assert "12 elements / 120 cycles" in schedule.fallback_reason
        assert "5 replayable periods" in schedule.fallback_reason


class TestOptionValidation:
    def test_rejects_machine_and_sharding_options(self):
        cp, inputs = _workload("fig2")
        rejected = {
            "faults": FaultPlan(seed=1, drop_result=0.1),
            "checkpoint": CheckpointConfig("/tmp/nope"),
            "shards": 4,
            "processes": True,
            "partition": "round_robin",
        }
        for name, value in rejected.items():
            with pytest.raises(ReproError, match=name):
                repro.run(cp, inputs, backend="compiled",
                          **{name: value})

    def test_rejects_unknown_passthrough_options(self):
        cp, inputs = _workload("fig2")
        with pytest.raises(ReproError, match="reliable"):
            repro.run(cp, inputs, backend="compiled", reliable=True)
        with pytest.raises(ReproError, match="trace"):
            repro.run(cp, inputs, backend="compiled", trace=object())

    def test_accepts_the_supported_knobs(self):
        cp, inputs = _workload("fig2")
        result = repro.run(
            cp, inputs, backend="compiled", recovery=False,
            workload_id="fig2", max_cycles=100_000,
        )
        assert result.backend == "compiled"
        assert result.outputs


class TestTurboMachineInternals:
    def test_disarmed_machine_reports_reason(self):
        """Direct construction with a trace recorder must disarm the
        detector (a traced run records every event) and say why."""
        cp, inputs = _workload("fig2")
        streams = cp.prepare_inputs(inputs)

        class Recorder:
            def record(self, *a, **k):
                pass

        machine = TurboMachine(cp.graph, inputs=streams,
                               trace=Recorder())
        assert not machine._armed
        assert machine.schedule.fallback_reason

    def test_jump_accounting_is_consistent(self):
        cp, inputs = _workload("fig2", m=M_JUMP)
        compiled = repro.run(cp, inputs, backend="compiled")
        schedule = compiled.engine.schedule
        assert schedule.jumps
        total = sum(skipped for _, _, skipped in schedule.jumps)
        assert schedule.cycles_skipped == total
        assert schedule.prologue_cycles is not None
        assert schedule.period_cycles > 0
        assert schedule.period_elements > 0

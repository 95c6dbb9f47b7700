"""Tests for steady-state fast-forward (``backend="compiled"``).

``backend="compiled"`` is the event machine run with
``fast_forward=True``: it detects the periodic steady state (paper
Theorems 1-4) and skips whole periods.  The contract under test:
exactly the options ``event`` accepts (those a jump cannot honor
disarm the detector, never get ignored), and honest concrete fallback
(never a wrong answer) whenever the steady state is not statically
replayable.  That every jump is bit-identical to ``backend="event"``
on every program is the differential oracle's compiled variant
(tests/integration/test_oracle.py).
"""

import sys

import pytest

import repro
from repro.checkpoint import CheckpointConfig
from repro.errors import ReproError, SimulationTimeout
from repro.faults import FaultPlan
from repro.machine import Machine
from repro.workloads import figure_workload
from tests.util import figure

#: large enough that every statically replayable figure jumps
M_JUMP = 400
#: Python calls a compiled op at m = 10 000 may make beyond one at
#: m = 1 000 (the concrete epilogue's watchdog ticks vary a little)
CALL_MARGIN = 16


def _pair(name, m=16, **kwargs):
    cp, inputs = figure(name, m=m)
    event = repro.run(cp, inputs, backend="event", **kwargs)
    compiled = repro.run(cp, inputs, backend="compiled", **kwargs)
    return event, compiled


def _assert_identical(event, compiled):
    assert compiled.outputs == event.outputs
    assert compiled.sink_times == event.sink_times
    assert compiled.cycles == event.cycles
    assert compiled.stats.summary() == event.stats.summary()


class TestBitIdentity:
    @pytest.mark.parametrize("name", ["fig2", "fig4", "fig6", "fig7"])
    def test_steady_state_is_almost_all_skipped(self, name):
        # at m = 10^4 a replayable figure is one jump over >= 99% of
        # its cycles (values at this size are checked against the
        # interpreter by the figs_compiled end-to-end workload)
        cp, inputs = figure(name, m=10_000)
        compiled = repro.run(cp, inputs, backend="compiled")
        schedule = compiled.engine.schedule
        assert schedule.jumps
        assert schedule.cycles_skipped >= 0.99 * compiled.cycles

    @pytest.mark.parametrize("name", ["fig2", "fig4", "fig6", "fig7"])
    def test_drain_is_only_what_is_in_flight(self, name):
        # a jump stops only where the control tokens already in flight
        # would stop matching the period, so the concrete epilogue is
        # about as long as the fill, however many control cells the
        # graph has
        cp, inputs = figure(name, m=10_000)
        compiled = repro.run(cp, inputs, backend="compiled")
        schedule = compiled.engine.schedule
        concrete = compiled.cycles - schedule.cycles_skipped
        assert concrete <= 2 * schedule.prologue_cycles

    def test_timeout_parity(self):
        """A max_cycles cap must fire at the *same* modeled cycle: the
        jump bound keeps the fast-forwarded clock from overshooting the
        deadline the event machine would have hit."""
        cp, inputs = figure("fig2", m=M_JUMP)
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
        cp, inputs = figure("fig5", m=4500)
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

    @staticmethod
    def _companion_schedule(m):
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
            src, params={"m": m}, foriter_scheme="companion"
        )
        inputs = {"A": [0.5] * cp.input_specs["A"].length}
        event = repro.run(cp, inputs, backend="event")
        compiled = repro.run(cp, inputs, backend="compiled")
        _assert_identical(event, compiled)
        return compiled.engine.schedule

    def test_period_too_late_to_jump_says_so(self):
        """The detector finds the period (12 elements / 120 cycles)
        with 5 replayable periods left, under the 8 a jump takes: the
        run stays concrete and the reason names the period."""
        schedule = self._companion_schedule(100)
        assert not schedule.jumps
        assert "12 elements / 120 cycles" in schedule.fallback_reason
        assert "5 replayable periods" in schedule.fallback_reason

    def test_period_with_room_left_jumps(self):
        """Half as many elements again leave 10 replayable periods once
        only the control tokens in flight are held back: the run jumps
        and still agrees with event."""
        schedule = self._companion_schedule(150)
        assert [j[1] for j in schedule.jumps] == [10]
        assert schedule.period_cycles == 120


#: options a jump cannot honor: each disarms the detector
DISARMING = {
    "faults": lambda tmp: FaultPlan(seed=1, drop_result=0.1),
    "checkpoint": lambda tmp: CheckpointConfig(str(tmp)),
    "trace": lambda tmp: True,
}


class TestOptionValidation:
    def test_rejects_sharding_options(self):
        """Exactly what ``event`` rejects."""
        cp, inputs = figure("fig2")
        rejected = {
            "shards": 4,
            "processes": True,
            "partition": "round_robin",
        }
        for name, value in rejected.items():
            for backend in ("event", "compiled"):
                with pytest.raises(ReproError, match=name):
                    repro.run(cp, inputs, backend=backend,
                              **{name: value})

    @pytest.mark.parametrize("name", sorted(DISARMING))
    def test_disarming_options_run_exactly_like_event(self, name, tmp_path):
        """Faults, checkpoints, the reliability layer and tracing are
        honored, not rejected: the detector disarms and says why, and
        the run is the event run with the same option."""
        cp, inputs = figure("fig2", m=M_JUMP)
        event = repro.run(cp, inputs, backend="event",
                          **{name: DISARMING[name](tmp_path / "event")})
        compiled = repro.run(
            cp, inputs, backend="compiled",
            **{name: DISARMING[name](tmp_path / "compiled")},
        )
        _assert_identical(event, compiled)
        schedule = compiled.engine.schedule
        assert not schedule.jumps
        assert "reliability layer is active" in schedule.fallback_reason

    def test_accepts_the_supported_knobs(self):
        cp, inputs = figure("fig2")
        result = repro.run(
            cp, inputs, backend="compiled", recovery=False,
            workload_id="fig2", max_cycles=100_000,
        )
        assert result.backend == "compiled"
        assert result.outputs


class TestFastForwardInternals:
    def test_disarmed_machine_reports_reason(self):
        """A traced machine run with fast-forward must disarm the
        detector (a traced run records every event) and say why."""
        cp, inputs = figure("fig2")
        machine = Machine(cp.graph, inputs=cp.prepare_inputs(inputs),
                          trace=True)
        machine.run(fast_forward=True)
        assert machine._ff is None
        assert "tracing" in machine.schedule.fallback_reason

    def test_plain_run_carries_no_fast_forward_state(self):
        cp, inputs = figure("fig2", m=M_JUMP)
        machine = Machine(cp.graph, inputs=cp.prepare_inputs(inputs))
        machine.run()
        assert "_ff" not in vars(machine)
        assert "schedule" not in vars(machine)
        assert machine.schedule is None

    def test_jump_accounting_is_consistent(self):
        cp, inputs = figure("fig2", m=M_JUMP)
        compiled = repro.run(cp, inputs, backend="compiled")
        schedule = compiled.engine.schedule
        assert schedule.jumps
        total = sum(skipped for _, _, skipped in schedule.jumps)
        assert schedule.cycles_skipped == total
        assert schedule.prologue_cycles is not None
        assert schedule.period_cycles > 0
        assert schedule.period_elements > 0
        assert "_ff" not in vars(compiled.engine)   # disarmed at exit


def _python_calls(name, m):
    """Python function calls (profile ``call`` events) made by
    ``compile_program`` plus a compiled run of figure ``name`` at size
    ``m``, after one warm-up op has done every import."""
    wl = figure_workload(name)
    inputs = wl.make_inputs(wl.compile(m=m), seed=1)
    repro.run(wl.compile(m=m), inputs, backend="compiled")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        result = repro.run(wl.compile(m=m), inputs, backend="compiled")
    finally:
        sys.setprofile(previous)
    assert result.engine.schedule.jumps
    return calls


class TestHostWorkIndependentOfM:
    """Outside a recurrence's fused loop, a compiled op does no Python
    work per stream element: compiling builds sequences at C speed, the
    evaluator moves whole batches, and a jump splices sink times with
    list arithmetic.  So ten times the elements may cost only a fixed
    margin more Python calls.  fig7 is left out: its fused loop fires
    one Python step per token by design (Theorem 3)."""

    @pytest.mark.parametrize("name", ["fig2", "fig4", "fig6"])
    def test_ten_times_the_elements_costs_no_more_python_calls(self, name):
        small, large = _python_calls(name, 1_000), _python_calls(name, 10_000)
        assert large <= small + CALL_MARGIN, (small, large)

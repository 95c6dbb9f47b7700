"""Tests for the workload builders and generators."""

import random

import pytest

import repro
from repro.graph import Op, validate
from repro.val import parse_program, run_program
from repro.workloads import (
    WEATHER_STEP_SOURCE,
    am_backed,
    compile_weather_step,
    initial_weather_state,
    random_layered_graph,
    random_pipe_program,
    run_timesteps,
    weather_state_map,
)


class TestWeatherWorkload:
    def test_one_step_matches_interpreter(self):
        m = 16
        cp = compile_weather_step(m)
        state = initial_weather_state(m, seed=4)
        ref = run_program(
            parse_program(WEATHER_STEP_SOURCE),
            inputs={"U": state["U"]},
            params={"m": m},
        )["V"]
        new_state, _ = run_timesteps(
            cp, state, weather_state_map(), n_steps=1
        )
        assert new_state["U"] == pytest.approx(ref.to_list())

    def test_am_fraction_below_one_eighth(self):
        """The Section 2 claim on application-style code."""
        m = 24
        cp = compile_weather_step(m)
        _, stats = run_timesteps(
            cp,
            initial_weather_state(m),
            weather_state_map(),
            n_steps=2,
        )
        for step in stats:
            assert step.packets.am_fraction <= 1 / 8
            assert step.packets.op_am > 0  # the state really touches AM

    def test_multi_step_evolution_matches_interpreter(self):
        m = 10
        cp = compile_weather_step(m)
        state = initial_weather_state(m, seed=1)
        machine_state, _ = run_timesteps(
            cp, dict(state), weather_state_map(), n_steps=3
        )
        # interpreter-only evolution
        prog = parse_program(WEATHER_STEP_SOURCE)
        u = state["U"]
        for _ in range(3):
            u = run_program(prog, inputs={"U": u}, params={"m": m})["V"].to_list()
        assert machine_state["U"] == pytest.approx(u)

    def test_am_backed_replaces_boundary_cells(self):
        cp = compile_weather_step(8)
        g = am_backed(cp)
        assert g.cells_by_op(Op.AM_READ)
        assert g.cells_by_op(Op.AM_WRITE)
        assert not [
            c for c in g.cells_by_op(Op.SOURCE) if "stream" in c.params
        ]
        validate(g)

    def test_am_backed_graph_runs_on_unit_sim(self):
        """AM cells degrade to plain sources/sinks on the unit-delay
        simulator (same timing model)."""
        m = 8
        cp = compile_weather_step(m)
        g = am_backed(cp)
        state = initial_weather_state(m, seed=2)
        res = repro.run(g, state, backend="sync")
        ref = cp.run(state)
        assert res.outputs["V"] == pytest.approx(
            ref.outputs["V"].to_list()
        )

    def test_state_shape_mismatch_reported(self):
        from repro.errors import SimulationError

        cp = compile_weather_step(8)
        with pytest.raises(SimulationError, match="state array"):
            run_timesteps(cp, {"U": [1.0]}, weather_state_map(), 1)

    def test_fully_pipelined_step(self):
        m = 150
        cp = compile_weather_step(m)
        res = cp.run({"U": [0.5] * (m + 2)})
        assert res.initiation_interval("V") == pytest.approx(2.0, abs=0.05)


class TestGenerators:
    def test_random_layered_graphs_validate(self):
        rng = random.Random(14)
        for _ in range(5):
            g = random_layered_graph(rng, n_layers=4, width=3)
            validate(g)
            assert g.is_acyclic()

    def test_layered_graphs_balance_and_run(self):
        from repro.compiler import balance_graph

        rng = random.Random(15)
        g = random_layered_graph(rng, n_layers=4, width=3)
        balance_graph(g)
        res = repro.run(g, {"x": [1.0] * 40}, backend="sync")
        assert res.initiation_interval() == pytest.approx(2.0, abs=0.05)

    def test_generation_is_deterministic(self):
        a = random_pipe_program(random.Random(42), n_blocks=3)
        b = random_pipe_program(random.Random(42), n_blocks=3)
        assert a == b

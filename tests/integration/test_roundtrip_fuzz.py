"""Fuzz: compiled programs survive dfasm serialization and keep their
behaviour; larger random pipe-structured programs stay correct."""

import random

import pytest

import repro
from repro.compiler import compile_program
from repro.graph.asm import from_asm, to_asm
from repro.workloads import random_forall_program, random_pipe_program
from tests.util import compile_and_compare, random_inputs


class TestAsmRoundTripFuzz:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_programs_roundtrip_behaviour(self, seed):
        rng = random.Random(seed)
        src = random_forall_program(rng, depth=2)
        cp = compile_program(src, params={"m": 8})
        inputs = random_inputs(cp, rng)
        direct = repro.run(cp.graph, inputs, backend="sync")
        revived = from_asm(to_asm(cp.graph))
        again = repro.run(revived, inputs, backend="sync")
        assert direct.outputs == again.outputs
        assert (
            direct.sink_times["Y"] == again.sink_times["Y"]
        )

    @pytest.mark.parametrize("controls", ["patterns", "dataflow"])
    def test_roundtrip_with_both_control_modes(self, controls):
        from repro.workloads import SOURCES

        cp = compile_program(
            SOURCES["example1"], params={"m": 8}, controls=controls
        )
        inputs = {k: [1.0] * v.length for k, v in cp.input_specs.items()}
        direct = repro.run(cp.graph, inputs, backend="sync")
        revived = from_asm(to_asm(cp.graph))
        again = repro.run(revived, inputs, backend="sync")
        assert direct.outputs == again.outputs


class TestLargeProgramStress:
    @pytest.mark.parametrize("seed", range(3))
    def test_eight_block_pipes(self, seed):
        src = random_pipe_program(random.Random(seed), n_blocks=8, depth=2)
        cp, res = compile_and_compare(src, {"m": 60}, seed=seed)
        stream = next(iter(cp.output_specs))
        assert res.initiation_interval(stream) == pytest.approx(2.0, abs=0.1)

    def test_deep_program_all_options(self):
        """One program through every major compile option combination."""
        src = random_pipe_program(random.Random(99), n_blocks=5)
        for foriter_scheme in ("todd", "companion"):
            for balance in ("naive", "optimal"):
                compile_and_compare(
                    src,
                    {"m": 15},
                    seed=1,
                    foriter_scheme=foriter_scheme,
                    balance=balance,
                )
        compile_and_compare(src, {"m": 15}, seed=1, controls="dataflow")

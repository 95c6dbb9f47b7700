"""Larger random pipe-structured programs than the oracle's stay
correct and fully pipelined under every compile option."""

import random

import pytest

from repro.workloads import random_pipe_program
from tests.util import compile_and_compare


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

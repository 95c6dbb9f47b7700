"""Shared fixtures for the serve suite: job builders over the paper's
Example 2 recurrence, small enough that a worker call is cheap."""

from __future__ import annotations

import random

import pytest

from repro.serve import jobs as serve_jobs
from repro.serve.protocol import JobSpec
from repro.workloads import EXAMPLE2_SOURCE


def example2_inputs(m: int, seed: int) -> dict[str, list[float]]:
    cp = serve_jobs.compile_serial(EXAMPLE2_SOURCE, {"m": m})
    rng = random.Random(seed)
    return {
        name: [round(rng.uniform(-1.5, 1.5), 6) for _ in range(spec.length)]
        for name, spec in cp.input_specs.items()
    }


_DEFINITION = "A[i] * T[i-1] + B[i]"

#: Example 2 with a division: a zero divisor fails the job, typed
DIV_SOURCE = EXAMPLE2_SOURCE.replace(_DEFINITION, "A[i] / B[i] + T[i-1]")

#: a loop body whose ``if`` reads data, so batch members may disagree
BRANCH_SOURCE = EXAMPLE2_SOURCE.replace(
    _DEFINITION,
    "if A[i] > 0. then T[i-1] + A[i] else T[i-1] * B[i] endif",
)

#: two for-iter blocks over the same inputs: X and a Y that reads B[i]
TWO_BLOCK_SOURCE = EXAMPLE2_SOURCE + EXAMPLE2_SOURCE.replace(
    "X :", "Y :"
).replace(_DEFINITION, "B[i] * T[i-1] + A[i]")


def make_spec(job_id: str, *, m: int = 6, seed: int = 0,
              source: str = EXAMPLE2_SOURCE, **overrides) -> JobSpec:
    """One recurrence job (Example 2 unless ``source`` says otherwise;
    every program here reads ``A`` and ``B``) with seeded inputs."""
    spec = JobSpec(
        id=job_id,
        source=source,
        params={"m": m},
        inputs=example2_inputs(m, seed),
        **overrides,
    )
    spec.validate()
    return spec


def bits(streams: dict[str, list]) -> dict[str, list[str]]:
    """Streams as exact value spellings: ``repr`` round-trips a float,
    and tells -0.0 from 0.0 where ``==`` does not."""
    return {name: [repr(v) for v in values]
            for name, values in streams.items()}


def kill_fault(attempt: int = 0) -> dict:
    """FaultPlan dict that kills the worker on the given attempt."""
    return {"schema": 2,
            "shard_faults": [{"shard": attempt, "cycle": 0,
                              "kind": "kill"}]}


def hang_fault(attempt: int = 0) -> dict:
    return {"schema": 2,
            "shard_faults": [{"shard": attempt, "cycle": 0,
                              "kind": "hang"}]}


def slow_fault(delay: float, attempt: int = 0) -> dict:
    return {"schema": 2,
            "shard_faults": [{"shard": attempt, "cycle": 0,
                              "kind": "slow", "delay": delay}]}


@pytest.fixture(autouse=True)
def _fresh_compile_caches():
    serve_jobs.clear_caches()
    yield

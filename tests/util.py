"""Shared helpers for the test suite: the compile-and-compare harness,
and the programs, plans and single-machine references every backend
test runs against."""

from __future__ import annotations

import functools
import random
from typing import Any, Mapping, Optional

from repro.compiler import CompiledProgram, compile_program
from repro.faults import FaultPlan
from repro.machine import Machine, MachineConfig, ShardConfig, ShardedRunner
from repro.val import parse_program, run_program
from repro.workloads import (
    SOURCES,
    figure_workload,
    parallel_chain_graph,
    random_forall_program,
    random_pipe_program,
    random_recurrence_program,
)

FIGS = ["fig2", "fig4", "fig5", "fig6", "fig7"]
#: generated pipe programs, each ending in a for-iter recurrence
GENERATED = [f"pipe{seed}" for seed in range(8)]
#: generated programs whose compile-time controls break their period
#: mid-stream (see :func:`branch_program`)
BRANCHES = [f"branch{seed}" for seed in (3, 4, 5, 7)]
#: programs drawn from the workload generators: a depth-2 forall, and
#: one recurrence under each for-iter scheme
DRAWN = [f"{kind}{seed}" for kind in ("forall", "todd", "companion")
         for seed in range(16)]

#: configs whose sharded runs are exact: under free issue no unit
#: serializes same-cycle work, and under the other two each shard's
#: private units measured no effect on a modeled time
EXACT_CONFIGS = {
    "free_issue": MachineConfig(pe_issue_interval=0, fu_issue_interval=0),
    # no two cells share a PE (every graph here has < 256 cells)
    "pe_per_cell": MachineConfig(n_pes=256),
    # only the FUs serialize
    "free_pe_issue": MachineConfig(pe_issue_interval=0),
}

#: every packet fault at once: each arc draws its fates from its own
#: stream, so every backend that reproduces the times draws the same
#: faults
CHAOS_PLAN = FaultPlan(
    seed=7,
    drop_result=0.08,
    dup_result=0.05,
    corrupt_result=0.04,
    drop_ack=0.08,
    dup_ack=0.05,
)


def figure(name: str, m: int = 16):
    """A paper figure's compiled program and its seeded input arrays."""
    wl = figure_workload(name)
    cp = wl.compile(m=m)
    return cp, wl.make_inputs(cp)


def branch_program(rng: random.Random) -> str:
    """Val source of a forall, or of a for-iter recurrence, whose body
    is guarded by index predicates: every control is known at compile
    time, yet its pattern changes at an arbitrary point of the stream
    (for m of about 200)."""
    k = rng.randrange(10, 100)
    d = rng.randrange(1, 60)
    pred = rng.choice([
        f"(i = {k}) | (i > m - {d})",
        f"(i = m - {d})",
        f"(i > {k}) & (i < m - {d})",
        f"(i < {k}) | (i = m - {d})",
    ])
    x, y = rng.sample(["A[i]", "A[i-1]", "B[i-1]"], 2)
    if rng.random() < 0.5:
        return (
            "Y : array[real] :=\n"
            "  forall i in [1, m]\n"
            "  construct\n"
            f"    if {pred} then {x} * 2. else {y} + 1. endif\n"
            "  endall\n"
        )
    return (
        "X : array[real] :=\n"
        "  for i : integer := 1; T : array[real] := [0: 0.] do\n"
        f"    let P : real := if {pred} then {x} * T[i-1] + 1.\n"
        f"                    else T[i-1] + {y} endif\n"
        "    in\n"
        "      if i < m then iter T := T[i: P]; i := i + 1 enditer\n"
        "      else T[i: P]\n"
        "      endif\n"
        "    endlet\n"
        "  endfor\n"
    )


def _kind_and_seed(name: str) -> tuple[str, int]:
    kind = name.rstrip("0123456789")
    return kind, int(name[len(kind):])


def program_source(name: str, m: int = 12):
    """``(Val source, params, compile options)`` of a named program (see
    :func:`program_graph`): enough to reproduce it by hand."""
    if name in FIGS:
        wl = figure_workload(name)
        return SOURCES[wl.source_name], {"m": m}, dict(wl.compile_opts)
    kind, seed = _kind_and_seed(name)
    rng = random.Random(seed)
    if kind == "pipe":
        return random_pipe_program(rng, n_blocks=3, depth=2), {"m": m}, {}
    if kind == "branch":
        return branch_program(rng), {"m": m}, {}
    if kind == "forall":
        return random_forall_program(rng, depth=2), {"m": m}, {}
    return (random_recurrence_program(rng), {"m": m},
            {"foriter_scheme": kind})


@functools.lru_cache(maxsize=None)
def program(name: str, m: int = 12):
    """``(compiled program, input arrays)`` of a named program; a
    generated program's inputs are drawn with its own seed."""
    if name in FIGS:
        return figure(name, m)
    source, params, opts = program_source(name, m)
    cp = compile_program(source, params=params, **opts)
    return cp, random_inputs(cp, random.Random(_kind_and_seed(name)[1]))


@functools.lru_cache(maxsize=None)
def program_graph(name: str, m: int = 12):
    """``(graph, input streams)`` of a paper figure, of ``pipe<seed>``
    (:func:`~repro.workloads.random_pipe_program` with that seed), of
    ``branch<seed>`` (:func:`branch_program` with that seed), of a
    :data:`DRAWN` program or of ``chains10k`` (>= 10^4 cells, the
    sharded backend's scaling graph)."""
    if name == "chains10k":
        return parallel_chain_graph(m=2), {}
    cp, inputs = program(name, m)
    return cp.graph, cp.prepare_inputs(inputs)


def reference(graph, streams, plan=None):
    """Outputs and per-stream sink times of one unit-time
    single-machine run."""
    machine = Machine(
        graph, MachineConfig.unit_time(), inputs=streams, fault_plan=plan,
    )
    machine.run()
    outputs = machine.outputs()
    return outputs, {s: machine.sink_arrival_times(s) for s in outputs}


class ClassicLockstep(ShardedRunner):
    """The classic conservative lockstep, one window per ``L = max(1,
    rn_delay)`` cycles: a trivially safe reference that adaptive
    windows must match bit for bit in fewer barriers."""

    def _horizon(self, t_min, frontier, msg_bound, crash_at):
        return t_min + self._lookahead - 1


def in_process_run(graph, streams, k, plan=None, config=None,
                   cls=ShardedRunner, partition="auto"):
    """One finished in-process sharded run (unit time by default)."""
    runner = cls(
        graph, streams, fault_plan=plan,
        config=config or MachineConfig.unit_time(),
        shard_config=ShardConfig(shards=k, partition=partition,
                                 processes=False),
    )
    runner.run()
    return runner


def random_inputs(
    cp: CompiledProgram,
    rng: random.Random,
    bool_arrays: frozenset[str] = frozenset(),
    span: float = 1.5,
) -> dict[str, list[Any]]:
    """Random input streams matching a compiled program's inferred specs."""
    inputs: dict[str, list[Any]] = {}
    for name, spec in cp.input_specs.items():
        if name in bool_arrays:
            inputs[name] = [rng.random() < 0.5 for _ in range(spec.length)]
        else:
            inputs[name] = [rng.uniform(-span, span) for _ in range(spec.length)]
    return inputs


def reference_outputs(
    source: str,
    cp: CompiledProgram,
    inputs: Mapping[str, list[Any]],
    params: Mapping[str, int],
):
    """Ground-truth outputs from the Val interpreter, aligned to specs."""
    return run_program(
        parse_program(source),
        inputs={k: (cp.input_specs[k].lo, list(v)) for k, v in inputs.items()},
        params=dict(params),
    )


def assert_outputs_match(outputs, reference, names=None, tol: float = 1e-9):
    """Each named output array (every one by default) has the
    reference's bounds, and its values within ``tol`` (relative above
    1) of the reference's."""
    names = names or list(outputs)
    for name in names:
        got = outputs[name]
        ref = reference[name]
        assert got.bounds == ref.bounds, (
            f"{name}: bounds {got.bounds} != {ref.bounds}"
        )
        for k, (a, b) in enumerate(zip(got.to_list(), ref.to_list())):
            if isinstance(a, float) or isinstance(b, float):
                assert abs(a - b) <= tol * max(1.0, abs(b)), (
                    f"{name}[{ref.lo + k}]: {a} != {b}"
                )
            else:
                assert a == b, f"{name}[{ref.lo + k}]: {a} != {b}"


def compile_and_compare(
    source: str,
    params: Mapping[str, int],
    seed: int = 0,
    bool_arrays: frozenset[str] = frozenset(),
    inputs: Optional[dict[str, list[Any]]] = None,
    **compile_opts: Any,
):
    """Compile, simulate, and check against the interpreter.

    Returns (compiled program, program result) for further assertions.
    """
    cp = compile_program(source, params=params, **compile_opts)
    rng = random.Random(seed)
    if inputs is None:
        inputs = random_inputs(cp, rng, bool_arrays=bool_arrays)
    result = cp.run(inputs)
    reference = reference_outputs(source, cp, inputs, params)
    assert_outputs_match(result.outputs, reference)
    return cp, result

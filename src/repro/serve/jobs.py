"""Job execution helpers: resident compiled pipelines and
:func:`execute`, which runs one dispatch of jobs.

The correctness contract of the batching scheduler lives here:

* ``foriter`` jobs compile with the **Todd** for-iter scheme
  explicitly (``compile_program(..., foriter_scheme="todd")``) -- never
  through ``repro.run(source, ...)``, which compiles with the default
  scheme and would pick the companion construction whose floating-point
  association differs by ULPs;
* a dispatch of several jobs runs that pipeline once with a
  :class:`~repro.sim.sync.Lanes` token per member value: each lane
  applies the member's own operators to its own operands, so a job's
  output values are **bit-identical** whether it ran alone or inside
  any batch.  A lone job, a batch that fails or one whose members'
  controls disagree runs each member alone.

Compiled artifacts are cached per (source, params) so a resident
worker serves repeat tenants without recompiling.
"""

from __future__ import annotations

from typing import Any, Optional

from .. import api
from ..compiler import compile_program
from ..errors import ReproError
from ..faults import FaultPlan
from ..sim.sync import Lanes, SyncSimulator
from .protocol import JobExecutionError, JobSpec

#: bound on resident compiled pipelines per cache (LRU-ish: clear-all)
COMPILE_CACHE_CAP = 64

_serial_cache: dict[tuple, Any] = {}


def clear_caches() -> None:
    _serial_cache.clear()


def _params_key(params: dict[str, int]) -> tuple:
    return tuple(sorted(params.items()))


def compile_serial(source: str, params: dict[str, int]):
    """Resident Todd-scheme pipeline for one program."""
    key = (source, _params_key(params))
    art = _serial_cache.get(key)
    if art is None:
        if len(_serial_cache) >= COMPILE_CACHE_CAP:
            _serial_cache.clear()
        art = compile_program(source, params=params, foriter_scheme="todd")
        _serial_cache[key] = art
    return art


def _spec_faults(spec: JobSpec) -> Optional[FaultPlan]:
    plan = spec.fault_plan()
    if plan is None:
        return None
    plan = plan.without_shard_faults()
    return plan if plan.has_execution_faults else None


def execute_serial(spec: JobSpec) -> dict[str, Any]:
    """Run one job alone; returns the result payload for its record."""
    try:
        plan = _spec_faults(spec)
        if spec.kind == "run":
            options = dict(spec.options)
            backend = options.pop("backend", "sync")
            compile_opts = {
                k: options.pop(k)
                for k in ("forall_scheme", "foriter_scheme", "balance")
                if k in options
            }
            program = compile_program(
                spec.source, params=spec.params, **compile_opts
            )
            if plan is not None and backend == "sync":
                backend = "event"  # packet faults need the event machine
            result = api.run(
                program, spec.inputs, backend=backend, faults=plan,
                **options,
            )
        else:
            program = compile_serial(spec.source, spec.params)
            backend = "event" if plan is not None else "sync"
            result = api.run(program, spec.inputs, backend=backend,
                             faults=plan)
        return {"streams": {k: list(v) for k, v in result.outputs.items()}}
    except ReproError as exc:
        # deterministic failure of the pipeline itself: typed, not
        # retried (a retry would fail identically)
        raise JobExecutionError(
            str(exc), job_id=spec.id, error_type=type(exc).__name__
        ) from exc


def execute(specs: list[JobSpec]) -> dict[str, dict[str, Any]]:
    """Run one dispatch: several compatible jobs as lanes of one serial
    pipeline run, a lone job alone.

    Returns ``{job id: entry}``: the member's result payload, its
    streams bit-identical to what :func:`execute_serial` produces, or
    ``{"error": ...}`` with the typed error it raises alone.
    """
    if len(specs) > 1:
        try:
            return _lanes(specs)
        except ReproError:
            pass  # a failing or diverging batch: each member alone
    return {s.id: _alone(s) for s in specs}


def _lanes(specs: list[JobSpec]) -> dict[str, dict[str, Any]]:
    program = compile_serial(specs[0].source, specs[0].params)
    members = [program.prepare_inputs(s.inputs) for s in specs]
    inputs = {
        name: list(map(Lanes, zip(*(m[name] for m in members))))
        for name in program.input_specs
    }
    sim = SyncSimulator(program.graph, inputs, lanes=len(specs))
    sim.run(max_steps=1_000_000)
    outputs = sim.outputs()
    return {
        spec.id: {
            "streams": {name: [v[j] for v in values]
                        for name, values in outputs.items()},
            "batch": len(specs),
        }
        for j, spec in enumerate(specs)
    }


def _alone(spec: JobSpec) -> dict[str, Any]:
    try:
        return execute_serial(spec)
    except JobExecutionError as exc:
        return {"error": exc.to_dict()}

"""One entry point over the four execution backends.

``sync`` is the unit-delay synchronous simulator (:mod:`repro.sim`),
``event`` the event-driven packet-level machine (:mod:`repro.machine`),
``sharded`` the multi-process sharded runner
(:mod:`repro.machine.shard_runner`) and ``compiled`` the event machine
with steady-state fast-forward on (:mod:`repro.machine.fastforward`).
They share the graph IR and the stream protocol; :func:`run` gives
them one set of options and one result shape::

    import repro

    result = repro.run(source, params={"m": 100},
                       backend="sharded", shards=4)
    result.outputs["X"]            # same streams whatever the backend
    result.initiation_interval("X")
    result.to_json_dict()          # stable schema shared with the CLI

``program`` may be Val source text (compiled on the fly), an already
compiled :class:`~repro.compiler.CompiledProgram`, or a raw
:class:`~repro.graph.graph.DataflowGraph`.  :func:`run` refuses every
option the chosen backend does not honor and builds the engine with
:func:`build_engine`, which ``repro checkpoint`` shares.

:func:`run` and :func:`resume` are the only run/resume entry points;
everything about a sharded run beyond its shard count is configured
through one :class:`~repro.machine.ShardConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from .errors import ReproError
from .timing import steady_interval as _steady_interval

#: version of the dict produced by :meth:`RunResult.to_json_dict` (and
#: therefore of the CLI's ``--json`` output); bump on shape changes
RESULT_SCHEMA = 1


@dataclass
class RunResult:
    """Backend-independent outcome of one end-to-end run.

    ``cycles`` counts whatever clock the backend uses: instruction
    times for ``sync``, machine cycles for ``event`` and ``sharded``
    (so absolute numbers are comparable only within a backend, while
    initiation intervals are comparable across all of them under
    unit-time configs).
    """

    backend: str
    outputs: dict[str, list[Any]]
    #: per-stream arrival time of every output element
    sink_times: dict[str, list[int]]
    cycles: int
    stats: Any
    #: the engine that ran (SyncSimulator / Machine / ShardedRunner);
    #: backend-specific, for callers that need to dig deeper
    engine: Any = None
    shards: int = 1

    @classmethod
    def from_engine(cls, backend: str, engine: Any,
                    stats: Any) -> "RunResult":
        """The result of a finished machine-clock engine (a
        :class:`~repro.machine.Machine` or
        :class:`~repro.machine.ShardedRunner`) that ``run()`` returned
        ``stats`` for."""
        outputs = engine.outputs()
        return cls(
            backend=backend, outputs=outputs,
            sink_times={s: list(engine.sink_arrival_times(s))
                        for s in outputs},
            cycles=stats.cycles, stats=stats, engine=engine,
            shards=getattr(engine, "shards", 1),
        )

    def initiation_interval(self, stream: Optional[str] = None) -> float:
        """Steady-state clock ticks between successive outputs of
        ``stream`` (the only output stream when omitted)."""
        return _steady_interval(self._times(stream))

    def throughput(self, stream: Optional[str] = None) -> float:
        """Outputs per clock tick in steady state: the reciprocal
        initiation interval.  An interval of exactly 0 (degenerate
        single-stage graphs whose outputs arrive simultaneously) is
        infinite throughput, not zero; an unmeasurable interval (NaN,
        fewer than three outputs) reports 0.0."""
        ii = self.initiation_interval(stream)
        if ii != ii:
            return 0.0
        if ii == 0:
            return float("inf")
        return 1.0 / ii

    def latency(self, stream: Optional[str] = None) -> int:
        """Tick at which the first output of ``stream`` arrived."""
        times = self._times(stream)
        if not times:
            raise ValueError(f"stream {stream!r} produced no outputs")
        return times[0]

    def _times(self, stream: Optional[str]) -> list[int]:
        if stream is None:
            if len(self.sink_times) != 1:
                raise ValueError(
                    f"stream must be named; outputs: "
                    f"{sorted(self.sink_times)}"
                )
            return next(iter(self.sink_times.values()))
        try:
            return self.sink_times[stream]
        except KeyError:
            raise ValueError(
                f"no output stream {stream!r}; outputs: "
                f"{sorted(self.sink_times)}"
            ) from None

    def to_json_dict(self) -> dict[str, Any]:
        """The stable JSON shape shared by the CLI's ``--json`` flag."""
        streams = {}
        for name in sorted(self.outputs):
            ii = self.initiation_interval(name)
            streams[name] = {
                "values": list(self.outputs[name]),
                "times": list(self.sink_times.get(name, [])),
                "initiation_interval": None if ii != ii else round(ii, 6),
            }
        stats: dict[str, Any] = {
            "total_firings": getattr(self.stats, "total_firings", None),
            "summary": self.stats.summary()
            if hasattr(self.stats, "summary") else None,
        }
        recovery = getattr(self.stats, "recovery", None)
        if recovery is not None:
            stats["recovery"] = recovery.to_dict()
        return {
            "schema": RESULT_SCHEMA,
            "backend": self.backend,
            "shards": self.shards,
            "cycles": self.cycles,
            "streams": streams,
            "stats": stats,
        }


#: the options each backend honors; :func:`run` refuses any other that
#: is set (differs from its default), so a fault plan or checkpoint
#: config is never silently dropped
_MACHINE = ("config", "faults", "recovery", "checkpoint", "workload_id")
_HONORS: dict[str, tuple[str, ...]] = {
    "sync": ("recovery", "workload_id"),
    "event": _MACHINE,
    "sharded": ("shards", *_MACHINE, "shard_config"),
    "compiled": _MACHINE,
}


def build_engine(backend: str, graph: Any, inputs: dict[str, list[Any]],
                 *, shards: Optional[int] = None, config: Any = None,
                 faults: Any = None, recovery: bool = True,
                 checkpoint: Any = None, shard_config: Any = None,
                 workload_id: Optional[str] = None) -> Any:
    """The unstarted engine of ``backend`` over stream-level ``graph``
    and ``inputs``: a :class:`~repro.sim.sync.SyncSimulator`, a
    :class:`~repro.machine.Machine` (``event``, ``compiled``) or a
    :class:`~repro.machine.ShardedRunner`, for the caller to start;
    :func:`run` refuses the options an engine cannot apply."""
    if backend == "sync":
        from .sim.sync import SyncSimulator

        return SyncSimulator(graph, inputs)
    if backend == "sharded":
        from .machine.shard_config import ShardConfig
        from .machine.shard_runner import ShardedRunner

        return ShardedRunner(
            graph, inputs, config=config, fault_plan=faults,
            recovery=recovery, checkpoint=checkpoint,
            workload_id=workload_id,
            shard_config=ShardConfig.coerce(shard_config, shards=shards),
        )
    from .machine.machine import Machine

    machine = Machine(graph, config=config, inputs=inputs,
                      fault_plan=faults, recovery=recovery,
                      checkpoint=checkpoint)
    machine.workload_id = workload_id
    return machine


def _normalize(program: Any, inputs: Optional[Mapping[str, Any]],
               params: Optional[Mapping[str, int]]) -> tuple[Any, dict]:
    """Accept Val source, a CompiledProgram or a raw graph; return the
    stream-level ``(graph, input streams)`` every backend consumes."""
    from .compiler.pipeline import CompiledProgram, compile_program
    from .graph.graph import DataflowGraph

    if isinstance(program, str):
        program = compile_program(program, params=dict(params or {}))
    if isinstance(program, CompiledProgram):
        return program.graph, program.prepare_inputs(dict(inputs or {}))
    if isinstance(program, DataflowGraph):
        if params:
            raise ReproError(
                "params= only applies when compiling Val source"
            )
        return program, {k: list(v) for k, v in (inputs or {}).items()}
    raise ReproError(
        f"cannot run a {type(program).__name__}; expected Val source, "
        f"a CompiledProgram or a DataflowGraph"
    )


def run(
    program: Any,
    inputs: Optional[Mapping[str, Any]] = None,
    *,
    backend: str = "event",
    shards: Optional[int] = None,
    params: Optional[Mapping[str, int]] = None,
    config: Any = None,
    faults: Any = None,
    recovery: bool = True,
    checkpoint: Any = None,
    max_cycles: Optional[int] = None,
    shard_config: Any = None,
    workload_id: Optional[str] = None,
) -> RunResult:
    """Run ``program`` on ``inputs`` with the chosen backend.

    ``backend``
        ``"sync"`` (unit-delay simulator), ``"event"`` (packet-level
        machine, the default), ``"sharded"`` (K event-driven workers
        over a warm pool) or ``"compiled"`` (the event machine with
        steady-state periods fast-forwarded; bit-identical to
        ``"event"``).
    ``shards``
        Shard count of the sharded backend; exactly
        ``ShardConfig.shards``.  ``None`` (the default) means "not
        given": ``shard_config`` (or its default) decides.  Giving
        both with different counts is an error.
    ``shard_config``
        Everything else about a sharded run: a
        :class:`~repro.machine.ShardConfig`, a plain dict, or a JSON
        string.  Covers the partition scheme, whether shards are real
        worker processes, and the self-healing
        :class:`~repro.machine.RecoveryPolicy`.
    ``params``
        Compile-time constants, when ``program`` is Val source text.
    ``config`` / ``faults`` / ``recovery`` / ``checkpoint``
        Machine-backend knobs: :class:`~repro.machine.MachineConfig`,
        a seeded :class:`~repro.faults.FaultPlan`, the reliability
        layer switch, and a :class:`~repro.checkpoint.
        CheckpointConfig` for periodic (sharded: coordinated)
        snapshots.
    ``max_cycles``
        Step (``"sync"``, default 10**7) or cycle budget (default
        5 * 10**7), a positive int.  A run that has not quiesced
        within it raises :class:`~repro.errors.SimulationTimeout`.
    """
    if backend not in _HONORS:
        raise ReproError(
            f"unknown backend {backend!r}; choose from {sorted(_HONORS)}"
        )
    if shards is not None and backend != "sharded":
        raise ReproError(
            f"shards={shards} needs backend='sharded', not {backend!r}"
        )
    if max_cycles is not None and (
        isinstance(max_cycles, bool) or not isinstance(max_cycles, int)
        or max_cycles < 1
    ):
        raise ReproError(
            f"max_cycles must be a positive int, got {max_cycles!r}"
        )
    options = {
        "shards": shards, "config": config, "faults": faults,
        "recovery": recovery, "checkpoint": checkpoint,
        "shard_config": shard_config, "workload_id": workload_id,
    }
    for name, value in options.items():
        if name not in _HONORS[backend] and value != run.__kwdefaults__[name]:
            raise ReproError(
                f"backend {backend!r} does not support {name!r}"
            )
    graph, streams = _normalize(program, inputs, params)
    engine = build_engine(backend, graph, streams, **options)
    if backend == "sync":
        engine.run(max_steps=max_cycles or 10_000_000)
        return RunResult(
            backend=backend, outputs=engine.outputs(),
            sink_times={r.stream: list(r.times)
                        for r in engine.sink_records.values()},
            cycles=engine.stats.steps, stats=engine.stats, engine=engine,
        )
    budget = max_cycles or 50_000_000
    stats = (engine.run(max_cycles=budget) if backend == "sharded" else
             engine.run(max_cycles=budget,
                        fast_forward=backend == "compiled"))
    return RunResult.from_engine(backend, engine, stats)


def resume(
    directory: Union[str, Any],
    *,
    max_cycles: int = 50_000_000,
    shard_config: Any = None,
) -> RunResult:
    """Resume a checkpointed run -- single-machine or sharded -- from
    ``directory`` and run it to completion.

    Auto-detects the directory kind: a sharded manifest resumes the
    newest complete coordinated set via :meth:`~repro.machine.
    shard_runner.ShardedRunner.resume`; anything else resumes the newest
    single-machine snapshot via :meth:`~repro.machine.Machine.resume`.
    ``shard_config`` tunes the resumed runner (worker processes,
    recovery); the snapshot set fixes K, so a config that names another
    shard count raises :class:`~repro.errors.SimulationError`.
    """
    from .checkpoint.directory import resume_point
    from .machine.machine import Machine
    from .machine.shard_runner import ShardedRunner

    point = resume_point(directory)
    if point.sharded:
        runner = ShardedRunner.resume(point, shard_config=shard_config)
        stats = runner.run(max_cycles=max_cycles)
        return RunResult.from_engine("sharded", runner, stats)
    if shard_config is not None:
        raise ReproError("shard_config= applies only to sharded "
                         "checkpoint directories")
    machine = Machine.resume(point.path)
    stats = machine.run(max_cycles=max_cycles)
    return RunResult.from_engine("event", machine, stats)


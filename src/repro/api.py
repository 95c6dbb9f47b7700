"""One entry point over the three execution backends.

The reproduction grew three ways to execute a compiled instruction
graph -- the unit-delay synchronous simulator (:mod:`repro.sim`), the
event-driven packet-level machine (:mod:`repro.machine`) and the
multi-process sharded runner (:mod:`repro.machine.shard_runner`);
``backend="compiled"`` is the event machine with steady-state
fast-forward on (:mod:`repro.machine.fastforward`).  They share the
graph IR and the stream protocol but historically each had its own
entry point, options and result shape.  :func:`run` unifies them::

    import repro

    result = repro.run(source, params={"m": 100},
                       backend="sharded", shards=4)
    result.outputs["X"]            # same streams whatever the backend
    result.initiation_interval("X")
    result.to_json_dict()          # stable schema shared with the CLI

``program`` may be Val source text (compiled on the fly), an already
compiled :class:`~repro.compiler.CompiledProgram`, or a raw
:class:`~repro.graph.graph.DataflowGraph`.  Each backend is an object
satisfying :class:`BackendProtocol`, looked up in :data:`BACKENDS`.

:func:`run` and :func:`resume` are the only run/resume entry points;
everything about a sharded run beyond its shard count is configured
through one :class:`~repro.machine.ShardConfig`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Protocol, Union

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
    def from_engine(cls, backend: str, engine: Any, stats: Any,
                    shards: int = 1) -> "RunResult":
        """The result of a finished machine-clock engine (a
        :class:`~repro.machine.Machine` or
        :class:`~repro.machine.ShardedRunner`) that ``run()`` returned
        ``stats`` for."""
        outputs = engine.outputs()
        return cls(
            backend=backend,
            outputs=outputs,
            sink_times={
                s: list(engine.sink_arrival_times(s)) for s in outputs
            },
            cycles=stats.cycles,
            stats=stats,
            engine=engine,
            shards=shards,
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
            streams[name] = {
                "values": list(self.outputs[name]),
                "times": list(self.sink_times.get(name, [])),
            }
            ii = self.initiation_interval(name)
            streams[name]["initiation_interval"] = (
                None if ii != ii else round(ii, 6)
            )
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


@dataclass
class RunRequest:
    """Everything a backend needs to execute one run (normalized by
    :func:`run`; ``graph`` and ``inputs`` are already stream-level)."""

    graph: Any
    inputs: dict[str, list[Any]]
    shards: Optional[int] = None        # None = not given
    config: Any = None                  # MachineConfig, machine backends
    faults: Any = None                  # FaultPlan
    recovery: bool = True
    checkpoint: Any = None              # CheckpointConfig
    max_cycles: Optional[int] = None
    shard_config: Any = None            # sharded: ShardConfig|dict|JSON
    workload_id: Optional[str] = None
    options: dict[str, Any] = field(default_factory=dict)

    def reject(self, backend: str, *names: str) -> None:
        """Fail loudly on options the backend cannot honor -- silently
        dropping a fault plan or checkpoint config would let a caller
        believe a run was fault-injected or recoverable when it was
        neither.  A field is "set" when it differs from its dataclass
        default, so e.g. ``shard_config={}`` is caught on non-sharded
        backends while the default ``recovery=True`` passes."""
        for name in names:
            if getattr(self, name) != _REQUEST_DEFAULTS[name]:
                raise ReproError(
                    f"backend {backend!r} does not support {name!r}"
                )

    def budget(self, default: int) -> int:
        """``max_cycles``, or the backend's ``default`` when not given."""
        return default if self.max_cycles is None else self.max_cycles


#: per-field "not set" values for :meth:`RunRequest.reject`; computed
#: from the dataclass itself so the check can never drift from the
#: actual defaults
_REQUEST_DEFAULTS: dict[str, Any] = {
    f.name: (
        f.default
        if f.default is not dataclasses.MISSING
        else f.default_factory()
    )
    for f in dataclasses.fields(RunRequest)
    if f.default is not dataclasses.MISSING
    or f.default_factory is not dataclasses.MISSING
}


class BackendProtocol(Protocol):
    """An execution engine :func:`run` dispatches to.

    ``options`` names the extra keywords the backend consumes;
    :func:`run` rejects every other ``**option`` before ``execute`` is
    called."""

    name: str
    options: tuple[str, ...]

    def execute(self, request: RunRequest) -> RunResult:
        """Run to quiescence and report backend-independent results."""
        ...


class SyncBackend:
    """Unit-delay synchronous simulator (:mod:`repro.sim.sync`)."""

    name = "sync"
    options = ()

    def execute(self, request: RunRequest) -> RunResult:
        from .sim.sync import SyncSimulator

        request.reject(
            self.name, "shards", "config", "faults", "checkpoint",
            "shard_config",
        )
        sim = SyncSimulator(request.graph, request.inputs)
        sim.run(max_steps=request.budget(1_000_000))
        records = {r.stream: r for r in sim.sink_records.values()}
        return RunResult(
            backend=self.name,
            outputs=sim.outputs(),
            sink_times={s: list(r.times) for s, r in records.items()},
            cycles=sim.stats.steps,
            stats=sim.stats,
            engine=sim,
        )


class EventBackend:
    """Single-process event-driven machine (:mod:`repro.machine`).

    Registered twice: as ``"event"``, and as ``"compiled"`` with
    ``fast_forward`` on, which skips whole steady-state periods
    (:mod:`repro.machine.fastforward`) and is bit-identical to
    ``"event"`` in values, sink times, cycle counts and statistics."""

    options = ("trace",)

    def __init__(self, name: str = "event",
                 fast_forward: bool = False) -> None:
        self.name = name
        self.fast_forward = fast_forward

    def execute(self, request: RunRequest) -> RunResult:
        from .machine.machine import Machine

        request.reject(self.name, "shards", "shard_config")
        machine = Machine(
            request.graph,
            config=request.config,
            inputs=request.inputs,
            fault_plan=request.faults,
            recovery=request.recovery,
            checkpoint=request.checkpoint,
            **request.options,
        )
        if request.workload_id is not None:
            machine.workload_id = request.workload_id
        stats = machine.run(
            max_cycles=request.budget(50_000_000),
            fast_forward=self.fast_forward,
        )
        return RunResult.from_engine(self.name, machine, stats)


class ShardedBackend:
    """Multi-process sharded machine (:mod:`repro.machine.shard_runner`)."""

    name = "sharded"
    options = ()

    def execute(self, request: RunRequest) -> RunResult:
        from .machine.shard_config import ShardConfig
        from .machine.shard_runner import ShardedRunner

        runner = ShardedRunner(
            request.graph,
            request.inputs,
            config=request.config,
            fault_plan=request.faults,
            recovery=request.recovery,
            checkpoint=request.checkpoint,
            workload_id=request.workload_id,
            shard_config=ShardConfig.coerce(
                request.shard_config, shards=request.shards
            ),
        )
        stats = runner.run(max_cycles=request.budget(50_000_000))
        return RunResult.from_engine(self.name, runner, stats, runner.shards)


#: backend registry; :func:`run` resolves ``backend=`` names here
BACKENDS: dict[str, BackendProtocol] = {
    b.name: b
    for b in (
        SyncBackend(), EventBackend(), ShardedBackend(),
        EventBackend("compiled", fast_forward=True),
    )
}


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
    **options: Any,
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
        Step (``"sync"``) or cycle budget, a positive int; ``None``
        means the backend's default.  A run that has not quiesced
        within it raises :class:`~repro.errors.SimulationTimeout`.

    Other keyword ``options`` go to the backend; a name the backend
    does not declare (``BackendProtocol.options``) is an error.
    """
    try:
        engine = BACKENDS[backend]
    except KeyError:
        raise ReproError(
            f"unknown backend {backend!r}; choose from "
            f"{sorted(BACKENDS)}"
        ) from None
    unknown = sorted(set(options) - set(engine.options))
    if unknown:
        raise ReproError(
            f"backend {backend!r} does not accept option(s) "
            + ", ".join(map(repr, unknown))
            + f"; it accepts {sorted(engine.options)}"
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
    graph, streams = _normalize(program, inputs, params)
    request = RunRequest(
        graph=graph,
        inputs=streams,
        shards=shards,
        config=config,
        faults=faults,
        recovery=recovery,
        checkpoint=checkpoint,
        max_cycles=max_cycles,
        shard_config=shard_config,
        workload_id=workload_id,
        options=dict(options),
    )
    return engine.execute(request)


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
    recovery); its shard count is ignored -- the snapshot set fixes K.
    """
    from .checkpoint.directory import resume_point
    from .machine.machine import Machine
    from .machine.shard_runner import ShardedRunner

    point = resume_point(directory)
    if point.sharded:
        runner = ShardedRunner.resume(point, shard_config=shard_config)
        stats = runner.run(max_cycles=max_cycles)
        return RunResult.from_engine(
            "sharded", runner, stats, len(runner.machines)
        )
    if shard_config is not None:
        raise ReproError(
            "shard_config= applies only to sharded checkpoint "
            "directories"
        )
    machine = Machine.resume(point.path)
    stats = machine.run(max_cycles=max_cycles)
    return RunResult.from_engine("event", machine, stats)


"""The shard worker protocol: the commands one shard answers.

:class:`LocalShard` builds or loads its own
:class:`~repro.machine.sharded.ShardMachine` from a start command.  In
a worker process it is the request handler of a
:class:`repro.workers.Worker` forked by the coordinator
(:mod:`repro.machine.shard_runner`) with the graph and no machine; in
process it is the transport itself.  Either way a command is a plain
tuple and a reply is ``("ok", value)`` or ``("error", name, message,
cycle)``:

``("rebuild", spec, crash_at)``
    start a new run: build a pristine machine over the graph from the
    constructor arguments in ``spec`` (also in a reclaimed warm worker).
``("load", path, crash_at)``
    start a resumed run, or roll back: load a coordinated set's member.
``("start",)``
    start the machine (idempotent); reply its frontier
    ``(next event time, live events, earliest output time)``.
``("window", horizon, max_cycles, messages, fault)``
    inject the routed messages and run every event up to ``horizon``;
    reply the outbox of cut packets plus the new frontier.
``("snapshot", path, cycle, messages, fault, kind)``
    write this shard's member file of a coordinated set (machine plus
    channel state), then inject the messages; reply the file size.
``("finish",)``
    reply the machine's state without its graph and inputs; the
    process stays alive and may be parked in the warm pool.

``fault`` is a chaos directive for :func:`repro.workers.apply_fault`
(None almost always).  Paths arrive absolute: a pooled worker keeps
the working directory it was forked in.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Optional

from ..checkpoint.snapshot import _gc_paused
from ..errors import (
    EXIT_SHARD_CRASH,
    ChainBrokenError,
    DeadlockError,
    ManifestError,
    ReproError,
    SimulationError,
    SimulationTimeout,
    SnapshotError,
)
from ..graph.graph import DataflowGraph
from ..workers import apply_fault
from .sharded import ShardMachine, load_shard_machine, write_shard_snapshot

__all__ = ["LocalShard", "graph_key", "shard_error"]


def _maybe_crash(crash_at: Optional[int], horizon: int) -> None:
    if crash_at is not None and horizon >= crash_at:
        os._exit(EXIT_SHARD_CRASH)  # simulated SIGKILL: no cleanup at all


def shard_error(name: str, message: str, cycle: int) -> ReproError:
    """The typed error an ``("error", ...)`` reply stands for."""
    if name == "SimulationTimeout":
        return SimulationTimeout(message, cycles=cycle)
    if name == "DeadlockError":
        return DeadlockError(message, step=cycle)
    for cls in (SnapshotError, ChainBrokenError, ManifestError):
        if name == cls.__name__:    # a member file that cannot load
            return cls(message)
    return SimulationError(message)


def graph_key(graph: DataflowGraph) -> str:
    """Warm-pool key: content digest of the lowered graph.  Taken
    afresh by every run and never memoised on the object: a graph
    edited in place (a source's values, a constant, an initial token)
    must miss the workers that still hold what it used to be."""
    return hashlib.sha256(
        pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


class LocalShard:
    """One shard's command executor: the request handler of a worker
    process (:meth:`__call__`), or, through :meth:`post` / :meth:`wait`,
    the in-process transport used for K=1, for quick test sweeps and as
    the reference the worker processes must agree with."""

    def __init__(self, shard: int, graph: DataflowGraph) -> None:
        self.shard = shard
        self.graph = graph
        self.machine: Optional[ShardMachine] = None
        self.crash_at: Optional[int] = None
        self._reply: Any = None

    def __call__(self, cmd: tuple) -> tuple:
        """Worker-process entry: errors travel back as plain data
        (name, message, cycle) and are rebuilt by the coordinator."""
        try:
            return ("ok", self._execute(cmd))
        except ReproError as exc:
            cycle = getattr(exc, "cycle", getattr(self.machine, "now", -1))
            return ("error", type(exc).__name__, str(exc), cycle)

    def _execute(self, cmd: tuple) -> Any:
        op = cmd[0]
        machine = self.machine
        if op == "start":
            return machine.begin()
        if op == "window":
            _, horizon, max_cycles, messages, fault = cmd
            _maybe_crash(self.crash_at, horizon)
            apply_fault(fault)
            machine.inject(messages)
            return machine.run_window(horizon, max_cycles)
        if op == "snapshot":
            # a kill/hang fault here dies *before* the file lands: the
            # set stays uncommitted and recovery must fall back to the
            # previous complete set
            _, path, cycle, messages, fault, kind = cmd
            apply_fault(fault)
            size = write_shard_snapshot(machine, path, cycle, messages, kind)
            machine.inject(messages)
            return size
        if op == "load":
            _, path, self.crash_at = cmd
            self.machine = load_shard_machine(path)
            return self.machine.shard_index
        if op == "rebuild":
            # the coordinator validated the graph and checked the spec
            _, spec, self.crash_at = cmd
            spec = dict(spec)
            wid = spec.pop("workload_id")
            with _gc_paused():
                self.machine = ShardMachine(
                    self.graph, _graph_validated=True, **spec
                )
            self.machine.workload_id = wid
            return self.machine.shard_index
        if op == "finish":
            # the coordinator rebuilds the shard over its own graph and
            # inputs; the process stays alive and may be pooled
            state = machine.__getstate__()
            del state["graph"], state["inputs"]
            return state
        raise SimulationError(f"unknown worker op {op!r}")

    def post(self, cmd: tuple) -> None:
        if cmd[0] in ("window", "snapshot") and cmd[4] is not None:
            # the runner routes shard faults only to worker processes;
            # a kill/hang here would take the coordinator down with it
            raise SimulationError(     # pragma: no cover - coordinator bug
                "shard fault directive sent to an in-process shard"
            )
        self._reply = ("ok", self._execute(cmd))

    def wait(self, deadline: float) -> tuple:
        return self._reply

    def close(self) -> None:
        pass

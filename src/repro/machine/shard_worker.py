"""The shard worker protocol: the commands one shard answers.

:class:`LocalShard` executes them against its
:class:`~repro.machine.sharded.ShardMachine`.  In a worker process it is
the request handler of a :class:`repro.workers.Worker` forked by the
coordinator (:mod:`repro.machine.shard_runner`); in process it is the
transport itself.  Either way a command is a plain tuple and a reply is
``("ok", value)`` or ``("error", name, message, cycle)``:

``("start",)``
    start the machine (idempotent); reply its frontier
    ``(next event time, live events, earliest output time)``.
``("window", horizon, max_cycles, messages, fault)``
    inject the routed messages and run every event up to ``horizon``;
    reply the outbox of cut packets plus the new frontier.
``("snapshot", path, cycle, messages, fault, kind)``
    write this shard's member file of a coordinated set (machine plus
    channel state), then inject the messages; reply the file size.
``("load", path)``
    replace the machine by a member file (warm rollback).
``("rebuild", spec)``
    build a pristine machine over the retained graph for a new run
    (warm-pool reuse).
``("finish",)``
    reply the machine's mutable state; the process stays alive and may
    be parked in the warm pool.

``fault`` is a chaos directive for :func:`repro.workers.apply_fault`
(None almost always).  Paths arrive absolute: a pooled worker keeps
the working directory it was forked in.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, Optional

from ..errors import (
    EXIT_SHARD_CRASH,
    DeadlockError,
    ReproError,
    SimulationError,
    SimulationTimeout,
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

    def __init__(self, shard: int, machine: ShardMachine,
                 crash_at: Optional[int]) -> None:
        self.shard = shard
        self.machine = machine
        self.crash_at = crash_at
        self._reply: Any = None

    def __call__(self, cmd: tuple) -> tuple:
        """Worker-process entry: errors travel back as plain data
        (name, message, cycle) and are rebuilt by the coordinator."""
        try:
            return ("ok", self._execute(cmd))
        except ReproError as exc:
            cycle = getattr(exc, "cycle", self.machine.now)
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
            # warm rollback: survivors reload their shard of a
            # coordinated set in place, keeping the process
            self.machine = load_shard_machine(cmd[1])
            return self.machine.shard_index
        if op == "rebuild":
            # pool reclamation: reconstruct a pristine machine for a
            # new run over the retained (content-equal) graph;
            # deterministic __init__ makes it bit-identical to a
            # freshly forked copy (validated before the fork)
            spec = dict(cmd[1])
            self.crash_at = spec.pop("crash_at", None)
            wid = spec.pop("workload_id", None)
            self.machine = ShardMachine(
                machine.graph, _graph_validated=True, **spec
            )
            self.machine.workload_id = wid
            return self.machine.shard_index
        if op == "finish":
            # ship only the mutable state (the parent already holds
            # the static graph/config/inputs); the process stays
            # alive and may be pooled for reuse
            static = type(machine)._SNAP_STATIC_ATTRS
            return {
                k: v for k, v in machine.__dict__.items() if k not in static
            }
        raise SimulationError(f"unknown worker op {op!r}")

    def post(self, cmd: tuple) -> None:
        if cmd[0] in ("window", "snapshot") and cmd[4] is not None:
            # the runner routes shard faults only to worker processes;
            # a kill/hang here would take the coordinator down with it
            raise SimulationError(     # pragma: no cover - coordinator bug
                "shard fault directive sent to an in-process shard"
            )
        if cmd[0] == "finish":
            self._reply = ("ok", self.machine)
        else:
            self._reply = ("ok", self._execute(cmd))

    def wait(self, deadline: float) -> tuple:
        return self._reply

    def close(self) -> None:
        pass

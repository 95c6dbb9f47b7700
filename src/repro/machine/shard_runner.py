"""The sharded runner: K shard machines driven in conservative lockstep.

Each shard is a :class:`~repro.machine.sharded.ShardMachine` answering
the commands of :mod:`repro.machine.shard_worker`, in a forked
:class:`repro.workers.Worker` or in process; this module is the
coordinator (DESIGN.md sections 9 and 10).  Each endpoint builds or
loads its own machine from one start command (``rebuild`` / ``load``);
the coordinator keeps the graph and inputs, and rebuilds each shard
from the state its endpoint ships at ``finish``.

*Lockstep.*  A packet sent at cycle ``t`` arrives at ``t + L`` or
later, ``L = max(1, rn_delay)``.  At each barrier the coordinator takes
the global minimum next-event time ``T`` over all shard heaps and
in-flight messages, lets every shard run to a safe horizon, collects
the cut packets the window emitted and injects them at the next
barrier, sorted by ``(time, source shard, emission index)``.  No shard
hears from its past.  One window rule serves every config: the horizon
runs to just below the earliest cycle any shard could hear from
another (each shard's earliest output time, see
:meth:`ShardMachine.eot`, and pending arrivals ``+ L``), and is never
shorter than ``T + L - 1``.  The merged run computes the single-heap
run's values; its times are equal too when no unit serializes
same-cycle work, because each shard has private PEs, FUs and routing
(DESIGN.md section 9).

*One fan-out.*  Every per-shard command goes through
:meth:`ShardedRunner._fan_out`: post to all K workers, then collect the
replies in shard order, turning the first
:class:`~repro.workers.WorkerFailure` into :class:`ShardCrashError` /
:class:`ShardHangError`.  Cut packets travel only on that command pipe,
so a window costs one round trip per worker.  Workers outlive a run:
they park in the warm pool under the content digest of the graph, and
the next runner over an equal graph reclaims them with ``rebuild``.

*Coordinated snapshots.*  Between barriers nothing is in flight outside
the coordinator, so its routing buffer *is* the Chandy-Lamport channel
state of the cut.  Each worker writes its machine plus the messages due
to it (``ckpt-<cycle>.shard<k>.snap``), and the set is committed to the
manifest only after all K files land (:mod:`repro.checkpoint.
coordinator`); :meth:`ShardedRunner.resume` loads the newest complete
set.  A packet's fate comes from its arc's own stream, drawn by the
shard that owns the arc's producer (results) or consumer (acks), so
every shard draws the fates the single machine would wherever the
sharded times are exact.

*Self-healing.*  With worker processes and coordinated checkpoints,
every reply wait carries a deadline, a dead or hung worker rolls every
shard back to the latest complete set (the failed worker is forked
anew and reloads it with the survivors) and the windows replay
bit-identically.
:class:`RecoveryPolicy` sets the escalation: per-shard restart budgets
with seeded backoff, two-strike step-back, then
:class:`ShardRecoveryExhausted` (exit 137 at the CLI), which
``repro supervise`` restarts from.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional, Union

from ..analysis.partition import Partition, partition_graph
from ..checkpoint.directory import (
    ResumePoint,
    next_kind,
    resume_point,
    shard_snapshot_name,
)
from ..checkpoint.manager import CheckpointConfig
from ..checkpoint.snapshot import (
    _gc_paused,
    load_machine,
    snapshot_cycle,
    verify_chain,
)
from ..errors import (
    DeadlockError,
    ManifestError,
    ShardCrashError,
    SimulationError,
    SnapshotError,
)
from ..faults import FaultPlan
from ..graph.graph import DataflowGraph
from ..graph.lower import lower_fifos
from ..graph.opcodes import Op
from ..graph.validate import check_stream_inputs, validate
from ..workers import (
    STRIKES,
    Worker,
    WorkerFailure,
    park,
    pooled_worker_count,
    unpark,
)
from .config import MachineConfig
from .shard_config import RecoveryPolicy, ShardConfig
from .shard_worker import LocalShard, graph_key, shard_error
from .sharded import Message, ShardMachine
from .stats import MachineStats, RecoveryStats

__all__ = [
    "ShardCrashError",
    "ShardHangError",
    "ShardRecoveryExhausted",
    "ShardedRunner",
]

#: reply deadline (seconds) for workers of runners without a healing
#: policy -- generous, but the parent never blocks forever on a pipe
_DEFAULT_DEADLINE = 600.0

#: upper bound on cycles batched into one adaptive window
_MAX_WINDOW = 4096


class ShardHangError(ShardCrashError):
    """A live worker missed its reply deadline (hung, not dead)."""


class ShardRecoveryExhausted(ShardCrashError):
    """In-process recovery gave up: a shard blew through its restart
    budget (or stepped back past every usable coordinated set).  A
    subclass of :class:`ShardCrashError`, so the CLI still exits 137
    and ``repro supervise`` remains the outer loop of last resort."""


class ShardedRunner:
    """Drive K shard machines in conservative lockstep to completion."""

    def __init__(
        self,
        graph: DataflowGraph,
        inputs: Optional[dict[str, list[Any]]] = None,
        *,
        config: Optional[MachineConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        recovery: bool = True,
        checkpoint: Optional[CheckpointConfig] = None,
        partition: Optional[Partition] = None,
        workload_id: Optional[str] = None,
        shard_config: Union[None, ShardConfig, dict, str] = None,
    ) -> None:
        sc = ShardConfig.coerce(shard_config) or ShardConfig()
        shards = sc.shards
        config = config or MachineConfig()
        if graph.cells_by_op(Op.FIFO):
            # shards replicate the graph, so lower *once* here to keep
            # cell/arc ids identical everywhere
            graph = lower_fifos(graph)
        # a prebuilt Partition (tests inject one) beats the scheme name
        part = (
            partition if partition is not None
            else partition_graph(graph, shards, sc.partition)
        )
        spec = dict(
            n_shards=shards, owner=part.owner,
            # each shard runs headless: the coordinator owns global
            # progress (a per-shard watchdog would mistake "waiting for
            # a cross-shard token" for a stall)
            config=replace(config, watchdog=False),
            inputs={k: list(v) for k, v in (inputs or {}).items()},
            fault_plan=fault_plan, recovery=recovery,
            workload_id=workload_id,
        )
        ckpt = next_ckpt = None
        if checkpoint is not None:
            from ..checkpoint.coordinator import (
                CoordinatedCheckpointManager,
            )

            ckpt = CoordinatedCheckpointManager(checkpoint, shards)
            next_ckpt = checkpoint.interval or None
        self._setup(sc, graph, spec, part, ckpt, next_ckpt, [
            ("rebuild", dict(spec, shard_index=k)) for k in range(shards)
        ])
        # workers are forked only over a validated graph, so one parked
        # under this content digest proves the graph valid
        self._pool_key = graph_key(graph) if self._processes else None
        if not (self._pool_key and pooled_worker_count(self._pool_key)):
            validate(graph)
        ShardMachine.check_spec(graph, shards, part.owner, fault_plan,
                                recovery)
        check_stream_inputs(graph, spec["inputs"])

    def _setup(
        self,
        sc: ShardConfig,
        graph: DataflowGraph,
        spec: dict[str, Any],
        partition: Partition,
        ckpt,
        next_ckpt: Optional[int],
        starts: list[tuple],
        start_cycles: Optional[list[int]] = None,
    ) -> None:
        """Everything :meth:`__init__` and :meth:`resume` share: the
        runner's fields, the window rule and the healing policy."""
        self._graph = graph
        #: what the coordinator keeps of the shards' constructor
        #: arguments, and per shard its endpoint's start command
        self._spec = spec
        self._starts = starts
        #: the shards, rebuilt from their final state by :meth:`_finish`
        self.machines: list[ShardMachine] = []
        self.partition = partition
        self.shards = len(starts)
        self.workload_id = spec["workload_id"]
        #: per shard, the cycle it starts at (its member file's on resume)
        self.start_cycles = start_cycles or [0] * self.shards
        self._lookahead = max(1, spec["config"].rn_delay)
        self._processes = (
            self.shards > 1 if sc.processes is None else sc.processes
        )
        self._pool_key: Optional[str] = None
        self.worker_spawns = 0
        self.worker_reuses = 0
        #: lockstep windows driven so far (adaptive horizons shrink it)
        self.windows_run = 0
        #: whether every endpoint has built or loaded its shard: until
        #: then a SnapshotError is a member file that cannot load
        self.started = False
        self._ckpt = ckpt
        self._next_ckpt = next_ckpt
        self.worker_pids: list[Optional[int]] = []
        #: per shard, the barrier cycle of the last window/snapshot
        #: command its current endpoint was sent (failure context)
        self._last_cycle: list[int] = []
        self._finished = False
        self._init_heal(sc.recovery, spec["fault_plan"])

    def _init_heal(self, heal: Optional[RecoveryPolicy],
                   fault_plan: Optional[FaultPlan]) -> None:
        """Resolve the self-healing policy and arm the chaos faults.

        ``ShardConfig.recovery`` decides: with no policy, or one whose
        ``enabled`` is None, healing is on whenever the run has both
        real worker processes (something to respawn) and coordinated
        checkpoints (something to roll back to); ``enabled=True`` /
        ``False`` force it.  Healing without checkpoints is legal when
        forced -- recovery then restarts every shard from its start
        command.
        """
        heal = heal or RecoveryPolicy()
        enabled = heal.enabled
        if enabled is None:
            enabled = self._processes and self._ckpt is not None
        if not enabled:
            heal = None
        if heal is not None and not self._processes:
            raise SimulationError(
                "self-healing needs real worker processes "
                "(processes=True): an in-process shard cannot be "
                "respawned"
            )
        self._heal: Optional[RecoveryPolicy] = heal
        self._heal_rng = random.Random(heal.seed if heal else 0)
        self._recovery: Optional[RecoveryStats] = None
        #: per-shard respawn count (the restart budget's ledger)
        self._restarts: dict[int, int] = {}
        #: failures per resume point since the last committed set
        self._strikes: dict[int, int] = {}
        #: set cycles barred by two-strike step-back (in-memory only:
        #: replay legitimately re-commits these cycles, so an on-disk
        #: quarantine would poison its own recovery)
        self._barred: set[int] = set()
        self._barrier = 0
        self._start_cycle = max(self.start_cycles)
        faults = tuple(
            getattr(fault_plan, "shard_faults", ()) or ()
        ) if fault_plan is not None else ()
        for f in faults:
            if f.shard >= self.shards:
                raise SimulationError(
                    f"shard fault targets shard {f.shard} but the run "
                    f"has only {self.shards} shards"
                )
        if faults and not self._processes:
            raise SimulationError(
                "shard-level faults (kill/hang/slow) need real worker "
                "processes (processes=True); in-process shards share "
                "the coordinator's fate"
            )
        #: unfired chaos faults per shard, soonest first; firing is
        #: one-shot so post-rollback replay converges
        self._shard_faults: dict[int, list] = {}
        for f in sorted(faults, key=lambda f: (f.cycle, f.shard)):
            # on a resumed runner (start cycle > 0), faults at or
            # before the resume point already fired in the run that
            # wrote the snapshot
            if self._start_cycle == 0 or f.cycle > self._start_cycle:
                self._shard_faults.setdefault(f.shard, []).append(f)

    def _take_fault(self, shard: int, cycle: int) -> Optional[dict]:
        """Pop the due chaos directive for ``shard``, if any (see
        :func:`repro.workers.apply_fault`)."""
        queue = self._shard_faults.get(shard)
        if not queue or cycle < queue[0].cycle:
            return None
        fault = queue.pop(0)
        return {"kind": fault.kind, "delay": fault.delay}

    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        directory,
        *,
        shard_config: Union[None, ShardConfig, dict, str] = None,
    ) -> "ShardedRunner":
        """Load the newest *complete* coordinated snapshot set of
        ``directory`` (or the :class:`~repro.checkpoint.directory.
        ResumePoint` already found in one) and return a runner ready
        to continue bit-identically.  The set fixes the shard count: a
        ``shard_config`` that names another (a :class:`ShardConfig`
        always names one, a dict or JSON document only with a
        ``shards`` key) raises :class:`SimulationError`."""
        from ..checkpoint.coordinator import CoordinatedCheckpointManager

        point = (directory if isinstance(directory, ResumePoint)
                 else resume_point(directory))
        if not (point.sharded and point.files):
            raise SnapshotError(
                f"no complete coordinated snapshot set in "
                f"{point.directory}"
            )
        k = len(point.files)
        try:
            sc = ShardConfig.coerce(shard_config, k)
        except SimulationError:
            # only the count depends on k: a malformed config raises its
            # own error again here
            named = ShardConfig.coerce(shard_config).shards
            raise SimulationError(
                f"{point.directory} holds a {k}-shard snapshot set, and the "
                f"set fixes the shard count; the shard config's "
                f"shards={named} disagrees"
            ) from None
        # a damaged member is refused here; the workers load them
        paths = [point.directory.resolve() / name for name in point.files]
        chains = [verify_chain(path) for path in paths]
        # the static part is the same in every member and every link
        base = load_machine(chains[0][0], expected_cls=ShardMachine)
        spec = {key: getattr(base, key) for key in (
            "config", "inputs", "fault_plan", "workload_id")}
        manifest = point.manifest
        ckpt = CoordinatedCheckpointManager.attach(point.directory, manifest)
        interval = ckpt.config.interval
        self = cls.__new__(cls)
        scheme = str(manifest.get("partition_scheme", "resumed"))
        self._setup(
            sc, base.graph, spec,
            Partition(len(paths), scheme, base._owner, cut_arcs=()),
            ckpt, point.cycle + interval if interval else None,
            [("load", str(path)) for path in paths],
            [snapshot_cycle(path) for path in paths],
        )
        return self

    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: int = 50_000_000,
        crash_at: Optional[int] = None,
        crash_shard: int = 0,
    ) -> MachineStats:
        """Run the sharded simulation to quiescence.

        ``crash_at`` hard-kills shard ``crash_shard``'s worker
        (``os._exit(137)``) at the first barrier whose horizon reaches
        that cycle -- the sharded analogue of :meth:`Machine.run`'s
        SIGKILL stand-in.  With the in-process transport the whole
        process dies, exactly like the single-machine flag.  Because
        ``crash_at`` exists to *demonstrate* a crash escaping the run,
        it disables self-healing for this invocation; chaos faults in
        the plan (``ShardFault``) are the healed path.
        """
        if self._finished:
            raise SimulationError("this runner has already completed")
        if crash_at is not None and not 0 <= crash_shard < self.shards:
            raise SimulationError(
                f"crash_shard={crash_shard} names no shard of this "
                f"{self.shards}-shard run"
            )
        heal = self._heal if crash_at is None else None
        if heal is not None and self._recovery is None:
            self._recovery = RecoveryStats()
        if self._ckpt is not None:
            self._ckpt.on_start(self)
        #: the endpoints, replaced in place by recovery
        eps: list = []
        clean = False
        try:
            self._spawn(eps, crash_at, crash_shard)
            while True:
                try:
                    self._drive(eps, max_cycles, crash_at)
                    self.machines = self._finish(eps)
                    clean = True
                    break
                except ShardCrashError as exc:
                    if heal is None:
                        raise
                    self._recover(eps, exc, heal)
        finally:
            # clean workers park in the warm pool, the rest are closed
            for ep in eps:
                if clean and isinstance(ep, Worker):
                    park(ep)
                else:
                    ep.close()
        self._finished = True
        self._check_complete()
        if self._ckpt is not None:
            self._ckpt.on_complete(self)
        return self.stats()

    def _spawn(self, eps: list, crash_at: Optional[int],
               crash_shard: int) -> None:
        """Fill ``eps``, warm workers first, and start each endpoint."""
        self._last_cycle = [-1] * self.shards
        key = self._pool_key
        warm = [None if key is None else unpark(key)
                for _ in range(self.shards)]
        self.worker_pids = [w and w.pid for w in warm]
        eps[:] = [w or self._spawn_one(k, key) for k, w in enumerate(warm)]
        replaced = self._launch(eps, [
            start + (crash_at if k == crash_shard else None,)
            for k, start in enumerate(self._starts)
        ], key)
        self.worker_reuses += sum(
            1 for k, w in enumerate(warm) if w and k not in replaced
        )
        self.started = True

    def _spawn_one(self, shard: int, pool_key: Optional[str] = None):
        handler = LocalShard(shard, self._graph)
        if not self._processes:
            self.worker_pids[shard] = None
            return handler
        self._last_cycle[shard] = -1
        worker = Worker.fork(handler, name=f"repro-shard-{shard}",
                             key=pool_key)
        self.worker_spawns += 1
        self.worker_pids[shard] = worker.pid
        return worker

    def _launch(self, eps, cmds, key: Optional[str] = None) -> set:
        """Post every endpoint its start command; replace and return
        those whose worker died (e.g. killed while parked)."""
        dead: set = set()
        self._fan_out(eps, cmds, failed=dead)
        for k in sorted(dead):
            eps[k].close()
            eps[k] = self._spawn_one(k, key)
        self._fan_out(eps, [k in dead and cmd for k, cmd in enumerate(cmds)])
        return dead

    def _fan_out(self, eps, cmds, failed: Optional[set] = None) -> list:
        """Post ``cmds[k]`` to endpoint ``k`` (a falsy one skips it), then
        collect the replies in shard order, so all K workers run the
        command at once -- the one place a worker failure becomes a
        typed shard error.  The first failing reply in shard order
        raises, unless ``failed`` collects the shards whose workers
        died (their reply slots stay None)."""
        for ep, cmd in zip(eps, cmds):
            if cmd:
                ep.post(cmd)
        deadline = self._heal.deadline if self._heal else _DEFAULT_DEADLINE
        replies = [None] * len(cmds)
        for k, (ep, cmd) in enumerate(zip(eps, cmds)):
            if not cmd:
                continue
            try:
                reply = ep.wait(deadline)
            except WorkerFailure as failure:
                if failed is not None:
                    failed.add(k)
                    continue
                cycle = self._last_cycle[k]
                error = (ShardHangError if failure.kind == "hang"
                         else ShardCrashError)
                raise error(
                    f"shard {k} worker {failure.detail} near cycle {cycle}",
                    shard=k, exitcode=failure.exitcode, cycle=cycle,
                ) from None
            if reply[0] == "error":
                raise shard_error(*reply[1:])
            replies[k] = reply[1]
        return replies

    def _drive(self, eps, max_cycles: int,
               crash_at: Optional[int] = None) -> None:
        frontier = self._fan_out(eps, [("start",)] * len(eps))
        #: in-flight packets: (when, src shard, emission index, dst,
        #: kind, args) -- sorted injection keeps the run deterministic
        pending: list[tuple[int, int, int, int, str, tuple]] = []
        while True:
            times = [nt for nt, _live, _eot in frontier if nt is not None]
            times.extend(m[0] for m in pending)
            if not times:
                return          # global quiescence
            t_min = min(times)
            self._barrier = t_min
            # a packet injected this window lands at a boundary cell
            # (distance 0), so nothing it causes can cross the cut
            # before its arrival + L -- computed *before* the snapshot
            # block because the stale shard EOTs don't cover it
            msg_bound = min((m[0] for m in pending), default=None)
            if msg_bound is not None:
                msg_bound += self._lookahead
            by_dst: dict[int, list[Message]] = {}
            for when, _src, _idx, dst, kind, args in sorted(pending):
                by_dst.setdefault(dst, []).append((when, kind, args))
            pending = []
            if self._next_ckpt is not None and t_min >= self._next_ckpt:
                self._coordinated_snapshot(eps, t_min, by_dst)
                interval = self._ckpt.config.interval
                while self._next_ckpt <= t_min:
                    self._next_ckpt += interval
                by_dst = {}     # the snapshot op already injected them
            horizon = self._horizon(
                t_min, frontier, msg_bound, crash_at
            )
            self.windows_run += 1
            self._last_cycle = [horizon] * len(eps)
            frontier = []
            for k, (outbox, nt, live, eot) in enumerate(self._fan_out(eps, [
                ("window", horizon, max_cycles, by_dst.get(k, []),
                 self._take_fault(k, horizon))
                for k in range(len(eps))
            ])):
                for idx, (dst, when, kind, args) in enumerate(outbox):
                    pending.append((when, k, idx, dst, kind, args))
                frontier.append((nt, live, eot))

    def _horizon(self, t_min: int, frontier, msg_bound: Optional[int],
                 crash_at: Optional[int]) -> int:
        """Safe lockstep horizon for the window starting at ``t_min``:
        just below the earliest cycle any shard could hear from another
        (shard EOTs and pending-message bounds), capped so a
        coordinated set, a crash demonstration or a chaos fault lands
        on the first barrier at or after its cycle.  Every bound is
        ``>= t_min + L``, so the floor only guards degenerate cases."""
        h = t_min + _MAX_WINDOW - 1
        for _nt, _live, eot in frontier:
            if eot is not None:
                h = min(h, eot - 1)
        if msg_bound is not None:
            h = min(h, msg_bound - 1)
        if self._next_ckpt is not None:
            h = min(h, self._next_ckpt - 1)
        if crash_at is not None and t_min < crash_at:
            h = min(h, crash_at - 1)
        for queue in self._shard_faults.values():
            if queue and t_min < queue[0].cycle:
                h = min(h, queue[0].cycle - 1)
        return max(t_min, h)

    def _coordinated_snapshot(
        self, eps, cycle: int, by_dst: dict[int, list[Message]]
    ) -> None:
        """One Chandy-Lamport barrier: every worker records its state
        plus its incoming channel messages, then the set is committed
        atomically (all K files or nothing)."""
        # delta policy is the coordinator's call (workers self-chain
        # from their own previous member file): a delta set is only
        # requested while the previous set was written by these same
        # live workers -- any rollback, resume or respawn resets the
        # chain, so the next set is a full base
        started = time.perf_counter()
        kind = next_kind(self._ckpt.config, self._ckpt.tip_depth)
        names = [shard_snapshot_name(cycle, k) for k in range(len(eps))]
        directory = self._ckpt_directory()
        self._last_cycle = [cycle] * len(eps)
        sizes = self._fan_out(eps, [
            ("snapshot", str(directory / names[k]), cycle,
             by_dst.get(k, []), self._take_fault(k, cycle), kind)
            for k in range(len(eps))
        ])
        self._ckpt.commit(cycle, names, sizes, kind=kind, started=started)
        # a committed set is forward progress: clear strike counting,
        # mirroring the supervisor's progressed-past-resume-point rule
        self._strikes.clear()

    def _ckpt_directory(self) -> Path:
        """The checkpoint directory as an absolute path, resolved here
        in the coordinator: a warm worker keeps the working directory
        it was forked in, so a relative path would name another place
        on its side of the pipe."""
        return self._ckpt.directory.resolve()

    def _finish(self, eps) -> list[ShardMachine]:
        """Rebuild every shard from the state its endpoint ships, over
        the coordinator's graph and inputs; a worker keeps its machine
        and stays eligible for the warm pool."""
        machines = []
        with _gc_paused():
            for state in self._fan_out(eps, [("finish",)] * len(eps)):
                machines.append(ShardMachine.__new__(ShardMachine))
                machines[-1].__setstate__(dict(
                    state, graph=self._graph, inputs=self._spec["inputs"]
                ))
        return machines

    # ------------------------------------------------------------------
    # in-process self-healing
    # ------------------------------------------------------------------
    def _recover(self, eps: list, exc: ShardCrashError,
                 policy: RecoveryPolicy) -> None:
        """Roll every shard back to the latest usable coordinated set
        and respawn the failed worker, in place in :meth:`run`'s
        endpoint list, for replay.

        The rollback restores each shard's machine *and* the channel
        state of the cut, so the replayed lockstep windows re-derive
        exactly the packets of a clean run -- outputs and modeled sink
        times stay bit-identical.  Policy mirrors the supervisor one
        level down: per-shard restart budgets with exponential seeded
        backoff, and on two strikes inside the same replay window the
        resume set is barred and recovery steps back one set.
        """
        started = time.perf_counter()
        rec = self._recovery
        rec.detections += 1
        if isinstance(exc, ShardHangError):
            rec.hangs += 1
        else:
            rec.crashes += 1
        detect_cycle = exc.cycle if exc.cycle >= 0 else self._barrier
        failed = exc.shard
        self._charge_restart(failed, detect_cycle, policy, exc)
        delay = policy.backoff.delay(
            self._restarts.get(failed, 1), self._heal_rng
        )
        if delay:
            policy.sleep(delay)
        point = self._resume_point()
        key = point.cycle if point is not None else -1
        strikes = self._strikes.get(key, 0) + 1
        if strikes >= STRIKES and point is not None:
            # second failure replaying the same window: bar the set
            # (in memory -- replay will re-commit this cycle) and step
            # back one, like the supervisor's two-strike quarantine
            self._barred.add(key)
            self._strikes.pop(key, None)
            rec.step_backs += 1
            point = self._resume_point()
            key = point.cycle if point is not None else -1
            self._strikes[key] = 1
        else:
            self._strikes[key] = strikes
        rec.rollbacks += 1
        rec.rollback_cycles.append(key)
        self._restore(eps, point, {failed})
        base = point.cycle if point is not None else self._start_cycle
        rec.cycles_replayed += max(0, detect_cycle - base)
        if self._ckpt is not None:
            interval = self._ckpt.config.interval
            self._next_ckpt = base + interval if interval else None
            # rolled-back workers reloaded (or restarted) their state, so
            # their in-memory chain tips are gone -- force the next set
            # to be a full base
            self._ckpt.reset_chain()
        rec.latency.add(time.perf_counter() - started)

    def _charge_restart(self, shard: int, cycle: int,
                        policy: RecoveryPolicy,
                        exc: ShardCrashError) -> None:
        self._restarts[shard] = self._restarts.get(shard, 0) + 1
        if self._restarts[shard] <= policy.max_restarts:
            return
        raise ShardRecoveryExhausted(
            f"shard {shard} worker failed {self._restarts[shard]} "
            f"times (budget {policy.max_restarts}) near cycle "
            f"{cycle}; escalating to the supervisor",
            shard=shard,
            exitcode=exc.exitcode,
            cycle=cycle,
        ) from exc

    def _resume_point(self) -> Optional[ResumePoint]:
        """Latest complete coordinated set not barred by step-back, or
        None (= every shard restarts from its start command)."""
        if self._ckpt is None:
            return None
        try:
            point = resume_point(self._ckpt.directory, barred=self._barred)
        except ManifestError:
            return None
        return point if point.sharded and point.files else None

    def _restore(self, eps: list, point: Optional[ResumePoint],
                 failed: set) -> None:
        """Roll the endpoints back in place: failed ones are replaced,
        then survivors and replacements all reload their shard file in
        one round (a survivor that dies too is replaced as well).  With
        no committed set, every shard restarts from its start
        command."""
        rec = self._recovery
        if point is None:
            for ep in eps:
                ep.close()
            self._spawn(eps, None, 0)
            rec.respawns += len(failed)
            return
        directory = self._ckpt_directory()
        respawn = set(failed)
        for k in sorted(respawn):
            eps[k].close()
            eps[k] = self._spawn_one(k)
        respawn |= self._launch(eps, [
            ("load", str(directory / name), None) for name in point.files
        ])
        rec.respawns += len(respawn)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _check_complete(self) -> None:
        missing = undrained = 0
        for m in self.machines:
            mm, uu = m._pending_work()
            missing += mm
            undrained += uu
        if missing or undrained:
            finish = self.finish_cycle
            parts = [
                f"sharded machine quiescent at cycle {finish} with "
                f"{missing} expected outputs missing"
            ]
            if undrained:
                parts.append(f"{undrained} input tokens never consumed")
            raise DeadlockError(
                "; ".join(parts),
                step=finish,
                pending=missing + undrained,
            )

    @property
    def finish_cycle(self) -> int:
        return max((m._finish for m in self.machines), default=0)

    def outputs(self) -> dict[str, list[Any]]:
        out: dict[str, list[Any]] = {}
        for m in self.machines:
            out.update(m.outputs())
        return out

    def sink_arrival_times(self, stream: str) -> list[int]:
        for m in self.machines:
            for cid in m.sink_values:
                if m.graph.cells[cid].params["stream"] == stream:
                    return m.sink_times[cid]
        raise SimulationError(f"no sink for stream {stream!r}")

    def am_arrays(self) -> dict[str, list[Any]]:
        out: dict[str, list[Any]] = {}
        for m in self.machines:
            out.update(m.am_arrays)
        return out

    def stats(self) -> MachineStats:
        return MachineStats.of(
            self.machines,
            checkpoints=self._ckpt.stats if self._ckpt is not None else None,
            recovery=self._recovery,
        )

"""Command-line interface: compile, inspect, run and interpret Val
programs from the shell.

::

    python -m repro compile prog.val -p m=100 --describe --dot prog.dot
    python -m repro run prog.val -p m=100 --inputs inputs.json
    python -m repro run prog.val -p m=100 --backend sharded --shards 4
    python -m repro interpret prog.val -p m=100 --inputs inputs.json
    python -m repro simulate prog.dfasm --inputs inputs.json
    python -m repro faults fig6 --drop-result 0.05 --dup-result 0.05
    python -m repro checkpoint fig7 --dir ckpts --interval 5000
    python -m repro checkpoint fig7 --dir ckpts --backend sharded --shards 4
    python -m repro resume ckpts
    python -m repro replay ckpts
    python -m repro bisect ckpts --perturb-plan perturb.json
    python -m repro snapshot inspect ckpts/ckpt-000000005000.snap
    python -m repro supervise fig7 --dir ckpts --interval 5000

``run`` accepts ``--backend {sync,event,sharded,compiled}``;
``checkpoint``, ``resume`` and ``supervise`` accept
``--backend {sync,event,sharded}`` (plus ``--shards K`` for the
sharded backend); ``resume`` auto-detects whether a directory holds
single-machine snapshots or coordinated shard sets.  ``run``,
``checkpoint``, ``resume``, ``replay`` and ``bisect`` accept
``--json``, which prints one stable JSON envelope to stdout (see
README "JSON output"): ``{"schema": 1, "command": ..., "ok": ...,
"result": ...}``.

Sharded ``checkpoint``/``resume`` runs self-heal in process by
default: a worker that dies or hangs mid-run is detected within the
``--heal-deadline``, every shard rolls back to the latest complete
coordinated set, and only the failed worker is respawned
(``--no-self-heal`` restores the die-with-exit-137 behavior;
``--heal-max-restarts`` and ``--degrade`` tune the escalation).
Chaos faults (``kill_shard``/``hang_shard``/``slow_shard`` entries in
a ``--plan`` file) exercise exactly this path deterministically.

While single-machine ``checkpoint``/``resume``/``supervise`` children
run, SIGUSR1 takes an out-of-band ``live-<cycle>.snap`` snapshot
without stopping the simulation.

Inputs are a JSON object mapping array names to lists (or to
``[lo, [values...]]`` pairs for arrays with a nonzero lower bound).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Optional

from . import api
from .checkpoint import (
    EXIT_SNAPSHOT_UNLOADABLE,
    CheckpointConfig,
    Supervisor,
    SupervisorConfig,
    bisect_divergence,
    chain_status,
    fsck_directory,
    is_sharded_dir,
    latest_coordinated,
    read_metadata,
    read_shard_manifest,
    rebase_snapshot,
    replay_bundle,
)
from .compiler import compile_program
from .errors import (
    EXIT_DIVERGED,
    EXIT_RUN_FAILED,
    EXIT_SHARD_CRASH,
    DeadlockError,
    ReproError,
    SimulationTimeout,
    SnapshotError,
)
from .faults import FaultPlan
from .graph.asm import read_asm, to_asm
from .graph.dot import to_dot
from .machine import (
    Machine,
    RecoveryPolicy,
    ShardConfig,
    ShardCrashError,
    ShardedRunner,
)
from .val import parse_program, run_program
from .val.values import ValArray
from .workloads.figures import FIGURES, figure_workload

def _parse_params(items: list[str]) -> dict[str, int]:
    params: dict[str, int] = {}
    for item in items:
        key, _, value = item.partition("=")
        if not value:
            raise SystemExit(f"bad --param {item!r}; expected name=value")
        params[key] = int(value)
    return params


def _load_inputs(path: Optional[str]) -> dict[str, Any]:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    inputs: dict[str, Any] = {}
    for name, value in raw.items():
        if (
            isinstance(value, list)
            and len(value) == 2
            and isinstance(value[0], int)
            and isinstance(value[1], list)
        ):
            inputs[name] = (value[0], value[1])
        else:
            inputs[name] = value
    return inputs


def _emit_outputs(outputs: dict[str, Any]) -> None:
    rendered = {}
    for name, value in outputs.items():
        if isinstance(value, ValArray):
            rendered[name] = [value.lo, value.to_list()]
        else:
            rendered[name] = value
    json.dump(rendered, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _emit_envelope(command: str, ok: bool, result: dict[str, Any]) -> None:
    """The one ``--json`` shape every subcommand shares (see README):
    the ``result`` payload varies by command, the envelope does not."""
    json.dump(
        {
            "schema": api.RESULT_SCHEMA,
            "command": command,
            "ok": ok,
            "result": result,
        },
        sys.stdout,
        indent=2,
        default=repr,
    )
    sys.stdout.write("\n")


def _compile_opts(args: argparse.Namespace) -> dict[str, Any]:
    opts: dict[str, Any] = {
        "forall_scheme": args.forall_scheme,
        "foriter_scheme": args.foriter_scheme,
        "balance": args.balance,
        "controls": getattr(args, "controls", "patterns"),
    }
    if args.distance is not None:
        opts["distance"] = args.distance
    return opts


def cmd_compile(args: argparse.Namespace) -> int:
    source = open(args.program, "r", encoding="utf-8").read()
    cp = compile_program(
        source, params=_parse_params(args.param), **_compile_opts(args)
    )
    if args.describe or not (args.output or args.dot):
        print(cp.describe())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(to_asm(cp.graph))
        print(f"wrote {args.output}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(cp.graph))
        print(f"wrote {args.dot}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if not _shard_flags_fit(args):
        return 1
    source = open(args.program, "r", encoding="utf-8").read()
    cp = compile_program(
        source, params=_parse_params(args.param), **_compile_opts(args)
    )
    if args.backend == "sync" and not args.json:
        # historical stdout shape: ValArray outputs as [lo, [...]]
        result = cp.run(_load_inputs(args.inputs))
        _emit_outputs(result.outputs)
        if args.stats:
            for stream in result.outputs:
                print(
                    f"# {stream}: II = "
                    f"{result.initiation_interval(stream):.3f} "
                    f"instruction times/element",
                    file=sys.stderr,
                )
            print(
                f"# total: {result.stats.steps} instruction times, "
                f"{result.stats.total_firings} firings",
                file=sys.stderr,
            )
        return 0
    result = api.run(
        cp,
        _load_inputs(args.inputs),
        backend=args.backend,
        shard_config=(
            _shard_config_from_args(args)
            if args.backend == "sharded" else None
        ),
    )
    if args.json:
        _emit_envelope("run", True, result.to_json_dict())
        return 0
    _emit_outputs(result.outputs)
    if args.stats:
        for stream in result.outputs:
            print(
                f"# {stream}: II = "
                f"{result.initiation_interval(stream):.3f} "
                f"cycles/element",
                file=sys.stderr,
            )
        print(f"# total: {result.cycles} cycles", file=sys.stderr)
    return 0


def cmd_interpret(args: argparse.Namespace) -> int:
    source = open(args.program, "r", encoding="utf-8").read()
    outputs = run_program(
        parse_program(source),
        inputs=_load_inputs(args.inputs),
        params=_parse_params(args.param),
    )
    _emit_outputs(outputs)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    g = read_asm(args.graph)
    streams = {}
    for name, value in _load_inputs(args.inputs).items():
        # raw machine graphs take plain streams; drop any lower-bound
        # annotation from the JSON form
        streams[name] = list(value[1]) if isinstance(value, tuple) else value
    _emit_outputs(api.run(g, streams, backend="sync").outputs)
    return 0


def _build_fault_plan(args: argparse.Namespace) -> FaultPlan:
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = FaultPlan.from_json(fh.read())
        if args.seed is not None:
            plan = FaultPlan.from_dict({**plan.to_dict(), "seed": args.seed})
        return plan
    return FaultPlan(
        seed=args.seed if args.seed is not None else 0,
        drop_result=args.drop_result,
        dup_result=args.dup_result,
        corrupt_result=args.corrupt_result,
        drop_ack=args.drop_ack,
        dup_ack=args.dup_ack,
    )


def _optional_fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """A plan only when the user asked for one (flag or plan file)."""
    wants = args.plan or args.seed is not None or any(
        getattr(args, name)
        for name in ("drop_result", "dup_result", "corrupt_result",
                     "drop_ack", "dup_ack")
    )
    return _build_fault_plan(args) if wants else None


def cmd_faults(args: argparse.Namespace) -> int:
    workload = figure_workload(args.workload)
    program = workload.compile(m=args.size)
    inputs = workload.make_inputs(program, seed=args.input_seed)
    plan = _build_fault_plan(args)

    clean = api.run(program, inputs)
    print(
        f"# {args.workload}: fault-free run took {clean.cycles} cycles",
        file=sys.stderr,
    )
    print(f"# plan: {plan.describe()}", file=sys.stderr)
    try:
        faulty = api.run(
            program, inputs, faults=plan, recovery=not args.no_recovery
        )
    except DeadlockError as exc:
        print(f"stalled: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED
    out, stats = faulty.outputs, faulty.stats
    ok = out == clean.outputs
    print(f"# faulty run took {stats.cycles} cycles", file=sys.stderr)
    if stats.reliability is not None:
        print(f"# {stats.reliability.summary()}", file=sys.stderr)
    if stats.faults is not None:
        print(f"# {stats.faults.summary()}", file=sys.stderr)
    print(
        "# outputs match fault-free run"
        if ok
        else "# OUTPUTS DIVERGED from fault-free run",
        file=sys.stderr,
    )
    _emit_outputs(out)
    return 0 if ok else EXIT_DIVERGED


def _install_live_snapshot_handler(machine: Machine) -> None:
    """Wire SIGUSR1 to an out-of-band snapshot of the running machine.

    A supervising process (or an operator) can snapshot a live run
    without stopping it: the handler only queues a request, which the
    event loop drains at its next safe point.  No-op on platforms
    without SIGUSR1 or off the main thread.
    """
    if machine.ckpt is None or not hasattr(signal, "SIGUSR1"):
        return

    def handler(signum, frame):
        try:
            machine.request_snapshot("sigusr1")
        except SnapshotError:
            pass        # manager detached mid-run; nothing to write to

    try:
        signal.signal(signal.SIGUSR1, handler)
    except ValueError:  # not the main thread
        pass


def _finish_run(machine: Machine, max_cycles: int,
                crash_at: Optional[int] = None,
                command: Optional[str] = None) -> int:
    """Run ``machine`` to completion, reporting failure snapshots."""
    _install_live_snapshot_handler(machine)
    try:
        stats = machine.run(max_cycles=max_cycles, crash_at=crash_at)
    except (DeadlockError, SimulationTimeout) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        if exc.snapshot_path:
            print(f"# failure snapshot: {exc.snapshot_path}", file=sys.stderr)
        return EXIT_RUN_FAILED
    print(f"# completed at cycle {stats.cycles}", file=sys.stderr)
    if stats.checkpoints is not None:
        print(f"# {stats.checkpoints.summary()}", file=sys.stderr)
    if command is not None:
        _emit_envelope(
            command, True,
            api.RunResult.from_engine("event", machine, stats).to_json_dict(),
        )
    else:
        _emit_outputs(machine.outputs())
    return 0


def _finish_sharded(runner: ShardedRunner, max_cycles: int,
                    crash_at: Optional[int] = None,
                    crash_shard: int = 0,
                    command: Optional[str] = None) -> int:
    """Run a sharded runner to completion; a dead worker exits like a
    SIGKILLed process so the supervisor restarts-and-resumes it."""
    try:
        stats = runner.run(
            max_cycles=max_cycles, crash_at=crash_at,
            crash_shard=crash_shard,
        )
    except ShardCrashError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_SHARD_CRASH
    except (DeadlockError, SimulationTimeout) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILED
    print(f"# completed at cycle {stats.cycles}", file=sys.stderr)
    if stats.checkpoints is not None:
        print(f"# {stats.checkpoints.summary()}", file=sys.stderr)
    if stats.recovery is not None and stats.recovery.detections:
        print(f"# {stats.recovery.summary()}", file=sys.stderr)
    if command is not None:
        _emit_envelope(
            command, True,
            api.RunResult.from_engine(
                "sharded", runner, stats, len(runner.machines)
            ).to_json_dict(),
        )
    else:
        _emit_outputs(runner.outputs())
    return 0


def _shard_flags_fit(args: argparse.Namespace) -> bool:
    """Mirror the facade: shard flags on a non-sharded backend are a
    loud error, never a silent no-op."""
    if args.backend == "sharded":
        return True
    for flag in ("shard_config", "shards"):
        if getattr(args, flag, None) is not None:
            print(
                f"error: --{flag.replace('_', '-')} requires --backend "
                f"sharded (got --backend {args.backend})",
                file=sys.stderr,
            )
            return False
    return True


def _shard_config_from_args(args: argparse.Namespace) -> ShardConfig:
    """Build the :class:`ShardConfig` for a sharded CLI run: start
    from ``--shard-config`` JSON (when given; ``--shards`` must agree
    with a count named there), then let the heal flags override the
    recovery policy."""
    import dataclasses

    sc = ShardConfig.coerce(
        getattr(args, "shard_config", None) or {},
        shards=getattr(args, "shards", None),
    )
    # a tuned heal flag forces healing on, --no-self-heal forces it off
    heal: dict[str, Any] = {
        name: value
        for name, value in (
            ("deadline", getattr(args, "heal_deadline", None)),
            ("max_restarts", getattr(args, "heal_max_restarts", None)),
            ("degrade", getattr(args, "degrade", False) or None),
        )
        if value is not None
    }
    if getattr(args, "no_self_heal", False):
        heal = {"enabled": False}
    elif heal:
        heal["enabled"] = True
    if heal:
        sc = dataclasses.replace(
            sc,
            recovery=dataclasses.replace(
                sc.recovery or RecoveryPolicy(), **heal
            ),
        )
    return sc.validate()


def _keyed(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Sharded runs need per-packet (keyed) fault fates; upgrade a
    sequence-derivation plan transparently and say so."""
    if plan is None or plan.derivation == "keyed":
        return plan
    print(
        "# note: switching fault plan to derivation=keyed (required "
        "for sharded runs)",
        file=sys.stderr,
    )
    return FaultPlan.from_dict({**plan.to_dict(), "derivation": "keyed"})


def cmd_checkpoint(args: argparse.Namespace) -> int:
    if not _shard_flags_fit(args):
        return 1
    workload = figure_workload(args.workload)
    program = workload.compile(m=args.size)
    inputs = workload.make_inputs(program, seed=args.input_seed)
    plan = _optional_fault_plan(args)
    cfg = CheckpointConfig(
        args.dir,
        interval=args.interval,
        retain=args.retain,
        record=args.record,
        delta_every=args.delta_every,
        max_chain_depth=args.max_chain_depth,
    )
    workload_id = f"{args.workload}[m={args.size}]"
    command = "checkpoint" if args.json else None
    if args.backend == "sharded":
        plan = _keyed(plan)
        runner = ShardedRunner(
            program.graph, inputs, fault_plan=plan,
            checkpoint=cfg, workload_id=workload_id,
            shard_config=_shard_config_from_args(args),
        )
        if plan is not None:
            print(f"# plan: {plan.describe()}", file=sys.stderr)
        print(
            f"# checkpointing {args.workload} (m={args.size}, "
            f"{runner.shards} shards) to {args.dir} every "
            f"{args.interval} cycles",
            file=sys.stderr,
        )
        return _finish_sharded(
            runner, args.max_cycles, crash_at=args.crash_at,
            crash_shard=args.crash_shard, command=command,
        )
    machine = Machine(
        program.graph, inputs=inputs, fault_plan=plan, checkpoint=cfg
    )
    machine.workload_id = workload_id
    if plan is not None:
        print(f"# plan: {plan.describe()}", file=sys.stderr)
    print(
        f"# checkpointing {args.workload} (m={args.size}) to {args.dir} "
        f"every {args.interval} cycles",
        file=sys.stderr,
    )
    return _finish_run(
        machine, args.max_cycles, crash_at=args.crash_at, command=command
    )


def cmd_resume(args: argparse.Namespace) -> int:
    command = "resume" if args.json else None
    target = Path(args.snapshot)
    if target.is_dir() and is_sharded_dir(target):
        try:
            runner = ShardedRunner.resume(
                target, shard_config=_shard_config_from_args(args),
            )
        except SnapshotError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SNAPSHOT_UNLOADABLE
        print(
            f"# resumed {len(runner.machines)} shards at cycle "
            f"{runner.machines[0].now}",
            file=sys.stderr,
        )
        return _finish_sharded(
            runner, args.max_cycles, crash_at=args.crash_at,
            crash_shard=args.crash_shard, command=command,
        )
    if getattr(args, "shard_config", None):
        # the target resolved to a single-machine snapshot; shard
        # tuning cannot apply, so fail loudly like the facade does
        print(
            f"error: --shard-config given but {target} is not a "
            f"sharded checkpoint directory",
            file=sys.stderr,
        )
        return 1
    try:
        machine = Machine.resume(args.snapshot)
    except SnapshotError as exc:
        # dedicated exit code: only a snapshot that cannot even be
        # loaded may be quarantined by the supervisor; errors after a
        # clean load exit 1 like every other ReproError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SNAPSHOT_UNLOADABLE
    print(f"# resumed at cycle {machine.now}", file=sys.stderr)
    return _finish_run(
        machine, args.max_cycles, crash_at=args.crash_at, command=command
    )


def cmd_snapshot_inspect(args: argparse.Namespace) -> int:
    meta = read_metadata(args.file)
    meta["path"] = str(args.file)
    if meta.get("shard") is not None:
        # one member of a coordinated set: loadable only when all K
        # files of its cycle are committed in the directory manifest
        meta["coordinated"] = _coordinated_status(Path(args.file))
    if meta.get("kind") in ("base", "delta"):
        # chain verification is metadata/envelope reads only, so the
        # no-payload-deserialization guarantee of inspect still holds
        status = chain_status(Path(args.file))
        meta["chain_status"] = status["status"]
        if status["chain"] is not None:
            meta["chain"] = status["chain"]
        if status["error"]:
            meta["chain_error"] = status["error"]
    json.dump(meta, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if meta.get("kind") == "delta":
        status = meta["chain_status"]
        note = (
            f"resumable through its {len(meta['chain'])}-link chain"
            if status == "intact"
            else f"NOT resumable ({status} chain)"
        )
        print(
            f"# v3 delta at chain depth {meta.get('chain_depth', '?')}: "
            f"{note}",
            file=sys.stderr,
        )
    if meta.get("shard") is not None:
        status = meta["coordinated"]
        note = (
            "resumable (complete committed set)"
            if status == "complete"
            else f"NOT resumable alone ({status} set)"
        )
        print(
            f"# shard {meta['shard']}/{meta.get('shards', '?')} of a "
            f"coordinated snapshot set: {note}",
            file=sys.stderr,
        )
    return 0


def _coordinated_status(path: Path) -> str:
    """Whether ``path``'s coordinated set is actually resumable:
    ``complete`` (committed, all members on disk), ``partial`` (not
    committed -- e.g. a crash landed between shard writes) or
    ``incomplete`` (committed but members now missing)."""
    directory = path.parent
    try:
        manifest = read_shard_manifest(directory)
    except ReproError:
        return "partial"
    for entry in manifest.get("coordinated", []):
        if isinstance(entry, dict) and path.name in entry.get("files", []):
            if all(
                (directory / name).exists()
                for name in entry.get("files", [])
            ):
                return "complete"
            return "incomplete"
    return "partial"


def cmd_snapshot_fsck(args: argparse.Namespace) -> int:
    report = fsck_directory(args.directory)
    if args.json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for entry in report["files"]:
            bits = [entry.get("kind", "?")]
            if "cycle" in entry:
                bits.append(f"cycle {entry['cycle']}")
            if "chain_depth" in entry:
                bits.append(f"depth {entry['chain_depth']}")
            bits.append(entry["status"].upper()
                        if entry["status"] != "intact" else "ok")
            print(f"{entry['name']}: {', '.join(bits)}")
            if entry.get("error"):
                print(f"  {entry['error']}")
        for entry in report.get("sets", []):
            state = (entry["status"].upper()
                     if entry["status"] != "intact" else "ok")
            bits = [entry.get("kind", "full"),
                    f"{entry['files']} shard files"]
            if "chain_depth" in entry:
                bits.append(f"depth {entry['chain_depth']}")
            print(
                f"coordinated set @ cycle {entry['cycle']}: "
                f"{', '.join(bits)}, {state}"
            )
            if entry.get("error"):
                print(f"  {entry['error']}")
        for name in report["quarantined"]:
            print(f"{name}: quarantined")
    n_files = len(report["files"])
    n_sets = len(report.get("sets", []))
    verdict = "clean" if report["ok"] else (
        f"BROKEN ({len(report['problems'])} problem(s))"
    )
    print(
        f"# fsck {report['directory']}: {n_files} snapshot file(s)"
        + (f", {n_sets} coordinated set(s)" if n_sets else "")
        + f", {len(report['quarantined'])} quarantined: {verdict}",
        file=sys.stderr,
    )
    for problem in report["problems"]:
        print(f"#   {problem}", file=sys.stderr)
    return 0 if report["ok"] else 1


def cmd_snapshot_rebase(args: argparse.Namespace) -> int:
    new_path = rebase_snapshot(args.file)
    print(f"# rebased {args.file} -> {new_path}", file=sys.stderr)
    print(str(new_path))
    return 0


def cmd_supervise(args: argparse.Namespace) -> int:
    start_argv = [
        sys.executable, "-m", "repro", "checkpoint", args.workload,
        "--size", str(args.size), "--input-seed", str(args.input_seed),
        "--dir", args.dir, "--interval", str(args.interval),
        "--retain", str(args.retain), "--max-cycles", str(args.max_cycles),
    ]
    if args.delta_every:
        start_argv += ["--delta-every", str(args.delta_every),
                       "--max-chain-depth", str(args.max_chain_depth)]
    if args.backend != "event":
        start_argv += ["--backend", args.backend,
                       "--shards", str(args.shards)]
    if args.record:
        start_argv.append("--record")
    if args.plan:
        start_argv += ["--plan", args.plan]
    if args.seed is not None:
        start_argv += ["--seed", str(args.seed)]
    for flag in ("drop_result", "dup_result", "corrupt_result",
                 "drop_ack", "dup_ack"):
        value = getattr(args, flag)
        if value:
            start_argv += [f"--{flag.replace('_', '-')}", str(value)]

    def resume_argv(directory: Path) -> list[str]:
        return [
            sys.executable, "-m", "repro", "resume", str(directory),
            "--max-cycles", str(args.max_cycles),
        ]

    extra = [
        ["--crash-at", cycle]
        for cycle in (args.inject_crash.split(",") if args.inject_crash
                      else [])
    ]
    supervisor = Supervisor(
        start_argv,
        SupervisorConfig(
            args.dir,
            max_restarts=args.max_restarts,
            backoff_base=args.backoff_base,
            backoff_factor=args.backoff_factor,
            backoff_max=args.backoff_max,
            jitter=args.backoff_jitter,
            seed=args.backoff_seed,
        ),
        resume_argv=resume_argv,
        extra_args=extra,
    )
    report = supervisor.run()
    print(f"# {report.summary()}", file=sys.stderr)
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"# wrote {args.report_json}", file=sys.stderr)
    if report.completed:
        # republish the successful child's stdout and stderr
        # byte-for-byte, so `repro supervise ... > out.json 2> log`
        # matches an uninterrupted run on both streams
        if report.stderr:
            sys.stderr.buffer.write(report.stderr)
            sys.stderr.buffer.flush()
        sys.stdout.buffer.write(report.stdout or b"")
        sys.stdout.buffer.flush()
        return 0
    return EXIT_RUN_FAILED


def cmd_replay(args: argparse.Namespace) -> int:
    report = replay_bundle(
        args.bundle, max_cycles=args.max_cycles, bisect=args.bisect
    )
    if args.json:
        from dataclasses import asdict

        _emit_envelope("replay", report.reproduced, asdict(report))
    else:
        print(report.summary())
    return 0 if report.reproduced else EXIT_DIVERGED


def _load_perturb_plan(path: Optional[str]) -> Optional[FaultPlan]:
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return FaultPlan.from_json(fh.read())


def cmd_bisect(args: argparse.Namespace) -> int:
    report = bisect_divergence(
        args.bundle,
        perturb=_load_perturb_plan(args.perturb_plan),
        max_cycles=args.max_cycles,
    )
    if args.json == "-":
        # bare --json: the shared stdout envelope
        _emit_envelope("bisect", not report.diverged, report.to_dict())
        return EXIT_DIVERGED if report.diverged else 0
    print(report.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, default=repr)
            fh.write("\n")
        print(f"# wrote {args.json}", file=sys.stderr)
    return EXIT_DIVERGED if report.diverged else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, run_server

    if args.supervised:
        if not args.dir:
            print("error: --supervised needs --dir (the journal is "
                  "what makes restarts lossless)", file=sys.stderr)
            return 1
        start_argv = [
            sys.executable, "-m", "repro", "serve",
            "--capacity", str(args.capacity),
            "--workers", str(args.workers),
            "--default-deadline", str(args.default_deadline),
            "--max-retries", str(args.max_retries),
            "--hang-deadline", str(args.hang_deadline),
            "--min-batch", str(args.min_batch),
            "--max-batch", str(args.max_batch),
            "--batch-wait", str(args.batch_wait),
            "--seed", str(args.seed),
            "--dir", args.dir,
        ]
        if args.socket:
            start_argv += ["--socket", args.socket]
        if args.port:
            start_argv += ["--port", str(args.port),
                           "--host", args.host]
        extra = []
        if args.crash_after_accepts is not None:
            # the hook applies to the first incarnation only: the
            # whole point is proving the restarted daemon recovers
            extra = [["--crash-after-accepts",
                      str(args.crash_after_accepts)]]
        supervisor = Supervisor(
            start_argv,
            SupervisorConfig(args.dir, max_restarts=args.max_restarts),
            # a serve directory holds a journal, not snapshots: a
            # restart is always a cold start that replays the journal
            resume_argv=lambda directory: list(start_argv),
            extra_args=extra,
        )
        report = supervisor.run()
        print(f"# {report.summary()}", file=sys.stderr)
        if report.completed:
            if report.stderr:
                sys.stderr.buffer.write(report.stderr)
                sys.stderr.buffer.flush()
            sys.stdout.buffer.write(report.stdout or b"")
            sys.stdout.buffer.flush()
            return 0
        return EXIT_RUN_FAILED

    import asyncio

    config = ServeConfig(
        socket=args.socket,
        host=args.host,
        port=args.port,
        directory=args.dir,
        capacity=args.capacity,
        workers=args.workers,
        default_deadline=args.default_deadline,
        max_retries=args.max_retries,
        hang_deadline=args.hang_deadline,
        min_batch=args.min_batch,
        max_batch=args.max_batch,
        batch_wait=args.batch_wait,
        seed=args.seed,
        crash_after_accepts=args.crash_after_accepts,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .client import connect
    from .serve import ServeError, envelope

    client = connect(args.connect, timeout=args.timeout)
    with client:
        if args.op != "submit":
            result = getattr(client, args.op)()
            _emit_envelope(args.op, True, result)
            return 0

        jobs: list[dict[str, Any]] = []
        if args.jobs:
            with open(args.jobs, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            jobs = loaded if isinstance(loaded, list) else [loaded]
        elif args.source:
            with open(args.source, "r", encoding="utf-8") as fh:
                source = fh.read()
            inputs: dict[str, list] = {}
            if args.inputs:
                with open(args.inputs, "r", encoding="utf-8") as fh:
                    inputs = json.load(fh)
            job: dict[str, Any] = {
                "id": args.job_id or f"cli-{os.getpid()}",
                "source": source,
                "kind": args.kind,
                "tenant": args.tenant,
                "params": _parse_params(args.param),
                "inputs": inputs,
            }
            if args.deadline is not None:
                job["deadline"] = args.deadline
            jobs = [job]
        else:
            print("error: submit needs --jobs FILE or --source FILE",
                  file=sys.stderr)
            return 1

        # submit everything first (so compatible jobs can batch), then
        # collect results in order
        accepted: list[str] = []
        failed = 0
        for job in jobs:
            try:
                result = client.request("submit", job=job)
                accepted.append(result["id"])
                if args.no_wait:
                    print(json.dumps(envelope("submit", True, result)))
            except ServeError as exc:
                failed += 1
                print(json.dumps(envelope(
                    "submit", False, {"error": exc.to_dict()}
                )))
        if not args.no_wait:
            for job_id in accepted:
                try:
                    record = client.wait(job_id)
                    print(json.dumps(envelope("wait", True, record)))
                except ServeError as exc:
                    failed += 1
                    print(json.dumps(envelope(
                        "wait", False, {"error": exc.to_dict()}
                    )))
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Val-to-static-dataflow compiler and simulators "
        "(Dennis & Gao, ICPP 1983)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, compiled: bool = True) -> None:
        p.add_argument("program", help="Val source file")
        p.add_argument(
            "-p", "--param", action="append", default=[],
            metavar="NAME=INT",
            help="compile-time constant (repeatable), e.g. -p m=100",
        )
        if compiled:
            p.add_argument(
                "--forall-scheme", default="pipeline",
                choices=["pipeline", "parallel"],
            )
            p.add_argument(
                "--foriter-scheme", default="auto",
                choices=["auto", "companion", "todd"],
            )
            p.add_argument(
                "--balance", default="optimal",
                choices=["optimal", "reduce", "naive", "none"],
            )
            p.add_argument(
                "--controls", default="patterns",
                choices=["patterns", "dataflow"],
                help="emit control sequences as pattern tables or as "
                "Todd-style counter subgraphs",
            )
            p.add_argument(
                "--distance", type=int, default=None,
                help="companion dependence distance (G-tree size)",
            )

    p = sub.add_parser("compile", help="compile and dump machine code")
    common(p)
    p.add_argument("-o", "--output", help="write dfasm machine code here")
    p.add_argument("--dot", help="write a Graphviz rendering here")
    p.add_argument("--describe", action="store_true",
                   help="print the compilation report")
    p.set_defaults(fn=cmd_compile)

    def shard_config_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--shard-config", metavar="JSON",
                       help="sharded-backend configuration as a JSON "
                       "object (ShardConfig schema: shards, partition, "
                       "processes, recovery); the heal flags override "
                       "its recovery policy, --shards must agree with "
                       "its count")

    p = sub.add_parser("run", help="compile and run on one of the "
                       "backends (unit-delay simulator by default)")
    common(p)
    p.add_argument("--inputs", help="JSON file of input arrays")
    p.add_argument("--stats", action="store_true",
                   help="print throughput statistics to stderr")
    p.add_argument("--backend", default="sync",
                   choices=["sync", "event", "sharded", "compiled"],
                   help="execution backend: unit-delay simulator "
                   "(default), event-driven machine, K machine "
                   "shards in separate processes, or the compiled "
                   "steady-state machine (bit-identical to event, "
                   "fast-forwards periodic steady state)")
    p.add_argument("--shards", type=int, default=None, metavar="K",
                   help="worker count for --backend sharded (default 2)")
    shard_config_arg(p)
    p.add_argument("--json", action="store_true",
                   help="print the stable JSON result envelope to "
                   "stdout instead of the outputs object")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("interpret", help="run the reference Val interpreter")
    common(p, compiled=False)
    p.add_argument("--inputs", help="JSON file of input arrays")
    p.set_defaults(fn=cmd_interpret)

    p = sub.add_parser("simulate", help="simulate a dfasm machine-code file")
    p.add_argument("graph", help="dfasm file")
    p.add_argument("--inputs", help="JSON file of input arrays")
    p.set_defaults(fn=cmd_simulate)

    def workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("workload", choices=sorted(FIGURES),
                       help="paper figure to run")
        p.add_argument("--size", type=int, default=16, metavar="M",
                       help="array-size parameter m (default 16)")
        p.add_argument("--input-seed", type=int, default=0,
                       help="seed for the generated input streams")

    def fault_args(p: argparse.ArgumentParser,
                   drop: float = 0.0, dup: float = 0.0) -> None:
        p.add_argument("--plan", help="JSON fault-plan file (see DESIGN.md "
                       "for the schema); overrides the probability flags")
        p.add_argument("--seed", type=int, default=None,
                       help="fault-injection seed (overrides the plan "
                       "file's)")
        p.add_argument("--drop-result", type=float, default=drop,
                       metavar="P", help="result-packet drop probability")
        p.add_argument("--dup-result", type=float, default=dup,
                       metavar="P",
                       help="result-packet duplication probability")
        p.add_argument("--corrupt-result", type=float, default=0.0,
                       metavar="P",
                       help="result-packet corruption probability")
        p.add_argument("--drop-ack", type=float, default=0.0,
                       metavar="P", help="acknowledge-packet drop "
                       "probability")
        p.add_argument("--dup-ack", type=float, default=0.0,
                       metavar="P", help="acknowledge duplication "
                       "probability")

    p = sub.add_parser(
        "faults",
        help="run a paper-figure workload under an injected fault plan "
        "and report what the reliability layer recovered",
    )
    workload_args(p)
    fault_args(p, drop=0.05, dup=0.05)
    p.add_argument("--no-recovery", action="store_true",
                   help="inject faults with the reliability layer off "
                   "(expect a diagnosed stall)")
    p.set_defaults(fn=cmd_faults)

    def heal_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--no-self-heal", action="store_true",
                       help="disable in-process worker recovery on the "
                       "sharded backend (a dead worker then exits 137 "
                       "for `repro supervise` to handle)")
        p.add_argument("--heal-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-command worker reply deadline before a "
                       "live worker counts as hung (default 60)")
        p.add_argument("--heal-max-restarts", type=int, default=None,
                       metavar="N",
                       help="per-shard respawn budget before recovery "
                       "gives up (default 3)")
        p.add_argument("--degrade", action="store_true",
                       help="after a shard exhausts its restart budget, "
                       "fold it into the coordinator and continue with "
                       "K-1 workers instead of failing")

    p = sub.add_parser(
        "checkpoint",
        help="run a paper-figure workload with periodic crash-consistent "
        "snapshots (resume later with `repro resume`)",
    )
    workload_args(p)
    fault_args(p)
    p.add_argument("--dir", required=True,
                   help="snapshot directory (created if missing)")
    p.add_argument("--interval", type=int, default=10_000, metavar="N",
                   help="cycles between snapshots (default 10000)")
    p.add_argument("--retain", type=int, default=3, metavar="K",
                   help="periodic snapshots to keep, 0 = all (default 3)")
    p.add_argument("--delta-every", type=int, default=0, metavar="N",
                   help="write incremental v3 delta snapshots with a full "
                   "base every N-th periodic snapshot; 0 (default) writes "
                   "classic standalone snapshots only")
    p.add_argument("--max-chain-depth", type=int, default=64, metavar="D",
                   help="hard ceiling on delta chain length before a "
                   "forced rebase to a full base (default 64)")
    p.add_argument("--record", action="store_true",
                   help="also record a replay bundle (initial snapshot + "
                   "event-trace manifest) for `repro replay`; "
                   "single-machine backend only")
    p.add_argument("--backend", default="event",
                   choices=["event", "sharded"],
                   help="single event-driven machine (default) or K "
                   "shards with coordinated Chandy-Lamport snapshots")
    p.add_argument("--shards", type=int, default=None, metavar="K",
                   help="worker count for --backend sharded (default 2)")
    p.add_argument("--max-cycles", type=int, default=50_000_000)
    p.add_argument("--crash-at", type=int, default=None, metavar="CYCLE",
                   help="hard-kill the process (exit 137, as SIGKILL "
                   "would) once simulated time reaches CYCLE; used to "
                   "exercise crash recovery")
    p.add_argument("--crash-shard", type=int, default=0, metavar="K",
                   help="which worker --crash-at kills on the sharded "
                   "backend (default 0)")
    heal_args(p)
    shard_config_arg(p)
    p.add_argument("--json", action="store_true",
                   help="print the stable JSON result envelope to "
                   "stdout instead of the outputs object")
    p.set_defaults(fn=cmd_checkpoint)

    p = sub.add_parser(
        "resume",
        help="resume a checkpointed run from a snapshot file or from the "
        "newest snapshot in a directory",
    )
    p.add_argument("snapshot", help="snapshot file or checkpoint directory "
                   "(single-machine or sharded; auto-detected)")
    p.add_argument("--max-cycles", type=int, default=50_000_000)
    p.add_argument("--crash-at", type=int, default=None, metavar="CYCLE",
                   help="hard-kill the process (exit 137) once simulated "
                   "time reaches CYCLE; used to exercise crash recovery")
    p.add_argument("--crash-shard", type=int, default=0, metavar="K",
                   help="which worker --crash-at kills when resuming a "
                   "sharded directory (default 0)")
    heal_args(p)
    shard_config_arg(p)
    p.add_argument("--json", action="store_true",
                   help="print the stable JSON result envelope to "
                   "stdout instead of the outputs object")
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser(
        "snapshot",
        help="inspect, check or rebase snapshot files without running "
        "anything",
    )
    snap_sub = p.add_subparsers(dest="snapshot_command", required=True)
    sp = snap_sub.add_parser(
        "inspect",
        help="print a snapshot's self-describing metadata (format, "
        "cycle, reason, workload, checksum status) without "
        "deserializing any machine state",
    )
    sp.add_argument("file", help="snapshot file")
    sp.set_defaults(fn=cmd_snapshot_inspect)
    sp = snap_sub.add_parser(
        "fsck",
        help="walk every snapshot chain (and coordinated set) in a "
        "checkpoint directory, report orphans/damage/depth, and exit "
        "non-zero if any resume point is unresumable; no payload is "
        "ever deserialized",
    )
    sp.add_argument("directory", help="checkpoint directory")
    sp.add_argument("--json", action="store_true",
                    help="print the full machine-readable report")
    sp.set_defaults(fn=cmd_snapshot_fsck)
    sp = snap_sub.add_parser(
        "rebase",
        help="collapse a delta chain tip into a standalone full base "
        "snapshot (verifies the whole chain first; refuses mid-chain "
        "links)",
    )
    sp.add_argument("file", help="*.delta.snap chain tip")
    sp.set_defaults(fn=cmd_snapshot_rebase)

    p = sub.add_parser(
        "supervise",
        help="run a checkpointed workload under a crash-supervision "
        "loop: resume on crash with exponential backoff, quarantine "
        "poisoned snapshots, stop at a restart budget",
    )
    workload_args(p)
    fault_args(p)
    p.add_argument("--backend", default="event",
                   choices=["event", "sharded"],
                   help="backend the supervised checkpoint child uses")
    p.add_argument("--shards", type=int, default=2, metavar="K",
                   help="worker count for --backend sharded (default 2)")
    p.add_argument("--dir", required=True,
                   help="snapshot directory (created if missing; if it "
                   "already holds snapshots the first attempt resumes)")
    p.add_argument("--interval", type=int, default=10_000, metavar="N",
                   help="cycles between snapshots (default 10000)")
    p.add_argument("--retain", type=int, default=3, metavar="K",
                   help="periodic snapshots to keep, 0 = all (default 3)")
    p.add_argument("--delta-every", type=int, default=0, metavar="N",
                   help="supervised child writes incremental v3 delta "
                   "snapshots with a full base every N-th periodic "
                   "snapshot (0 = classic full snapshots)")
    p.add_argument("--max-chain-depth", type=int, default=64, metavar="D",
                   help="hard ceiling on delta chain length before a "
                   "forced rebase (default 64)")
    p.add_argument("--record", action="store_true",
                   help="record a replay bundle on the initial start")
    p.add_argument("--max-cycles", type=int, default=50_000_000)
    p.add_argument("--max-restarts", type=int, default=8, metavar="N",
                   help="restart budget after the free initial start "
                   "(default 8)")
    p.add_argument("--backoff-base", type=float, default=0.5,
                   metavar="SECONDS")
    p.add_argument("--backoff-factor", type=float, default=2.0)
    p.add_argument("--backoff-max", type=float, default=30.0,
                   metavar="SECONDS")
    p.add_argument("--backoff-jitter", type=float, default=0.1,
                   metavar="FRAC",
                   help="fractional jitter on each backoff (default 0.1)")
    p.add_argument("--backoff-seed", type=int, default=0,
                   help="seed for the jitter RNG (restart schedule is "
                   "reproducible)")
    p.add_argument("--inject-crash", metavar="CYCLE[,CYCLE...]",
                   help="test hook: pass --crash-at CYCLE to successive "
                   "child attempts (one cycle per attempt), simulating "
                   "SIGKILL mid-run")
    p.add_argument("--report-json", metavar="OUT",
                   help="also write the SupervisorReport as JSON here")
    p.set_defaults(fn=cmd_supervise)

    p = sub.add_parser(
        "replay",
        help="re-execute a recorded bundle and verify the run is "
        "reproduced bit-identically",
    )
    p.add_argument("bundle", help="directory written by "
                   "`repro checkpoint --record`")
    p.add_argument("--max-cycles", type=int, default=50_000_000)
    p.add_argument("--bisect", action="store_true",
                   help="on divergence, binary-search the digest ledger "
                   "for the first divergent checkpoint window")
    p.add_argument("--json", action="store_true",
                   help="print the stable JSON result envelope to "
                   "stdout instead of the summary line")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser(
        "bisect",
        help="binary-search a recorded bundle's digest ledger for the "
        "first checkpoint window where a replay diverges",
    )
    p.add_argument("bundle", help="directory written by "
                   "`repro checkpoint --record`")
    p.add_argument("--perturb-plan", metavar="FILE",
                   help="JSON fault plan installed on the replay side "
                   "only, to ask where that fault would first change "
                   "the recorded run")
    p.add_argument("--json", nargs="?", const="-", metavar="OUT",
                   help="bare --json prints the stable JSON result "
                   "envelope to stdout; --json OUT writes the raw "
                   "DivergenceReport to OUT instead")
    p.add_argument("--max-cycles", type=int, default=50_000_000)
    p.set_defaults(fn=cmd_bisect)

    p = sub.add_parser(
        "serve",
        help="run the long-lived multi-tenant pipeline service "
        "(admission control, interleaved batching, supervised worker "
        "pool, hot restart); see DESIGN.md section 11",
    )
    p.add_argument("--socket", metavar="PATH",
                   help="unix socket to listen on")
    p.add_argument("--port", type=int, help="TCP port to listen on")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--dir", metavar="DIR",
                   help="journal + hot-restart state directory "
                   "(enables exactly-once re-admission after a crash)")
    p.add_argument("--capacity", type=int, default=256,
                   help="admission queue bound; beyond it submits are "
                   "shed with a typed overload error (default 256)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker pool size (default 2)")
    p.add_argument("--default-deadline", type=float, default=30.0,
                   help="per-job deadline in seconds when the job "
                   "does not set one (default 30)")
    p.add_argument("--max-retries", type=int, default=2,
                   help="attempts lost to worker failure before a job "
                   "fails typed (default 2)")
    p.add_argument("--hang-deadline", type=float, default=10.0,
                   help="seconds of worker silence that count as a "
                   "hang (default 10)")
    p.add_argument("--min-batch", type=int, default=2)
    p.add_argument("--max-batch", type=int, default=8,
                   help="interleaved batch bounds (default 2..8); "
                   "--max-batch 1 disables batching entirely")
    p.add_argument("--batch-wait", type=float, default=0.02,
                   help="seconds a lone batchable job lingers for "
                   "companions (default 0.02)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for retry-backoff jitter and stats "
                   "reservoirs")
    p.add_argument("--supervised", action="store_true",
                   help="wrap the daemon in the repro supervise crash "
                   "loop (requires --dir); a killed daemon restarts "
                   "and re-admits journaled jobs")
    p.add_argument("--max-restarts", type=int, default=8,
                   help="restart budget under --supervised")
    p.add_argument("--crash-after-accepts", type=int,
                   help=argparse.SUPPRESS)  # hot-restart test hook
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit jobs to a running repro serve daemon and print "
        "one JSON envelope per job",
    )
    p.add_argument("--connect", required=True, metavar="ADDR",
                   help="daemon address: unix:/path, /path, host:port "
                   "or :port")
    p.add_argument("--op", default="submit",
                   choices=["submit", "healthz", "stats", "shutdown"],
                   help="operation (default: submit jobs)")
    p.add_argument("--jobs", metavar="FILE",
                   help="JSON file with one job object or a list of "
                   "job objects ({id, source, inputs, ...})")
    p.add_argument("--source", metavar="FILE",
                   help="Val source file for a single ad-hoc job")
    p.add_argument("-p", "--param", action="append", default=[],
                   metavar="NAME=INT", help="program size parameter")
    p.add_argument("--inputs", metavar="FILE",
                   help="JSON inputs for the ad-hoc job")
    p.add_argument("--kind", default="foriter",
                   choices=["foriter", "run"])
    p.add_argument("--tenant", default="default")
    p.add_argument("--deadline", type=float)
    p.add_argument("--id", dest="job_id",
                   help="job id (default: random)")
    p.add_argument("--no-wait", action="store_true",
                   help="submit only; do not wait for results")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="client socket timeout (default 120s)")
    p.set_defaults(fn=cmd_submit)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""The checkpointing subcommands: ``checkpoint``, ``resume``,
``snapshot inspect|fsck``, ``supervise`` and ``replay``.

::

    python -m repro checkpoint fig7 --dir ckpts --interval 5000
    python -m repro checkpoint fig7 --dir ckpts --backend sharded --shards 4
    python -m repro resume ckpts
    python -m repro replay ckpts
    python -m repro replay ckpts --perturb-plan perturb.json
    python -m repro snapshot inspect ckpts/ckpt-000000005000.snap
    python -m repro supervise fig7 --dir ckpts --interval 5000

``checkpoint`` and ``supervise`` accept ``--backend {event,sharded}``
(plus ``--shards K`` for the sharded backend).  ``resume`` has no
``--backend``: it detects whether a directory holds single-machine
snapshots or coordinated shard sets.

Sharded ``checkpoint``/``resume`` runs self-heal in process by
default: a worker that dies or hangs mid-run is detected within the
recovery deadline, every shard rolls back to the latest complete
coordinated set, and only the failed worker is respawned.  The
``recovery`` object of ``--shard-config`` tunes this (``{"enabled":
false}`` restores the die-with-exit-137 behavior; ``deadline`` and
``max_restarts`` tune the escalation).
Chaos faults (``kill_shard``/``hang_shard``/``slow_shard`` entries in
a ``--plan`` file) exercise exactly this path deterministically.

While single-machine ``checkpoint``/``resume``/``supervise`` children
run, SIGUSR1 takes an out-of-band ``live-<cycle>.snap`` snapshot
without stopping the simulation.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from ..api import RunResult
from ..cli import (
    emit_envelope,
    emit_outputs,
    fault_args,
    fault_plan,
    json_arg,
    shard_config_arg,
    shard_flags_fit,
    shards_arg,
    workload_args,
)
from ..errors import (
    EXIT_DIVERGED,
    EXIT_RUN_FAILED,
    EXIT_SHARD_CRASH,
    EXIT_SNAPSHOT_UNLOADABLE,
    DeadlockError,
    ShardCrashError,
    SimulationTimeout,
    SnapshotError,
)
from ..workloads.figures import figure_workload

if TYPE_CHECKING:
    from ..machine import Machine, ShardedRunner
    from .supervisor import Supervisor


def as_argv(args: argparse.Namespace, actions: list) -> list[str]:
    """The parsed values of ``actions`` as command-line arguments
    again: positionals in place, flags by their last option string; a
    flag still at its default is left out."""
    argv: list[str] = []
    for action in actions:
        value = getattr(args, action.dest)
        if not action.option_strings:
            argv.append(str(value))
        elif value != action.default:
            flag = action.option_strings[-1]
            argv += [flag] if action.nargs == 0 else [flag, str(value)]
    return argv


# ----------------------------------------------------------------------
# flag groups of this package
# ----------------------------------------------------------------------
def checkpoint_args(p: argparse.ArgumentParser) -> list:
    """Where and how often a checkpointed run snapshots."""
    return [
        p.add_argument("--dir", required=True,
                       help="snapshot directory (created if missing; "
                       "under supervise, one that already holds "
                       "snapshots resumes on the first attempt)"),
        p.add_argument("--interval", type=int, default=10_000, metavar="N",
                       help="cycles between snapshots (default 10000)"),
        p.add_argument("--retain", type=int, default=3, metavar="K",
                       help="periodic snapshots to keep, 0 = all "
                       "(default 3)"),
        p.add_argument("--delta-every", type=int, default=0, metavar="N",
                       help="write incremental v5 delta snapshots with a "
                       "full base every N-th periodic snapshot; 0 "
                       "(default) writes classic standalone snapshots "
                       "only"),
        p.add_argument("--record", action="store_true",
                       help="also record a replay bundle (initial "
                       "snapshot + event-trace manifest) for `repro "
                       "replay`; single-machine backend only"),
    ]


def max_cycles_arg(p: argparse.ArgumentParser) -> list:
    return [p.add_argument("--max-cycles", type=int, default=50_000_000)]


def backend_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", default="event",
                   choices=["event", "sharded"],
                   help="single event-driven machine (default) or K "
                   "shards with coordinated Chandy-Lamport snapshots")


def crash_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--crash-at", type=int, default=None, metavar="CYCLE",
                   help="hard-kill the process (exit 137, as SIGKILL "
                   "would) once simulated time reaches CYCLE; used to "
                   "exercise crash recovery")
    p.add_argument("--crash-shard", type=int, default=None, metavar="K",
                   help="which worker --crash-at kills; sharded runs "
                   "only (default 0)")


# ----------------------------------------------------------------------
# checkpoint / resume: build one engine, finish it in one place
# ----------------------------------------------------------------------
def install_live_snapshot_handler(machine: Machine) -> None:
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


def _finish(engine: Union[Machine, ShardedRunner],
            args: argparse.Namespace, command: str) -> int:
    """Run a checkpointed engine to completion and report it.  A dead
    shard worker exits like a SIGKILLed process, so the supervisor
    restarts and resumes it; a member file a worker cannot load exits
    like any unloadable snapshot, so the supervisor quarantines it."""
    from ..machine.machine import Machine

    sharded = not isinstance(engine, Machine)
    try:
        if sharded:
            stats = engine.run(max_cycles=args.max_cycles,
                               crash_at=args.crash_at,
                               crash_shard=args.crash_shard or 0)
        else:
            install_live_snapshot_handler(engine)
            stats = engine.run(max_cycles=args.max_cycles,
                               crash_at=args.crash_at)
    except ShardCrashError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return EXIT_SHARD_CRASH
    except SnapshotError as exc:
        if not sharded or engine.started:
            raise
        # a worker refused its member file: the set cannot load
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SNAPSHOT_UNLOADABLE
    except (DeadlockError, SimulationTimeout) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        if exc.snapshot_path:
            print(f"# failure snapshot: {exc.snapshot_path}", file=sys.stderr)
        return EXIT_RUN_FAILED
    print(f"# completed at cycle {stats.cycles}", file=sys.stderr)
    if stats.checkpoints is not None:
        print(f"# {stats.checkpoints.summary()}", file=sys.stderr)
    if stats.recovery is not None and stats.recovery.detections:
        print(f"# {stats.recovery.summary()}", file=sys.stderr)
    if args.json:
        result = RunResult.from_engine(
            "sharded" if sharded else "event", engine, stats,
            engine.shards if sharded else 1,
        )
        emit_envelope(command, True, result.to_json_dict())
    else:
        emit_outputs(engine.outputs())
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    from ..machine import Machine, ShardConfig, ShardedRunner
    from .manager import CheckpointConfig

    if not shard_flags_fit(args):
        return 1
    workload = figure_workload(args.workload)
    program = workload.compile(m=args.size)
    inputs = workload.make_inputs(program, seed=args.input_seed)
    plan = fault_plan(args.plan)
    cfg = CheckpointConfig(
        args.dir,
        interval=args.interval,
        retain=args.retain,
        record=args.record,
        delta_every=args.delta_every,
    )
    workload_id = f"{args.workload}[m={args.size}]"
    if args.backend == "sharded":
        engine = ShardedRunner(
            program.graph, inputs, fault_plan=plan,
            checkpoint=cfg, workload_id=workload_id,
            shard_config=ShardConfig.coerce(
                args.shard_config, shards=args.shards
            ),
        )
        shape = f"m={args.size}, {engine.shards} shards"
    else:
        engine = Machine(
            program.graph, inputs=inputs, fault_plan=plan, checkpoint=cfg
        )
        engine.workload_id = workload_id
        shape = f"m={args.size}"
    if plan is not None:
        print(f"# plan: {plan.describe()}", file=sys.stderr)
    print(
        f"# checkpointing {args.workload} ({shape}) to {args.dir} every "
        f"{args.interval} cycles",
        file=sys.stderr,
    )
    return _finish(engine, args, "checkpoint")


def cmd_resume(args: argparse.Namespace) -> int:
    from ..machine import Machine, ShardedRunner
    from .directory import resume_point

    point = resume_point(args.snapshot)
    sharded = point.sharded
    flag = ("--shard-config" if args.shard_config
            else "--crash-shard" if args.crash_shard is not None else None)
    if flag and not sharded:
        # the target resolved to a single-machine snapshot; shard
        # flags cannot apply, so fail loudly like the facade does
        print(
            f"error: {flag} given but {args.snapshot} is not a "
            f"sharded checkpoint directory",
            file=sys.stderr,
        )
        return 1
    try:
        engine = (
            ShardedRunner.resume(
                point, shard_config=args.shard_config
            )
            if sharded else Machine.resume(point.path)
        )
    except SnapshotError as exc:
        # dedicated exit code: only a snapshot that cannot even be
        # loaded may be quarantined by the supervisor; errors after a
        # clean load exit 1 like every other ReproError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SNAPSHOT_UNLOADABLE
    if sharded:
        print(
            f"# resumed {engine.shards} shards at cycle "
            f"{engine.start_cycles[0]}",
            file=sys.stderr,
        )
    else:
        print(f"# resumed at cycle {engine.now}", file=sys.stderr)
    return _finish(engine, args, "resume")


# ----------------------------------------------------------------------
# snapshot inspect / fsck
# ----------------------------------------------------------------------
#: how inspect words a set verdict: a set no committed entry lists is
#: ``partial`` (a crash landed between shard writes), a resumable one
#: ``complete``, one with a member gone ``incomplete``
_SET_WORDS = {None: "partial", "intact": "complete", "damaged": "incomplete"}


def cmd_snapshot_inspect(args: argparse.Namespace) -> int:
    from .directory import classify_file, member_status
    from .snapshot import read_metadata

    meta = read_metadata(args.file)
    meta["path"] = str(args.file)
    if meta.get("shard") is not None:
        # one member of a coordinated set: loadable only when its set
        # is committed and intact, the verdict fsck and resume read too
        status = member_status(Path(args.file))
        meta["coordinated"] = _SET_WORDS.get(status, status)
    if meta.get("kind") in ("base", "delta"):
        # chain verification is metadata/envelope reads only, so the
        # no-payload-deserialization guarantee of inspect still holds
        entry = classify_file(Path(args.file))
        meta["chain_status"] = entry["status"]
        if "chain" in entry:
            meta["chain"] = entry["chain"]
        if "error" in entry:
            meta["chain_error"] = entry["error"]
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
            f"# v5 delta at chain depth {meta.get('chain_depth', '?')}: "
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


def cmd_snapshot_fsck(args: argparse.Namespace) -> int:
    from .directory import fsck_directory

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


# ----------------------------------------------------------------------
# supervise / replay
# ----------------------------------------------------------------------
def run_supervisor(supervisor: Supervisor,
                   report_json: Optional[str] = None) -> int:
    """Run the crash-supervision loop; on success republish the
    successful child's stdout and stderr byte-for-byte, so
    ``repro supervise ... > out.json 2> log`` matches an uninterrupted
    run on both streams."""
    report = supervisor.run()
    print(f"# {report.summary()}", file=sys.stderr)
    if report_json:
        with open(report_json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"# wrote {report_json}", file=sys.stderr)
    if not report.completed:
        return EXIT_RUN_FAILED
    if report.stderr:
        sys.stderr.buffer.write(report.stderr)
        sys.stderr.buffer.flush()
    sys.stdout.buffer.write(report.stdout or b"")
    sys.stdout.buffer.flush()
    return 0


def cmd_supervise(args: argparse.Namespace) -> int:
    from ..workers import BackoffPolicy
    from .supervisor import Supervisor, SupervisorConfig

    child = [sys.executable, "-m", "repro"]
    start_argv = child + ["checkpoint", *as_argv(args, args.child_flags)]
    if args.backend == "sharded":
        start_argv += ["--backend", "sharded", "--shards", str(args.shards)]
    supervisor = Supervisor(
        start_argv,
        SupervisorConfig(
            args.dir,
            max_restarts=args.max_restarts,
            backoff=BackoffPolicy(
                base=args.backoff_base, factor=args.backoff_factor,
                max_delay=args.backoff_max, jitter=args.backoff_jitter,
            ),
            seed=args.backoff_seed,
        ),
        resume_argv=lambda directory: child + [
            "resume", str(directory),
            *as_argv(args, args.child_flags[-1:]),
        ],
        extra_args=[
            ["--crash-at", cycle]
            for cycle in (args.inject_crash.split(",")
                          if args.inject_crash else [])
        ],
    )
    return run_supervisor(supervisor, args.report_json)


def cmd_replay(args: argparse.Namespace) -> int:
    from .replay import replay_bundle

    report = replay_bundle(
        args.bundle, perturb=fault_plan(args.perturb_plan),
        max_cycles=args.max_cycles,
    )
    if args.json:
        emit_envelope("replay", report.reproduced, asdict(report))
    else:
        print(report.summary())
    return 0 if report.reproduced else EXIT_DIVERGED


def register(sub) -> None:
    p = sub.add_parser(
        "checkpoint",
        help="run a paper-figure workload with periodic crash-consistent "
        "snapshots (resume later with `repro resume`)",
    )
    workload_args(p)
    fault_args(p)
    checkpoint_args(p)
    backend_arg(p)
    shards_arg(p)
    max_cycles_arg(p)
    crash_args(p)
    shard_config_arg(p)
    json_arg(p)
    p.set_defaults(fn=cmd_checkpoint)

    p = sub.add_parser(
        "resume",
        help="resume a checkpointed run from a snapshot file or from the "
        "newest snapshot in a directory",
    )
    p.add_argument("snapshot", help="snapshot file or checkpoint directory "
                   "(single-machine or sharded; auto-detected)")
    max_cycles_arg(p)
    crash_args(p)
    shard_config_arg(p)
    json_arg(p)
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser(
        "snapshot",
        help="inspect or check snapshot files without running anything",
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

    p = sub.add_parser(
        "supervise",
        help="run a checkpointed workload under a crash-supervision "
        "loop: resume on crash with exponential backoff, quarantine "
        "poisoned snapshots, stop at a restart budget",
    )
    # every flag the supervised `checkpoint` child is started with, in
    # order; --max-cycles last, because `resume` children get it too
    child_flags = workload_args(p) + fault_args(p)
    backend_arg(p)
    shards_arg(p, default=2)
    child_flags += checkpoint_args(p) + max_cycles_arg(p)
    p.set_defaults(child_flags=child_flags)
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
        help="re-execute a recorded bundle, verify the run is reproduced "
        "bit-identically, and on divergence name the first checkpoint "
        "window where it left the record",
    )
    p.add_argument("bundle", help="directory written by "
                   "`repro checkpoint --record`")
    max_cycles_arg(p)
    p.add_argument("--perturb-plan", metavar="FILE",
                   help="JSON fault plan installed on the replay only, "
                   "to ask where that fault would first change the "
                   "recorded run")
    json_arg(p, instead_of="the summary line")
    p.set_defaults(fn=cmd_replay)

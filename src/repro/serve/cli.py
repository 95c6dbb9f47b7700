"""The service subcommands: ``serve`` runs the daemon, ``submit`` talks
to one.

::

    python -m repro serve --socket /tmp/repro.sock --dir state --workers 4
    python -m repro serve --socket /tmp/repro.sock --dir state --supervised
    python -m repro submit --connect unix:/tmp/repro.sock --jobs jobs.json
    python -m repro submit --connect :8765 --op stats

See DESIGN.md section 11.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from typing import Any

from ..checkpoint.cli import as_argv, run_supervisor
from ..cli import emit_envelope, parse_params
from .protocol import ServeError, envelope


def cmd_serve(args: argparse.Namespace) -> int:
    from .server import ServeConfig, run_server

    # each ServeConfig field is the flag of that name; it is checked
    # before anything starts, so a bad flag is one error line
    names = [f.name for f in fields(ServeConfig)]
    config = ServeConfig(**{name: getattr(args, name) for name in names})
    if args.supervised:
        if not config.directory:
            print("error: --supervised needs --dir (the journal is "
                  "what makes restarts lossless)", file=sys.stderr)
            return 1
        from ..checkpoint.supervisor import Supervisor, SupervisorConfig

        start_argv = [sys.executable, "-m", "repro", "serve",
                      *as_argv(args, args.child_flags)]
        extra = []
        if config.crash_after_accepts is not None:
            # the hook applies to the first incarnation only: the
            # whole point is proving the restarted daemon recovers
            extra = [["--crash-after-accepts",
                      str(config.crash_after_accepts)]]
        return run_supervisor(Supervisor(
            start_argv,
            SupervisorConfig(config.directory,
                             max_restarts=args.max_restarts),
            # a serve directory holds a journal, not snapshots: a
            # restart is always a cold start that replays the journal
            resume_argv=lambda directory: list(start_argv),
            extra_args=extra,
        ))

    import asyncio

    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from ..client import connect

    client = connect(args.connect, timeout=args.timeout)
    with client:
        if args.op != "submit":
            result = getattr(client, args.op)()
            emit_envelope(args.op, True, result)
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
                "params": parse_params(args.param),
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


def register(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="run the long-lived multi-tenant pipeline service "
        "(admission control, lane batching, supervised worker "
        "pool, hot restart); see DESIGN.md section 11",
    )
    # the daemon's own flags, handed on to a supervised daemon
    daemon_flags = [
        p.add_argument("--socket", metavar="PATH",
                       help="unix socket to listen on"),
        p.add_argument("--port", type=int, help="TCP port to listen on"),
        p.add_argument("--host", default="127.0.0.1"),
        p.add_argument("--dir", dest="directory", metavar="DIR",
                       help="journal + hot-restart state directory "
                       "(enables exactly-once re-admission after a crash)"),
        p.add_argument("--capacity", type=int, default=256,
                       help="admission queue bound; beyond it submits are "
                       "shed with a typed overload error (default 256)"),
        p.add_argument("--workers", type=int, default=2,
                       help="worker pool size (default 2)"),
        p.add_argument("--default-deadline", type=float, default=30.0,
                       help="per-job deadline in seconds when the job "
                       "does not set one (default 30)"),
        p.add_argument("--max-retries", type=int, default=2,
                       help="attempts lost to worker failure before a job "
                       "fails typed (default 2)"),
        p.add_argument("--hang-deadline", type=float, default=10.0,
                       help="seconds of worker silence that count as a "
                       "hang (default 10)"),
        p.add_argument("--max-batch", type=int, default=8,
                       help="most jobs per batch, run as lanes of one "
                       "serial pipeline run (default 8); --max-batch 1 "
                       "disables batching entirely"),
        p.add_argument("--batch-wait", type=float, default=0.02,
                       help="seconds a growing batch lingers for "
                       "companions after its first job; beside an idle "
                       "worker it leaves once nobody has joined for one "
                       "estimated run (default 0.02)"),
        p.add_argument("--seed", type=int, default=0,
                       help="seed for retry-backoff jitter and stats "
                       "reservoirs"),
    ]
    p.add_argument("--supervised", action="store_true",
                   help="wrap the daemon in the repro supervise crash "
                   "loop (requires --dir); a killed daemon restarts "
                   "and re-admits journaled jobs")
    p.add_argument("--max-restarts", type=int, default=8,
                   help="restart budget under --supervised")
    p.add_argument("--crash-after-accepts", type=int,
                   help=argparse.SUPPRESS)  # hot-restart test hook
    p.set_defaults(fn=cmd_serve, child_flags=daemon_flags)

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

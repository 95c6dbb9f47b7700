"""The ``faults`` subcommand: run a paper-figure workload under an
injected fault plan and report what the reliability layer recovered.

::

    python -m repro faults fig6
    python -m repro faults fig7 --plan plan.json --no-recovery

Without ``--plan`` the run drops and duplicates 5 % of result packets
each (seed 0).

Exit 0 when the outputs match the fault-free run, 3 when they diverge,
2 when the run stalls (``--no-recovery`` prints the diagnosis).
"""

from __future__ import annotations

import argparse
import sys

from .. import api
from ..cli import emit_outputs, fault_args, fault_plan, workload_args
from ..errors import EXIT_DIVERGED, EXIT_RUN_FAILED, DeadlockError
from ..workloads.figures import figure_workload
from .plan import FaultPlan


def cmd_faults(args: argparse.Namespace) -> int:
    workload = figure_workload(args.workload)
    program = workload.compile(m=args.size)
    inputs = workload.make_inputs(program, seed=args.input_seed)
    plan = fault_plan(args.plan) or FaultPlan(
        seed=0, drop_result=0.05, dup_result=0.05
    )

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
    emit_outputs(out)
    return 0 if ok else EXIT_DIVERGED


def register(sub) -> None:
    p = sub.add_parser(
        "faults",
        help="run a paper-figure workload under an injected fault plan "
        "and report what the reliability layer recovered",
    )
    workload_args(p)
    fault_args(p)
    p.add_argument("--no-recovery", action="store_true",
                   help="inject faults with the reliability layer off "
                   "(expect a diagnosed stall)")
    p.set_defaults(fn=cmd_faults)

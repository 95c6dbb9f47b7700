"""Command-line interface: compile, inspect, run and interpret Val
programs from the shell.

::

    python -m repro compile prog.val -p m=100 --describe --dot prog.dot
    python -m repro run prog.val -p m=100 --inputs inputs.json
    python -m repro run prog.val -p m=100 --backend sharded --shards 4
    python -m repro interpret prog.val -p m=100 --inputs inputs.json
    python -m repro simulate prog.dfasm --inputs inputs.json

This module is the parser root.  It owns ``compile``, ``run``,
``interpret`` and ``simulate`` and the flag groups that more than one
package uses; :func:`build_parser` lists every other package that adds
subcommands, each through its own ``register(subparsers)``:

* :mod:`repro.faults.cli` -- ``faults``;
* :mod:`repro.checkpoint.cli` -- ``checkpoint``, ``resume``,
  ``snapshot inspect|fsck``, ``supervise`` and ``replay``;
* :mod:`repro.serve.cli` -- ``serve`` and ``submit``.

Building the parser loads no compiler, machine or Val code: every
command handler imports what it runs (DESIGN.md, "Import layers"), so
``repro submit`` and the ``repro serve`` daemon start light.

``run`` accepts ``--backend {sync,event,sharded,compiled}`` (plus
``--shards K`` and ``--shard-config JSON`` for the sharded backend).
``run``, ``checkpoint``, ``resume`` and ``replay`` accept ``--json``,
which prints one stable JSON envelope to stdout (see README "JSON
output"): ``{"schema": 1, "command": ..., "ok": ..., "result": ...}``.

Inputs are a JSON object mapping array names to lists (or to
``[lo, [values...]]`` pairs for arrays with a nonzero lower bound).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional

from . import api
from .errors import ReproError
from .faults import FaultPlan
from .workloads.figures import FIGURES


def parse_params(items: list[str]) -> dict[str, int]:
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


def emit_outputs(outputs: dict[str, Any]) -> None:
    from .val.values import ValArray

    rendered = {}
    for name, value in outputs.items():
        if isinstance(value, ValArray):
            rendered[name] = [value.lo, value.to_list()]
        else:
            rendered[name] = value
    json.dump(rendered, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def emit_envelope(command: str, ok: bool, result: dict[str, Any]) -> None:
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


# ----------------------------------------------------------------------
# flag groups more than one package declares (a group a supervised
# child is started with returns its actions: see repro.checkpoint.cli)
# ----------------------------------------------------------------------
def json_arg(p: argparse.ArgumentParser,
             instead_of: str = "the outputs object") -> None:
    p.add_argument("--json", action="store_true",
                   help="print the stable JSON result envelope to stdout "
                   f"instead of {instead_of}")


def shards_arg(p: argparse.ArgumentParser,
               default: Optional[int] = None) -> None:
    p.add_argument("--shards", type=int, default=default, metavar="K",
                   help="worker count for --backend sharded (default 2)")


def shard_config_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shard-config", metavar="JSON",
                   help="sharded-backend configuration as a JSON object "
                   "(ShardConfig schema: shards, partition, processes, "
                   "recovery); --shards must agree with its count")


def workload_args(p: argparse.ArgumentParser) -> list:
    return [
        p.add_argument("workload", choices=sorted(FIGURES),
                       help="paper figure to run"),
        p.add_argument("--size", type=int, default=16, metavar="M",
                       help="array-size parameter m (default 16)"),
        p.add_argument("--input-seed", type=int, default=0,
                       help="seed for the generated input streams"),
    ]


def fault_args(p: argparse.ArgumentParser) -> list:
    return [
        p.add_argument("--plan", help="JSON fault-plan file, seed "
                       "included (see DESIGN.md for the schema)"),
    ]


def fault_plan(path: Optional[str]) -> Optional[FaultPlan]:
    """The fault plan in the JSON file at ``path`` (None without one)."""
    if path is None:
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return FaultPlan.from_json(fh.read())


def shard_flags_fit(args: argparse.Namespace) -> bool:
    """Mirror the facade: shard flags on a non-sharded backend are a
    loud error, never a silent no-op."""
    if args.backend == "sharded":
        return True
    for flag in ("shard_config", "shards", "crash_shard"):
        if getattr(args, flag, None) is not None:
            print(
                f"error: --{flag.replace('_', '-')} requires --backend "
                f"sharded (got --backend {args.backend})",
                file=sys.stderr,
            )
            return False
    return True


# ----------------------------------------------------------------------
# compile / run / interpret / simulate
# ----------------------------------------------------------------------
def _compile(args: argparse.Namespace):
    from .compiler import compile_program

    opts: dict[str, Any] = {
        "forall_scheme": args.forall_scheme,
        "foriter_scheme": args.foriter_scheme,
        "balance": args.balance,
        "controls": args.controls,
    }
    if args.distance is not None:
        opts["distance"] = args.distance
    source = open(args.program, "r", encoding="utf-8").read()
    return compile_program(source, params=parse_params(args.param), **opts)


def cmd_compile(args: argparse.Namespace) -> int:
    from .graph import to_asm, to_dot

    cp = _compile(args)
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
    if not shard_flags_fit(args):
        return 1
    cp = _compile(args)
    result = api.run(
        cp,
        _load_inputs(args.inputs),
        backend=args.backend,
        shards=args.shards,
        shard_config=args.shard_config,
    )
    if args.json:
        emit_envelope("run", True, result.to_json_dict())
        return 0
    emit_outputs({
        name: [lo, result.outputs[name]]
        for name, (lo, _hi) in cp.output_specs.items()
    })
    if args.stats:
        clock = "instruction times" if args.backend == "sync" else "cycles"
        for stream in cp.output_specs:
            print(
                f"# {stream}: II = "
                f"{result.initiation_interval(stream):.3f} "
                f"{clock}/element",
                file=sys.stderr,
            )
        print(f"# total: {result.cycles} {clock}, "
              f"{result.stats.total_firings} firings", file=sys.stderr)
    return 0


def cmd_interpret(args: argparse.Namespace) -> int:
    from .val import parse_program, run_program

    source = open(args.program, "r", encoding="utf-8").read()
    outputs = run_program(
        parse_program(source),
        inputs=_load_inputs(args.inputs),
        params=parse_params(args.param),
    )
    emit_outputs(outputs)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .graph import read_asm

    g = read_asm(args.graph)
    streams = {}
    for name, value in _load_inputs(args.inputs).items():
        # raw machine graphs take plain streams; drop any lower-bound
        # annotation from the JSON form
        streams[name] = list(value[1]) if isinstance(value, tuple) else value
    emit_outputs(api.run(g, streams, backend="sync").outputs)
    return 0


def _register(sub) -> None:
    """The parser root's own subcommands."""

    def program_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("program", help="Val source file")
        p.add_argument(
            "-p", "--param", action="append", default=[],
            metavar="NAME=INT",
            help="compile-time constant (repeatable), e.g. -p m=100",
        )

    def compile_args(p: argparse.ArgumentParser) -> None:
        program_args(p)
        p.add_argument("--forall-scheme", default="pipeline",
                       choices=["pipeline", "parallel"])
        p.add_argument("--foriter-scheme", default="auto",
                       choices=["auto", "companion", "todd"])
        p.add_argument("--balance", default="optimal",
                       choices=["optimal", "reduce", "naive", "none"])
        p.add_argument("--controls", default="patterns",
                       choices=["patterns", "dataflow"],
                       help="emit control sequences as pattern tables or "
                       "as Todd-style counter subgraphs")
        p.add_argument("--distance", type=int, default=None,
                       help="companion dependence distance (G-tree size)")

    p = sub.add_parser("compile", help="compile and dump machine code")
    compile_args(p)
    p.add_argument("-o", "--output", help="write dfasm machine code here")
    p.add_argument("--dot", help="write a Graphviz rendering here")
    p.add_argument("--describe", action="store_true",
                   help="print the compilation report")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("run", help="compile and run on one of the "
                       "backends (unit-delay simulator by default)")
    compile_args(p)
    p.add_argument("--inputs", help="JSON file of input arrays")
    p.add_argument("--stats", action="store_true",
                   help="print throughput statistics to stderr")
    p.add_argument("--backend", default="sync",
                   choices=["sync", "event", "sharded", "compiled"],
                   help="execution backend: unit-delay simulator "
                   "(default), event-driven machine, K machine "
                   "shards in separate processes, or the event "
                   "machine with steady-state fast-forward "
                   "(bit-identical to event, same options)")
    shards_arg(p)
    shard_config_arg(p)
    json_arg(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("interpret", help="run the reference Val interpreter")
    program_args(p)
    p.add_argument("--inputs", help="JSON file of input arrays")
    p.set_defaults(fn=cmd_interpret)

    p = sub.add_parser("simulate", help="simulate a dfasm machine-code file")
    p.add_argument("graph", help="dfasm file")
    p.add_argument("--inputs", help="JSON file of input arrays")
    p.set_defaults(fn=cmd_simulate)


def build_parser() -> argparse.ArgumentParser:
    from .checkpoint.cli import register as checkpoint_commands
    from .faults.cli import register as fault_commands
    from .serve.cli import register as serve_commands

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Val-to-static-dataflow compiler and simulators "
        "(Dennis & Gao, ICPP 1983)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every package that adds subcommands, in help order
    for register in (_register, fault_commands, checkpoint_commands,
                     serve_commands):
        register(sub)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_cycles", 1) < 1:
        print(f"error: --max-cycles must be >= 1, got {args.max_cycles}",
              file=sys.stderr)
        return 1
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

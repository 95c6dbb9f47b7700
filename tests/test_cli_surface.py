"""Golden pin of the command-line surface.

Every subcommand's flags -- option strings, ``dest``, default,
``choices``, ``nargs`` and ``required`` -- are compared with
``tests/cli_surface.json``, so moving a subcommand between modules
cannot add, drop or retune a flag unnoticed.  After a deliberate CLI
change, re-record with ``PYTHONPATH=src python -m tests.test_cli_surface``
and review the diff.
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).with_name("cli_surface.json")


def _subcommands(parser: argparse.ArgumentParser, prefix: str = ""):
    """(name, parser) for every leaf subcommand, nested ones joined
    with a space (``snapshot inspect``)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, f"{prefix}{name} ")
    if prefix:
        yield prefix.strip(), parser


def surface() -> dict:
    out = {}
    for name, parser in _subcommands(build_parser()):
        out[name] = [
            {
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "choices": (sorted(action.choices)
                            if action.choices is not None else None),
                "nargs": action.nargs,
                "required": action.required,
            }
            for action in parser._actions
        ]
    # round-trip through JSON so tuples and lists compare alike
    return json.loads(json.dumps(out))


def test_cli_surface_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = surface()
    assert list(current) == list(golden)
    for name in golden:
        assert current[name] == golden[name], name


if __name__ == "__main__":
    # one line per flag keeps a re-recorded diff readable
    lines = ",\n".join(
        f" {json.dumps(name)}: [\n  "
        + ",\n  ".join(json.dumps(action) for action in actions) + "\n ]"
        for name, actions in surface().items()
    )
    GOLDEN.write_text("{\n" + lines + "\n}\n", encoding="utf-8")

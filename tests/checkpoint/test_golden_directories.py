"""Golden pins for what a checkpoint directory holds after a run.

Four runs, each pinned by the exact ``manifest.json`` bytes and the
sorted file listing of its directory:

* a sharded delta chain (fig7, m = 60, K = 2, ``delta_every=3``,
  ``retain=2``);
* a record-mode single-machine run, whose manifest carries the digest
  ledger;
* a supervisor quarantining a single-machine base-plus-delta chain
  (the base is corrupted after a crash);
* a supervisor quarantining a coordinated set (one member is corrupted
  after a crash).

The supervised runs also pin the ``--report-json`` output, less its
``directory`` field.  A change to where or how the checkpoint layer
decides names, retention, resume points or quarantine must leave every
pin unchanged.  After a deliberate format change, re-record with
``PYTHONPATH=src python -m tests.checkpoint.test_golden_directories``
and review the diff.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main

GOLDEN = Path(__file__).parent / "fixtures" / "directories.json"
SRC = str(Path(__file__).resolve().parents[2] / "src")

FIG7 = ["fig7", "--size", "60"]
FAST_BACKOFF = ["--backoff-base", "0.01", "--backoff-max", "0.02"]


def _repro(*argv: str, expect: int = 0) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True, env=env
    )
    assert proc.returncode == expect, proc.stderr.decode()


def _corrupt(path: Path) -> None:
    """Flip 64 payload bytes, deterministically."""
    data = bytearray(path.read_bytes())
    data[200:264] = bytes(b ^ 0xFF for b in data[200:264])
    path.write_bytes(bytes(data))


def _pin(directory: Path, report: Path = None) -> dict:
    out = {
        "manifest": (directory / "manifest.json").read_text(encoding="utf-8"),
        "files": sorted(p.name for p in directory.iterdir()),
    }
    if report is not None:
        data = json.loads(report.read_text(encoding="utf-8"))
        data.pop("directory")
        out["report"] = data
    return out


def sharded_delta_chain(tmp: Path) -> dict:
    directory = tmp / "chain"
    assert cli_main([
        "checkpoint", *FIG7, "--interval", "50", "--delta-every", "3",
        "--retain", "2", "--backend", "sharded", "--shards", "2",
        "--shard-config", '{"processes": false}', "--dir", str(directory),
    ]) == 0
    return _pin(directory)


def record_single_machine(tmp: Path) -> dict:
    directory = tmp / "record"
    assert cli_main([
        "checkpoint", *FIG7, "--interval", "200", "--record",
        "--dir", str(directory),
    ]) == 0
    return _pin(directory)


def supervised_chain_quarantine(tmp: Path) -> dict:
    directory = tmp / "poison"
    flags = [*FIG7, "--interval", "200", "--delta-every", "2",
             "--dir", str(directory)]
    _repro("checkpoint", *flags, "--crash-at", "900", expect=137)
    _corrupt(directory / "ckpt-000000000600.base.snap")
    report = tmp / "poison-report.json"
    _repro("supervise", *flags, *FAST_BACKOFF, "--report-json", str(report))
    return _pin(directory, report)


def supervised_set_quarantine(tmp: Path) -> dict:
    directory = tmp / "sets"
    flags = [*FIG7, "--interval", "50", "--backend", "sharded",
             "--shards", "2", "--dir", str(directory)]
    _repro("checkpoint", *flags, "--crash-at", "400", expect=137)
    manifest = json.loads((directory / "manifest.json").read_text())
    _corrupt(directory / manifest["coordinated"][-1]["files"][1])
    report = tmp / "sets-report.json"
    _repro("supervise", *flags, *FAST_BACKOFF, "--report-json", str(report))
    return _pin(directory, report)


RUNS = [
    sharded_delta_chain,
    record_single_machine,
    supervised_chain_quarantine,
    supervised_set_quarantine,
]


@pytest.mark.parametrize("run", RUNS, ids=[r.__name__ for r in RUNS])
def test_directory_matches_golden(run, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[run.__name__]
    got = run(tmp_path)
    capsys.readouterr()
    assert got["files"] == golden["files"]
    assert got["manifest"] == golden["manifest"]
    assert got.get("report") == golden.get("report")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    recorded = {}
    for run in RUNS:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            recorded[run.__name__] = run(Path(tmp))
    GOLDEN.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")

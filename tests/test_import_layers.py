"""Each process imports only the layer it runs (DESIGN.md, "Import
layers").

Every case starts a fresh interpreter, runs what one kind of process
runs at start -- a client connecting, the daemon building its parser
and server, a serve worker, an in-process event run, a sharded runner
about to fork -- and reports every module it ended up with.  A
forbidden module is named together with everything under it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def modules_after(code: str) -> set[str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def under(modules: set[str], packages: tuple[str, ...]) -> list[str]:
    """The modules that are one of ``packages`` or inside one."""
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in packages))


_CLIENT = "import repro; repro.connect"

_DAEMON = """
from repro.cli import build_parser
build_parser().parse_args(["serve", "--socket", "s.sock"])
import repro.serve.server
"""

_SERVE_WORKER = "import repro.serve.worker"

_EVENT_RUN = """
import repro
from repro.workloads import EXAMPLE2_SOURCE

cp = repro.compile_program(EXAMPLE2_SOURCE, params={"m": 8})
result = repro.run(cp, {"A": [0.5] * 8, "B": [1.0] * 8}, backend="event")
assert len(result.outputs["X"]) == 9
"""

LAYERS = {
    "client": (_CLIENT, (
        "asyncio", "hashlib", "multiprocessing", "numpy", "networkx",
        "repro.compiler", "repro.machine", "repro.checkpoint", "repro.sim",
        "repro.val",
    )),
    "daemon": (_DAEMON, (
        "numpy", "networkx", "repro.compiler", "repro.sim", "repro.val",
        "repro.machine.machine",
    )),
    "serve-worker": (_SERVE_WORKER, (
        "asyncio", "repro.serve.server", "repro.serve.admission",
        "repro.machine.shard_runner",
    )),
    "event-run": (_EVENT_RUN, (
        "asyncio", "multiprocessing", "repro.serve", "repro.client",
        "repro.workers",
    )),
}


@pytest.mark.parametrize("layer", list(LAYERS))
def test_a_process_loads_only_its_layer(layer):
    code, forbidden = LAYERS[layer]
    assert under(modules_after(code), forbidden) == []


def test_a_forked_shard_worker_finds_its_modules_loaded():
    """``repro.resume`` forks fresh shard workers on every call; each
    runs the shard worker's commands, the shard machine and the
    snapshot loader, so importing the runner must already have loaded
    them and no fork imports on a timed path."""
    loaded = modules_after("import repro.machine.shard_runner")
    assert {
        "repro.machine.shard_worker", "repro.machine.sharded",
        "repro.machine.machine", "repro.checkpoint.snapshot",
        "repro.faults.injector",
    } <= loaded

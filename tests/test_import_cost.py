"""numpy / scipy / networkx are the cost of solving a balance LP, not
of ``import repro``: no process loads them before it has an LP to
solve (DESIGN.md, "Balancing").  Each case is a fresh interpreter that
reports which of the three ended up in ``sys.modules`` -- what was
imported, not how long it took.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HEAVY = ("numpy", "scipy", "networkx")

_REPORT = """
import sys
print(",".join(m for m in %r if m in sys.modules))
""" % (HEAVY,)

_EXAMPLE2_JOBS = """
from repro.serve.jobs import execute_batch, execute_serial
from repro.serve.protocol import JobSpec
from repro.workloads import EXAMPLE2_SOURCE

def job(k):
    return JobSpec(
        id=f"j{k}", source=EXAMPLE2_SOURCE, params={"m": 8},
        inputs={"A": [0.5] * 8, "B": [float(k)] * 8},
    )

alone = execute_serial(job(3))
batch = execute_batch([job(k) for k in range(8)])
assert batch["j3"]["streams"] == alone["streams"]
"""

_TWO_SHARDS = """
import repro
from repro.machine import MachineConfig, ShardConfig
from repro.workloads import parallel_chain_graph

result = repro.run(
    parallel_chain_graph(4, 5, 4), backend="sharded",
    config=MachineConfig.unit_time(),
    shard_config=ShardConfig(shards=2, processes=True),
)
assert result.outputs["y0"] == [0.0, 3.5, 7.0, 10.5]
repro.shutdown_worker_pool()
"""

_COMPILE_FIG4 = """
from repro.workloads import figure_workload
figure_workload("fig4").compile(m=8)
"""


def loaded_after(code: str) -> set[str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(filter(None, proc.stdout.strip().split(",")))


@pytest.mark.parametrize("code", [
    "import repro",
    "import repro.cli",
    "import repro.serve.worker",
    "import repro.client, repro.serve.protocol; from repro import connect",
    _EXAMPLE2_JOBS,
    _TWO_SHARDS,
], ids=["repro", "cli", "serve-worker", "connect", "example2-jobs",
        "two-shards"])
def test_lp_stack_stays_unloaded(code):
    assert loaded_after(code) == set()


def test_a_graph_with_slack_loads_the_solver():
    """Positive control: the probe does see scipy when an LP is solved
    (fig4's window skew leaves slack under longest-path levels)."""
    assert {"numpy", "scipy"} <= loaded_after(_COMPILE_FIG4)

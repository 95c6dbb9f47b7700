"""networkx is the cost of solving a balance flow, and numpy of a
compiled backend's vectorised batch, not of ``import repro``: no
process loads them before it has that work to do (DESIGN.md,
"Balancing"), and no process needs scipy at all.  Each case is a fresh
interpreter that reports which of the three ended up in
``sys.modules`` -- what was imported, not how long it took.
"""

import pytest

from tests.test_import_layers import modules_after

HEAVY = ("numpy", "scipy", "networkx")

_EXAMPLE2_JOBS = """
from repro.serve.jobs import execute, execute_serial
from repro.serve.protocol import JobSpec
from repro.workloads import EXAMPLE2_SOURCE

def job(k):
    return JobSpec(
        id=f"j{k}", source=EXAMPLE2_SOURCE, params={"m": 8},
        inputs={"A": [0.5] * 8, "B": [float(k)] * 8},
    )

alone = execute_serial(job(3))
batch = execute([job(k) for k in range(8)])
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


_NO_SCIPY = """
import sys

class NoScipy:  # ``import scipy`` fails, as if it were not installed
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"No module named {name!r}")

sys.meta_path.insert(0, NoScipy())

import repro
from repro.compiler import compile_program
from repro.workloads import SOURCES, figure_workload

for source in SOURCES.values():
    compile_program(source, params={"m": 12})
wl = figure_workload("fig4")
program = wl.compile(m=12)
outputs = {
    backend: repro.run(program, wl.make_inputs(program), backend=backend).outputs
    for backend in ("event", "compiled", "sync")
}
assert outputs["event"] == outputs["compiled"] == outputs["sync"]
"""


def loaded_after(code: str, modules: tuple = HEAVY) -> set[str]:
    return modules_after(code) & set(modules)


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
    """Positive control: the probe does see networkx when a balance
    flow is solved (fig4's window skew leaves slack under longest-path
    levels), and the solve needs neither numpy nor scipy."""
    assert loaded_after(_COMPILE_FIG4) == {"networkx"}


def test_compile_and_run_without_scipy():
    """Every source compiles and fig4 runs on the event, compiled and
    sync backends with scipy missing."""
    assert loaded_after(_NO_SCIPY) == {"networkx", "numpy"}


def test_fast_forward_loads_only_when_a_run_asks_for_it():
    """The steady-state detector and the stream evaluator behind it
    are imported by ``Machine.run(fast_forward=True)``, not by the
    machine package."""
    lazy = ("repro.machine.fastforward", "repro.compiler.schedule") + HEAVY
    assert loaded_after("import repro.machine", lazy) == set()

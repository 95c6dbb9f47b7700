"""repro -- Maximum Pipelining of Array Operations on a Static Data Flow Machine.

A from-scratch reproduction of Dennis & Gao (ICPP 1983 / MIT CSG Memo
233): a compiler from the Val array-language subset to machine-level
static dataflow programs that run fully pipelined, plus the simulators
and analyses needed to demonstrate the paper's theorems.

Quickstart
----------
>>> import repro
>>> src = '''
... X : array[real] :=
...   for i : integer := 1; T : array[real] := [0: 0.] do
...     if i < m then
...       iter T := T[i: A[i] * T[i-1] + B[i]]; i := i + 1 enditer
...     else T[i: A[i] * T[i-1] + B[i]]
...     endif
...   endfor
... '''
>>> cp = repro.compile_program(src, params={"m": 4})
>>> result = cp.run({"A": [1.0] * 4, "B": [1.0] * 4})
>>> result.outputs["X"].to_list()
[0.0, 1.0, 2.0, 3.0, 4.0]
>>> result.initiation_interval("X")  # 2.0 == maximally pipelined
2.0

Any compiled program (or raw graph, or Val source) also runs through
the unified backend facade -- the unit-delay simulator, the
packet-level machine, or K machine shards in separate processes::

    result = repro.run(src, {"A": [1.0] * 4, "B": [1.0] * 4},
                       params={"m": 4}, backend="sharded", shards=4)

Packages
--------
* :mod:`repro.val` -- Val frontend (parser, types, classification,
  reference interpreter);
* :mod:`repro.graph` -- machine-level instruction-graph IR;
* :mod:`repro.compiler` -- the paper's mapping schemes and balancing;
* :mod:`repro.sim` -- unit-delay ("instruction time") simulator;
* :mod:`repro.machine` -- event-driven packet-level machine model;
* :mod:`repro.faults` -- seeded fault plans and injection for the
  machine model's reliability layer;
* :mod:`repro.analysis` -- static rate / balance / traffic analyses;
* :mod:`repro.workloads` -- canonical programs and generators.
"""

from .api import (
    BACKENDS,
    BackendProtocol,
    RunRequest,
    RunResult,
    register_backend,
    resume,
    run,
)
from .compiler import CompiledProgram, ProgramResult, compile_program
from .errors import (
    AnalysisError,
    ClassificationError,
    CompileError,
    DeadlockError,
    GraphError,
    RecurrenceError,
    ReproError,
    SimulationError,
    SimulationTimeout,
    SnapshotError,
    ValSyntaxError,
    ValTypeError,
)
from .checkpoint import CheckpointConfig, replay_bundle
from .client import ServeClient, connect
from .faults import FaultInjector, FaultPlan, FaultStats, UnitFault
from .machine import (
    Machine,
    MachineConfig,
    RecoveryPolicy,
    ShardConfig,
    ShardedRunner,
    shutdown_worker_pool,
)
from .sim import SyncSimulator
from .val import ValArray, parse_program, run_program

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "BACKENDS",
    "BackendProtocol",
    "CheckpointConfig",
    "ClassificationError",
    "CompileError",
    "CompiledProgram",
    "DeadlockError",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "GraphError",
    "Machine",
    "MachineConfig",
    "ProgramResult",
    "RecoveryPolicy",
    "RecurrenceError",
    "ReproError",
    "RunRequest",
    "RunResult",
    "ServeClient",
    "ShardConfig",
    "ShardedRunner",
    "SimulationError",
    "SimulationTimeout",
    "SnapshotError",
    "SyncSimulator",
    "UnitFault",
    "ValArray",
    "ValSyntaxError",
    "ValTypeError",
    "__version__",
    "compile_program",
    "connect",
    "parse_program",
    "register_backend",
    "replay_bundle",
    "resume",
    "run",
    "run_program",
    "shutdown_worker_pool",
]

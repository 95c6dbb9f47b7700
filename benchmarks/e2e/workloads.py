"""The four closed-loop workloads of the end-to-end benchmark.

Each workload stresses a different set of ``repro`` layers (see
README.md for why each exists).  A workload has two halves:

* :meth:`generate` runs once in the harness parent: it makes every
  input from the seed and computes the expected outputs with an oracle
  that is independent of the machinery under test (the Val reference
  interpreter ``repro.val.run_program``; for the raw chain graph, the
  source values themselves).  The result is plain JSON, handed to the
  round children, so the program only ever sees generated inputs and no
  timer ever sees the oracle.
* ``setup`` / ``run_part`` / ``check`` / ``teardown`` run inside a
  round child.  An op is its ``parts`` run one after the other; each is
  timed on its own (the harness samples host speed between them) and
  only calls public ``repro`` functions.  ``check`` compares values
  against the oracle and modeled statistics against ``expected.json``.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from _env import child_env, proc_tree
from _trace import Tracer


@dataclass
class Outcome:
    """What ``check`` found for one op."""

    #: verified output array elements the op produced
    elements: int
    #: modeled (host-independent) statistics, by part of the op
    modeled: dict[str, dict[str, Any]]
    #: value mismatches against the oracle; empty when the op is correct
    problems: list[str] = field(default_factory=list)


def modeled_stats(result: Any) -> dict[str, Any]:
    """Host-independent summary of one ``RunResult``: simulated cycles,
    firings in total and as a histogram over cells, a digest of every
    modeled sink arrival time and, for single-output programs, the
    steady-state initiation interval."""
    counts = result.stats.fire_counts
    hist = collections.Counter(counts.values())
    out = {
        "cycles": result.cycles,
        "firings": sum(counts.values()),
        "fire_hist": {str(k): hist[k] for k in sorted(hist)},
        "sink_times": hashlib.sha256(
            json.dumps(sorted(result.sink_times.items())).encode()
        ).hexdigest()[:16],
    }
    if len(result.outputs) == 1:
        out["ii"] = result.initiation_interval()
    return out


def compare_values(part: str, outputs: dict[str, list],
                   expected: dict[str, list]) -> list[str]:
    if outputs == expected:
        return []
    bad = sorted(
        s for s in set(outputs) | set(expected)
        if outputs.get(s) != expected.get(s)
    )
    return [f"{part}: streams {bad[:4]} differ from the oracle"]


class Workload:
    """Common shape; subclasses fill in the five methods."""

    name = ""
    #: the timed parts of one op, in the order they run
    parts: tuple[str, ...] = ()
    #: whether the program starts processes of its own (then an op
    #: runs on every CPU, else on the one its round process is on)
    own_processes = False

    def __init__(self, data: dict[str, Any], tracer: Tracer) -> None:
        self.data = data
        self.tracer = tracer

    @classmethod
    def generate(cls, seed: int) -> dict[str, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_part(self, part: str) -> Any:
        raise NotImplementedError

    def run_op(self) -> dict[str, Any]:
        """One whole op, untimed: what every part observed."""
        return {part: self.run_part(part) for part in self.parts}

    def check(self, obs: dict[str, Any]) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# figure workloads
# ----------------------------------------------------------------------

class _Figures(Workload):
    """One part per figure: compile it (or not), run it."""

    m = 0
    backend = "event"

    @classmethod
    def generate(cls, seed: int) -> dict[str, Any]:
        from repro.val import parse_program, run_program
        from repro.workloads import SOURCES, figure_workload

        data = {}
        for fig in cls.parts:
            wl = figure_workload(fig)
            cp = wl.compile(m=cls.m)
            inputs = wl.make_inputs(cp, seed=seed)
            reference = run_program(
                parse_program(SOURCES[wl.source_name]),
                inputs={k: (cp.input_specs[k].lo, v)
                        for k, v in inputs.items()},
                params={"m": cls.m},
            )
            data[fig] = {
                "inputs": inputs,
                "expected": {k: v.to_list() for k, v in reference.items()},
            }
        return data

    def _compile(self, fig: str) -> Any:
        from repro import compile_program
        from repro.workloads import SOURCES, figure_workload

        wl = figure_workload(fig)
        with self.tracer.span("compiler.compile_program"):
            return compile_program(
                SOURCES[wl.source_name], params={"m": self.m},
                **wl.compile_opts,
            )

    def _run(self, fig: str, program: Any) -> Any:
        import repro

        with self.tracer.span("api.run"):
            return repro.run(program, self.data[fig]["inputs"],
                             backend=self.backend)

    def check(self, obs: dict[str, tuple[Any, Any]]) -> Outcome:
        out = Outcome(0, {})
        for fig, (program, result) in obs.items():
            out.problems += compare_values(
                fig, result.outputs, self.data[fig]["expected"]
            )
            out.elements += sum(len(v) for v in result.outputs.values())
            stats = modeled_stats(result)
            stats["cells"] = program.cell_count
            stats["buffer_stages"] = (
                program.balance.inserted_stages if program.balance else 0
            )
            out.modeled[fig] = stats
        return out


class FigsEvent(_Figures):
    """Pre-compiled figure graphs, long streams, event backend."""

    name = "figs_event"
    parts = ("fig2", "fig4", "fig5", "fig6", "fig7")
    m = 600

    def setup(self) -> None:
        self.programs = {fig: self._compile(fig) for fig in self.parts}

    def run_part(self, part: str) -> tuple[Any, Any]:
        return self.programs[part], self._run(part, self.programs[part])


class FigsCompiled(_Figures):
    """Val source text to verified outputs through the whole frontend
    and the steady-state ("compiled") backend, every op."""

    name = "figs_compiled"
    # fig5's data-dependent control makes the backend fall back to the
    # event loop, which figs_event already measures
    parts = ("fig2", "fig4", "fig6", "fig7")
    m = 10_000
    backend = "compiled"

    def setup(self) -> None:
        pass

    def run_part(self, part: str) -> tuple[Any, Any]:
        program = self._compile(part)
        return program, self._run(part, program)

    def check(self, obs: dict[str, tuple[Any, Any]]) -> Outcome:
        out = super().check(obs)
        for fig, (_cp, result) in obs.items():
            if not result.engine.schedule.jumps:
                out.problems.append(
                    f"{fig}: compiled backend fell back: "
                    f"{result.engine.schedule.fallback_reason}"
                )
        return out


# ----------------------------------------------------------------------
# wide graph, sharded, checkpointed
# ----------------------------------------------------------------------

class ChainsCkpt(Workload):
    """5 250-cell chain graph on two warm shard workers with
    coordinated delta checkpoints, then a resume from the newest set."""

    name = "chains_ckpt"
    parts = ("run", "resume")
    own_processes = True
    n_chains, depth, m = 125, 40, 4
    delta_every = 4

    @classmethod
    def build_graph(cls) -> Any:
        from repro.workloads import parallel_chain_graph

        return parallel_chain_graph(cls.n_chains, cls.depth, cls.m)

    @classmethod
    def generate(cls, seed: int) -> dict[str, Any]:
        # the generator is deterministic (pattern sources carry their
        # own values), so the seed changes nothing here; identity
        # chains must deliver exactly the source values
        graph = cls.build_graph()
        by_name = {c.name: c for c in graph.cells.values()}
        return {"expected": {
            f"y{c}": list(by_name[f"src{c}"].params["values"])
            for c in range(cls.n_chains)
        }}

    def setup(self) -> None:
        from repro.machine import MachineConfig, ShardConfig

        self.graph = self.build_graph()
        # unit-time config: the one under which K shards are
        # bit-identical to one machine (each shard has its own PEs)
        self.config = MachineConfig.unit_time()
        self.shards = ShardConfig(shards=2, processes=True)
        # spawns the two pool workers and tells us the run length
        plain = self.run_plain()
        # four sets (one base, three deltas), the newest well before
        # the end so the resumed run still has work to do
        self.interval = plain.cycles // 5 + 1
        self.ops = 0
        self.last_dir = ""

    def run_plain(self, shards: Any = None) -> Any:
        import repro

        return repro.run(
            self.graph, backend="sharded", config=self.config,
            shard_config=shards or self.shards,
        )

    def checkpoint_config(self, directory: str) -> Any:
        from repro import CheckpointConfig

        return CheckpointConfig(
            directory, interval=self.interval,
            delta_every=self.delta_every, retain=0,
        )

    def run_part(self, part: str) -> Any:
        import repro

        if part == "resume":
            with self.tracer.span("api.resume"):
                return repro.resume(self.last_dir, shard_config=self.shards)
        if self.last_dir:
            shutil.rmtree(self.last_dir)
        # fixed-width relative name: the directory string is pickled
        # into every snapshot, so its length is part of the byte counts
        self.last_dir = f"ck{self.ops:06d}"
        self.ops += 1
        with self.tracer.span("api.run"):
            return repro.run(
                self.graph, backend="sharded", config=self.config,
                shard_config=self.shards,
                checkpoint=self.checkpoint_config(self.last_dir),
            )

    def check(self, obs: dict[str, Any]) -> Outcome:
        first, resumed = obs["run"], obs["resume"]
        out = Outcome(0, {})
        for part, result in (("run", first), ("resume", resumed)):
            out.problems += compare_values(
                part, result.outputs, self.data["expected"]
            )
            out.elements += sum(len(v) for v in result.outputs.values())
            out.modeled[part] = modeled_stats(result)
        ck = first.stats.checkpoints
        out.modeled["checkpoint"] = {
            "snapshots": ck.snapshots_written,
            "delta_snapshots": ck.delta_snapshots,
            "bytes_full": ck.bytes_written - ck.delta_bytes_written,
            "bytes_delta": ck.delta_bytes_written,
            "newest_set_cycle": ck.last_snapshot_cycle,
            "windows": first.engine.windows_run,
            "worker_spawns": first.engine.worker_spawns,
        }
        sets = ck.snapshots_written // 2
        if sets < 4 or ck.delta_snapshots // 2 < 2:
            out.problems.append(f"only {sets} coordinated sets landed")
        if ck.last_snapshot_cycle > 0.9 * first.cycles:
            out.problems.append("newest set leaves < 10 % of the run")
        return out

    def teardown(self) -> None:
        import repro

        repro.shutdown_worker_pool()


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------

class ServeBurst(Workload):
    """``python -m repro serve`` with two pool workers, one client
    connection, waves of 16 outstanding Example-2 jobs."""

    name = "serve_burst"
    parts = ("wave",)
    own_processes = True
    m = 64
    wave = 16
    #: distinct jobs the waves cycle through
    pool = 64

    @classmethod
    def generate(cls, seed: int) -> dict[str, Any]:
        from repro import compile_program
        from repro.val import parse_program, run_program
        from repro.workloads import EXAMPLE2_SOURCE

        cp = compile_program(EXAMPLE2_SOURCE, params={"m": cls.m})
        program = parse_program(EXAMPLE2_SOURCE)
        rng = random.Random(seed)
        jobs = []
        for _ in range(cls.pool):
            inputs = {
                name: [rng.uniform(-1.0, 1.0) for _ in range(spec.length)]
                for name, spec in cp.input_specs.items()
            }
            reference = run_program(
                program,
                inputs={k: (cp.input_specs[k].lo, v)
                        for k, v in inputs.items()},
                params={"m": cls.m},
            )
            jobs.append({
                "inputs": inputs,
                "expected": {k: v.to_list() for k, v in reference.items()},
            })
        return {"jobs": jobs}

    def setup(self) -> None:
        import repro

        self.next_job = 0
        self.client = None
        # relative paths (the round runs inside its scratch directory)
        # keep the unix socket name under the 108-byte limit
        with open("daemon.log", "wb") as log:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--socket", "s.sock", "--dir", "journal", "--workers", "2"],
                env=child_env(), stdout=subprocess.DEVNULL, stderr=log,
            )
        self.client = repro.connect("unix:s.sock", timeout=30.0)
        deadline = time.monotonic() + 60
        while True:
            try:
                # the socket file appears at bind(), before listen()
                self.client.healthz()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if (self.daemon.poll() is not None
                        or time.monotonic() > deadline):
                    raise RuntimeError("serve daemon did not come up; see "
                                       f"{os.path.abspath('daemon.log')}")
                time.sleep(0.005)

    def run_part(self, part: str) -> list[tuple[dict, dict]]:
        from repro.workloads import EXAMPLE2_SOURCE

        span = self.tracer.span
        jobs = []
        for _ in range(self.wave):
            jobs.append(self.data["jobs"][self.next_job % self.pool])
            self.next_job += 1
        ids = []
        for job in jobs:
            with span("client.submit"):
                ids.append(self.client.submit(
                    EXAMPLE2_SOURCE, inputs=job["inputs"],
                    params={"m": self.m},
                ))
        records = []
        for job_id in ids:
            with span("client.wait"):
                records.append(self.client.wait(job_id))
        return list(zip(jobs, records))

    def check(self, obs: dict[str, list[tuple[dict, dict]]]) -> Outcome:
        out = Outcome(0, {})
        for job, record in obs["wave"]:
            streams = record["result"]["streams"] if record.get("ok") else {}
            out.problems += compare_values(
                record.get("id", "?"), streams, job["expected"]
            )
            out.elements += sum(len(v) for v in streams.values())
        out.modeled["wave"] = {"jobs": len(obs["wave"]),
                               "elements": out.elements}
        return out

    def stats(self) -> dict[str, Any]:
        return self.client.stats()

    def teardown(self) -> None:
        from repro.serve.protocol import ServeError

        try:
            if self.client is not None and self.daemon.poll() is None:
                self.client.shutdown()
            self.daemon.wait(timeout=15)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            # a daemon that will not leave by itself is killed together
            # with its pool workers (they would otherwise be orphans)
            for pid in proc_tree(self.daemon.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.daemon.wait()
        finally:
            if self.client is not None:
                self.client.close()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FigsEvent, FigsCompiled, ChainsCkpt, ServeBurst)
}

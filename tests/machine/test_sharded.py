"""Tests for the multi-process sharded runner and the partitioner:
partitions, adaptive windows, the warm worker pool, guards, and the
fan-out of every per-shard command.

Bit-identity with the single machine -- every program, shard count,
partition, exact config and fault plan, in process and over real
worker processes -- is checked by the differential oracle
(tests/integration/test_oracle.py).
"""

import os
import re
import signal
from typing import Optional

import pytest

import repro
from repro.analysis import Partition, PartitionError, partition_graph
from repro.checkpoint import (
    CheckpointConfig,
    fsck_directory,
    read_manifest,
)
from repro.errors import (
    ChainBrokenError,
    ManifestError,
    ReproError,
    SimulationError,
    SnapshotError,
)
from repro.faults import FaultPlan, ShardFault
from repro.graph import DataflowGraph
from repro.machine import (
    Machine,
    MachineConfig,
    RecoveryPolicy,
    ShardConfig,
    ShardedRunner,
)
from repro.machine import shard_runner, shard_worker, sharded
from repro.workers import (
    BackoffPolicy,
    WorkerFailure,
    pooled_worker_count,
    shutdown_worker_pool,
)
from repro.workloads import parallel_chain_graph
from tests.util import (
    FIGS,
    ClassicLockstep,
    in_process_run,
    program_graph,
    reference,
)

SHARD_COUNTS = [1, 2, 4]


class TestPartitioner:
    def test_every_cell_owned_and_balanced(self):
        for name in FIGS:
            graph, _ = program_graph(name)
            for k in SHARD_COUNTS:
                part = partition_graph(graph, k)
                assert set(part.owner) == set(graph.cells)
                assert len(part.sizes) == k
                assert all(size >= 1 for size in part.sizes)

    def test_cut_arcs_cross_shards(self):
        graph, _ = program_graph("fig6")
        part = partition_graph(graph, 4)
        for aid in part.cut_arcs:
            arc = graph.arcs[aid]
            assert part.owner[arc.src] != part.owner[arc.dst]
        for aid, arc in graph.arcs.items():
            if aid not in part.cut_arcs:
                assert part.owner[arc.src] == part.owner[arc.dst]

    def test_acyclic_uses_levels_cyclic_uses_scc(self):
        acyclic, _ = program_graph("fig2")
        assert partition_graph(acyclic, 2).scheme == "levels"
        cyclic, _ = program_graph("fig7")   # Todd for-iter feedback
        # cyclic graphs condense to their SCC DAG and split along it
        # instead of falling back to a blind round-robin cut
        assert partition_graph(cyclic, 2).scheme == "scc"

    def test_k1_is_single(self):
        graph, _ = program_graph("fig2")
        part = partition_graph(graph, 1)
        assert part.scheme == "single"
        assert part.cut_arcs == ()
        assert set(part.owner.values()) == {0}

    def test_bad_requests(self):
        graph, _ = program_graph("fig2")
        with pytest.raises(PartitionError):
            partition_graph(graph, 0)
        for scheme in ("bogus", "levels"):
            with pytest.raises(PartitionError, match="unknown partition"):
                partition_graph(graph, 2, scheme=scheme)
        with pytest.raises(PartitionError):
            partition_graph(DataflowGraph(), 2)

    def test_more_shards_than_cells_fails(self):
        g = DataflowGraph()
        s = g.add_source("s", stream="x")
        sink = g.add_sink("out", stream="y", limit=1)
        g.connect(s, sink, 0)
        with pytest.raises(PartitionError):
            repro.run(
                g, {"x": [1.0]}, backend="sharded",
                shard_config=ShardConfig(shards=8, processes=False),
            )


class TestAdaptiveWindows:
    """Adaptive lockstep horizons: fewer barriers, same bits."""

    def test_adaptive_takes_fewer_barriers(self):
        graph, streams = program_graph("fig2")
        adaptive = in_process_run(graph, streams, 2)
        fixed = in_process_run(graph, streams, 2, cls=ClassicLockstep)
        assert adaptive.windows_run < fixed.windows_run
        # no cut, no barrier: disjoint chains finish in one window
        chains = parallel_chain_graph(n_chains=4, depth=6, m=3)
        runner = in_process_run(chains, None, 2)
        assert runner.partition.cut_arcs == ()
        assert runner.windows_run == 1

    def test_serialized_config_runs_adaptive_windows(self):
        # issue intervals serialize same-cycle work, yet the one window
        # rule still gives the classic lockstep's bits in fewer barriers
        graph, streams = program_graph("fig2")
        config = MachineConfig()
        machine = Machine(graph, config, inputs=streams)
        machine.run()
        runs = [in_process_run(graph, streams, 2, config=config, cls=cls)
                for cls in (ShardedRunner, ClassicLockstep)]
        for runner in runs:
            assert runner.outputs() == machine.outputs()
            for s in machine.outputs():
                assert (runner.sink_arrival_times(s)
                        == machine.sink_arrival_times(s))
        adaptive, fixed = runs
        assert adaptive.stats() == fixed.stats()
        assert adaptive.windows_run < fixed.windows_run


class TestWarmPool:
    """Worker processes outlive a run and are reused by the next."""

    def setup_method(self):
        # earlier process-mode tests may have parked workers for the
        # same figure graphs; spawn counts below assume a cold pool
        shutdown_worker_pool()

    def teardown_method(self):
        shutdown_worker_pool()

    def test_second_run_spawns_nothing(self):
        graph, streams = program_graph("fig2")
        sc = ShardConfig(shards=2, processes=True)
        first = repro.run(
            graph, streams, backend="sharded",
            config=MachineConfig.unit_time(), shard_config=sc,
        ).engine
        assert first.worker_spawns == 2
        assert pooled_worker_count() == 2
        second = repro.run(
            graph, streams, backend="sharded",
            config=MachineConfig.unit_time(), shard_config=sc,
        ).engine
        assert second.worker_spawns == 0
        assert second.worker_reuses == 2
        assert second.outputs() == first.outputs()

    def test_pool_reuse_across_workloads(self):
        # the pool key is the graph identity, not the shard count:
        # a different graph must not adopt stale workers
        g2, s2 = program_graph("fig2")
        g4, s4 = program_graph("fig4")
        sc = ShardConfig(shards=2, processes=True)
        repro.run(
            g2, s2, backend="sharded", config=MachineConfig.unit_time(),
            shard_config=sc,
        )
        other = repro.run(
            g4, s4, backend="sharded", config=MachineConfig.unit_time(),
            shard_config=sc,
        ).engine
        assert other.worker_reuses == 0
        assert other.worker_spawns == 2

    def test_graph_edited_in_place_misses_the_pool(self):
        # parked workers hold the graph they were forked with; the same
        # graph *object* with new source values is a different graph
        graph = parallel_chain_graph(4, 5, 4)
        cfg = MachineConfig.unit_time()
        sc = ShardConfig(shards=2, processes=True)
        first = repro.run(graph, backend="sharded", config=cfg,
                          shard_config=sc)
        assert first.outputs["y0"] == [0.0, 3.5, 7.0, 10.5]
        src0 = next(c for c in graph.cells.values() if c.name == "src0")
        src0.params["values"] = [100.0, 200.0, 300.0, 400.0]
        second = repro.run(graph, backend="sharded", config=cfg,
                           shard_config=sc)
        local = repro.run(
            graph, backend="sharded", config=cfg,
            shard_config=ShardConfig(shards=2, processes=False),
        )
        assert second.outputs["y0"] == [100.0, 200.0, 300.0, 400.0]
        assert second.outputs == local.outputs
        assert second.engine.worker_reuses == 0
        # ... and once unchanged again, the same object reuses
        third = repro.run(graph, backend="sharded", config=cfg,
                          shard_config=sc)
        assert third.engine.worker_spawns == 0
        assert third.engine.worker_reuses == 2
        assert third.outputs == second.outputs

    def test_shutdown_empties_pool(self):
        graph, streams = program_graph("fig2")
        repro.run(
            graph, streams, backend="sharded",
            config=MachineConfig.unit_time(),
            shard_config=ShardConfig(shards=2, processes=True),
        )
        assert pooled_worker_count() > 0
        shutdown_worker_pool()
        assert pooled_worker_count() == 0


class TestWorkersOwnTheirMachines:
    """The coordinator holds the graph and the start commands only:
    every shard machine is built or loaded by its own worker."""

    def setup_method(self):
        shutdown_worker_pool()

    def teardown_method(self):
        shutdown_worker_pool()

    def test_coordinator_builds_and_loads_no_shard_machine(
            self, tmp_path, monkeypatch):
        built, loaded = [], []
        init = sharded.ShardMachine.__init__
        load = sharded.load_shard_machine

        def counting_init(machine, *args, **kwargs):
            built.append(kwargs.get("shard_index"))
            init(machine, *args, **kwargs)

        def counting_load(path):
            loaded.append(path)
            return load(path)

        # forked workers count in their own memory: only the
        # coordinator's calls reach these lists
        monkeypatch.setattr(sharded.ShardMachine, "__init__", counting_init)
        for module in (sharded, shard_runner, shard_worker):
            monkeypatch.setattr(module, "load_shard_machine", counting_load,
                                raising=False)
        graph = parallel_chain_graph(6, 8, 4)
        cfg = MachineConfig.unit_time()
        sc = ShardConfig(shards=2, processes=True)
        plain = repro.run(graph, backend="sharded", config=cfg,
                          shard_config=ShardConfig(shards=2,
                                                   processes=False))
        built.clear()
        run = repro.run(
            graph, backend="sharded", config=cfg, shard_config=sc,
            checkpoint=CheckpointConfig(tmp_path / "ck", interval=5,
                                        delta_every=2),
        )
        resumed = repro.resume(tmp_path / "ck", shard_config=sc)
        assert run.outputs == resumed.outputs == plain.outputs
        assert run.sink_times == resumed.sink_times == plain.sink_times
        assert (len(built), len(loaded)) == (0, 0)

    def test_a_damaged_member_file_stays_a_snapshot_error(self, tmp_path):
        # a worker's load error crosses the pipe as plain data and must
        # come back as the snapshot error it was, not a SimulationError
        damaged = tmp_path / "ckpt-000000000010.shard0.snap"
        damaged.write_bytes(b"not a snapshot")
        graph, _ = program_graph("fig2")
        reply = shard_worker.LocalShard(0, graph)(
            ("load", str(damaged), None)
        )
        assert reply[:2] == ("error", "SnapshotError")
        error = shard_worker.shard_error(*reply[1:])
        assert type(error) is SnapshotError
        assert str(error) == reply[2]
        for cls in (ChainBrokenError, ManifestError):
            error = shard_worker.shard_error(cls.__name__, "broken", -1)
            assert type(error) is cls and str(error) == "broken"

    @pytest.mark.parametrize("case", [
        "unit_faults", "unprotected_faults", "owner", "inputs", "graph",
    ])
    def test_refusals_stay_in_the_coordinator(self, case, monkeypatch):
        """Each argument a shard machine would refuse is refused by the
        runner's constructor, with the machine's own type and message,
        before any endpoint exists."""
        graph, streams = program_graph("fig2")
        owner = partition_graph(graph, 2).owner
        args = dict(owner=owner, inputs=streams, fault_plan=None)
        if case == "unit_faults":
            args["fault_plan"] = FaultPlan(
                seed=1, unit_faults=({"unit": "fu", "index": 0},),
            )
        elif case == "unprotected_faults":
            args["fault_plan"] = FaultPlan(seed=1, drop_result=0.05)
            args["recovery"] = False
        elif case == "owner":
            args["owner"] = {**owner, max(owner) + 1: 0}
        elif case == "inputs":
            args["inputs"] = {}
        else:
            graph = graph.copy()
            graph.add_source("idle", stream=next(iter(streams)))
            args["owner"] = {cid: 0 for cid in graph.cells}
        with pytest.raises(ReproError) as built:
            sharded.ShardMachine(graph, shard_index=0, n_shards=2, **args)
        monkeypatch.setattr(shard_runner, "Worker", None)   # no fork
        with pytest.raises(type(built.value), match=re.escape(
                str(built.value))):
            ShardedRunner(
                graph, args["inputs"], fault_plan=args["fault_plan"],
                recovery=args.get("recovery", True),
                partition=Partition(k=2, scheme="given",
                                    owner=args["owner"], cut_arcs=()),
                shard_config=ShardConfig(shards=2, processes=True),
            )


class TestShardedGuards:
    def test_an_owner_map_missing_a_cell_is_refused(self):
        # the ready scan and the linked routing read the map: it is
        # checked before either, not met as a KeyError inside them
        graph, streams = program_graph("fig2")
        owner = partition_graph(graph, 2).owner
        del owner[next(iter(graph.cells))]
        with pytest.raises(SimulationError,
                           match="owner map does not cover the graph"):
            sharded.ShardMachine(graph, shard_index=0, n_shards=2,
                                 owner=owner, inputs=streams)

    def test_unprotected_packets_cross_the_cut(self):
        # a plan with no packet faults and recovery off takes the
        # unprotected send path, whose results are routed like the rest
        graph, streams = program_graph("fig2")
        plain = Machine(graph, inputs=streams)
        plain.run()
        runner = ShardedRunner(
            graph, streams, fault_plan=FaultPlan(), recovery=False,
            shard_config=ShardConfig(shards=2, processes=False),
        )
        runner.run()
        assert runner.outputs() == plain.outputs()

    def test_unit_faults_rejected_for_k_gt_1(self):
        graph, streams = program_graph("fig2")
        plan = FaultPlan(seed=1, unit_faults=({"unit": "fu", "index": 0},))
        with pytest.raises(SimulationError):
            repro.run(
                graph, streams, backend="sharded", faults=plan,
                shard_config=ShardConfig(shards=2, processes=False),
            )

    def test_explicit_partition_object(self):
        graph, streams = program_graph("fig2")
        part = partition_graph(graph, 2)
        assert isinstance(part, Partition)
        runner = ShardedRunner(
            graph, streams, partition=part,
            config=MachineConfig.unit_time(),
            shard_config=ShardConfig(shards=2, processes=False),
        )
        runner.run()
        out = runner.outputs()
        ref_out, _ = reference(graph, streams)
        assert out == ref_out

    def test_runner_cannot_run_twice(self):
        graph, streams = program_graph("fig2")
        runner = ShardedRunner(
            graph, streams, config=MachineConfig.unit_time(),
            shard_config=ShardConfig(shards=2, processes=False),
        )
        runner.run()
        with pytest.raises(SimulationError):
            runner.run()


class _RecordingEndpoint:
    """In-process stand-in for a forked shard worker: runs the shard
    handler on ``post`` (as a real worker would, concurrently) and
    records every post and wait.  ``dies_on = (shard, op, n)`` makes
    the wait for ``op``'s ``n``-th post to ``shard`` report a crashed
    worker."""

    log: list = []
    dies_on: Optional[tuple] = None

    def __init__(self, handle, key):
        self.handle, self.key, self.alive = handle, key, True
        self.pid = id(self)

    @classmethod
    def fork(cls, handle, *, name, key=None):
        return cls(handle, key)

    def post(self, cmd):
        self.op, self.shard = cmd[0], self.handle.shard
        self.log.append(("post", self.op, self.shard))
        self.reply = self.handle(cmd)

    def wait(self, deadline):
        self.log.append(("wait", self.op, self.shard))
        posts = self.log.count(("post", self.op, self.shard))
        if type(self).dies_on == (self.shard, self.op, posts):
            self.alive = False
            raise WorkerFailure("crash", f"pid {self.pid} died", 137)
        return self.reply

    def close(self):
        self.alive = False


class TestFanOut:
    """Every per-shard command reaches all K workers before the
    coordinator waits on the first of them."""

    def setup_method(self):
        shutdown_worker_pool()

    def teardown_method(self):
        shutdown_worker_pool()

    def _run(self, tmp_path, graph, streams, name):
        runner = ShardedRunner(
            graph, streams, config=MachineConfig.unit_time(),
            shard_config=ShardConfig(
                shards=3, processes=True,
                recovery=RecoveryPolicy(
                    enabled=True, backoff=BackoffPolicy(base=0.0)
                ),
            ),
            checkpoint=CheckpointConfig(tmp_path / name, interval=10),
        )
        runner.run()
        return runner

    def test_every_command_posts_to_all_before_waiting(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(shard_runner, "Worker", _RecordingEndpoint)
        monkeypatch.setattr(_RecordingEndpoint, "log", [])
        graph, streams = program_graph("fig7", m=16)
        first = self._run(tmp_path, graph, streams, "a")
        # the second run over the same graph reclaims the parked
        # workers; its shard 1 dies answering the cycle-20 snapshot,
        # shard 1 is forked anew and all three reload the cycle-10 set
        _RecordingEndpoint.log.clear()
        monkeypatch.setattr(_RecordingEndpoint, "dies_on",
                            (1, "snapshot", 2))
        second = self._run(tmp_path, graph, streams, "b")
        assert second.worker_reuses == 3
        assert second.stats().recovery.rollback_cycles == [10]
        assert first.outputs() == second.outputs()
        assert first.outputs() == reference(graph, streams)[0]
        log = _RecordingEndpoint.log
        rounds: dict = {}
        i = 0
        while i < len(log):
            phase, op, _ = log[i]
            j = i
            while j < len(log) and log[j][:2] == (phase, op):
                j += 1
            if phase == "post":
                # one round: its posts, then (at most) as many waits
                assert log[j][:2] == ("wait", op)
                rounds.setdefault(op, set()).add(j - i)
            i = j
        assert rounds == {
            "start": {3}, "window": {3}, "snapshot": {3},
            # fresh forks and reclaimed workers alike build their own
            # machine; the replacement reloads with the survivors
            "rebuild": {3}, "finish": {3}, "load": {3},
        }

    def test_parked_worker_killed_before_reclaim_is_replaced(self):
        graph, streams = program_graph("fig2")
        sc = ShardConfig(shards=2, processes=True)
        cfg = MachineConfig.unit_time()
        first = repro.run(graph, streams, backend="sharded", config=cfg,
                          shard_config=sc)
        unpark = shard_runner.unpark
        killed = []

        def unpark_then_kill(key):
            # the first reclaimed worker dies after the pool's liveness
            # check, so its rebuild reply never comes
            worker = unpark(key)
            if not killed:
                os.kill(worker.pid, signal.SIGKILL)
                worker.proc.join(5.0)
                killed.append(worker.pid)
            return worker

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shard_runner, "unpark", unpark_then_kill)
            second = repro.run(graph, streams, backend="sharded",
                               config=cfg, shard_config=sc)
        assert killed
        assert second.engine.worker_spawns == 1
        assert second.engine.worker_reuses == 1
        assert second.outputs == first.outputs
        assert killed[0] not in second.engine.worker_pids

    def test_kill_during_snapshot_rolls_back_to_last_complete_set(
            self, tmp_path):
        graph, streams = program_graph("fig7", m=16)
        plan = FaultPlan(
            shard_faults=(ShardFault(shard=1, cycle=30, kind="kill"),),
        )
        runner = ShardedRunner(
            graph, streams, config=MachineConfig.unit_time(),
            fault_plan=plan,
            shard_config=ShardConfig(
                shards=2, processes=True,
                recovery=RecoveryPolicy(
                    enabled=True, backoff=BackoffPolicy(base=0.0)
                ),
            ),
            checkpoint=CheckpointConfig(tmp_path / "snaps", interval=10,
                                        retain=0, delta_every=3),
        )
        runner.run()
        # the empty plan arms the reliability layer as the chaos plan does
        ref_out, ref_times = reference(graph, streams, FaultPlan())
        assert runner.outputs() == ref_out
        assert {s: runner.sink_arrival_times(s) for s in ref_out} == ref_times
        rec = runner.stats().recovery
        assert rec.detections == 1
        assert rec.rollback_cycles == [20]
        # the interrupted set was replayed and committed once, as a base
        manifest = read_manifest(tmp_path / "snaps", "sharded")
        kinds = {e["cycle"]: e["kind"] for e in manifest["coordinated"]}
        assert kinds[10] == "base" and kinds[20] == "delta"
        assert kinds[30] == "base"
        assert fsck_directory(tmp_path / "snaps")["ok"]

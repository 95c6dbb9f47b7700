"""Tests for the multi-process sharded runner and the partitioner.

The load-bearing property is *bit-identical determinism*: for every
figure workload and every shard count, the sharded runner must produce
exactly the outputs AND sink arrival times of the single-process
machine -- with and without a seeded fault plan, in-process and over
real worker processes, and after killing a worker and resuming from a
coordinated snapshot (covered in tests/checkpoint/test_coordinated.py).
"""

import pytest

import repro
from repro.analysis import Partition, PartitionError, partition_graph
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.faults.plan import FaultPlanError
from repro.graph import DataflowGraph
from repro.machine import (
    Machine,
    MachineConfig,
    ShardConfig,
    ShardedRunner,
    shutdown_worker_pool,
)
from repro.machine.sharded import pooled_worker_count
from repro.workloads import figure_workload, parallel_chain_graph

FIGS = ["fig2", "fig4", "fig5", "fig6", "fig7"]
SHARD_COUNTS = [1, 2, 4]

#: packet-fault plan usable on sharded runs (keyed derivation)
KEYED_PLAN = FaultPlan(
    seed=7,
    drop_result=0.08,
    dup_result=0.05,
    corrupt_result=0.04,
    drop_ack=0.08,
    dup_ack=0.05,
    derivation="keyed",
)


def _figure_graph(name, m=12):
    wl = figure_workload(name)
    cp = wl.compile(m=m)
    return cp.graph, cp.prepare_inputs(wl.make_inputs(cp))


def _reference(graph, streams, plan=None):
    machine = Machine(
        graph, MachineConfig.unit_time(), inputs=streams, fault_plan=plan
    )
    machine.run()
    outputs = machine.outputs()
    times = {s: machine.sink_arrival_times(s) for s in outputs}
    return outputs, times


class TestPartitioner:
    def test_every_cell_owned_and_balanced(self):
        for name in FIGS:
            graph, _ = _figure_graph(name)
            for k in SHARD_COUNTS:
                part = partition_graph(graph, k)
                assert set(part.owner) == set(graph.cells)
                assert len(part.sizes) == k
                assert all(size >= 1 for size in part.sizes)

    def test_cut_arcs_cross_shards(self):
        graph, _ = _figure_graph("fig6")
        part = partition_graph(graph, 4)
        for aid in part.cut_arcs:
            arc = graph.arcs[aid]
            assert part.owner[arc.src] != part.owner[arc.dst]
        for aid, arc in graph.arcs.items():
            if aid not in part.cut_arcs:
                assert part.owner[arc.src] == part.owner[arc.dst]

    def test_acyclic_uses_levels_cyclic_uses_scc(self):
        acyclic, _ = _figure_graph("fig2")
        assert partition_graph(acyclic, 2).scheme == "levels"
        cyclic, _ = _figure_graph("fig7")   # Todd for-iter feedback
        # cyclic graphs condense to their SCC DAG and split along it
        # instead of falling back to a blind round-robin cut
        assert partition_graph(cyclic, 2).scheme == "scc"

    def test_levels_scheme_rejects_cyclic(self):
        cyclic, _ = _figure_graph("fig7")
        with pytest.raises(PartitionError):
            partition_graph(cyclic, 2, scheme="levels")

    def test_k1_is_single(self):
        graph, _ = _figure_graph("fig2")
        part = partition_graph(graph, 1)
        assert part.scheme == "single"
        assert part.cut_arcs == ()
        assert set(part.owner.values()) == {0}

    def test_bad_requests(self):
        graph, _ = _figure_graph("fig2")
        with pytest.raises(PartitionError):
            partition_graph(graph, 0)
        with pytest.raises(PartitionError):
            partition_graph(graph, 2, scheme="bogus")
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


class TestDeterminismMatrix:
    """Every figure x K in {1, 2, 4}: bit-identical to single-process."""

    @pytest.mark.parametrize("name", FIGS)
    def test_clean(self, name):
        graph, streams = _figure_graph(name)
        ref_out, ref_times = _reference(graph, streams)
        for k in SHARD_COUNTS:
            res = repro.run(
                graph, streams, backend="sharded",
                config=MachineConfig.unit_time(),
                shard_config=ShardConfig(shards=k, processes=False),
            )
            out, runner = res.outputs, res.engine
            assert out == ref_out, f"{name} K={k} outputs"
            for s in ref_out:
                assert runner.sink_arrival_times(s) == ref_times[s], (
                    f"{name} K={k} sink times for {s}"
                )

    @pytest.mark.parametrize("name", FIGS)
    def test_under_faults(self, name):
        graph, streams = _figure_graph(name)
        ref_out, ref_times = _reference(graph, streams, plan=KEYED_PLAN)
        for k in SHARD_COUNTS:
            res = repro.run(
                graph, streams, backend="sharded", faults=KEYED_PLAN,
                config=MachineConfig.unit_time(),
                shard_config=ShardConfig(shards=k, processes=False),
            )
            out, stats, runner = res.outputs, res.stats, res.engine
            assert out == ref_out, f"{name} K={k} faulty outputs"
            for s in ref_out:
                assert runner.sink_arrival_times(s) == ref_times[s], (
                    f"{name} K={k} faulty sink times for {s}"
                )
            assert stats.faults is not None

    def test_real_processes_match(self):
        # one clean + one faulty case over actual worker processes
        for name, plan in [("fig2", None), ("fig7", KEYED_PLAN)]:
            graph, streams = _figure_graph(name)
            ref_out, ref_times = _reference(graph, streams, plan=plan)
            res = repro.run(
                graph, streams, backend="sharded", faults=plan,
                config=MachineConfig.unit_time(),
                shard_config=ShardConfig(shards=4, processes=True),
            )
            out, runner = res.outputs, res.engine
            assert out == ref_out
            for s in ref_out:
                assert runner.sink_arrival_times(s) == ref_times[s]

    def test_default_config_matches_too(self):
        # non-unit latencies exercise a different lookahead (rn_delay)
        graph, streams = _figure_graph("fig4")
        machine = Machine(graph, inputs=streams)
        machine.run()
        ref_out = machine.outputs()
        ref_times = {s: machine.sink_arrival_times(s) for s in ref_out}
        res = repro.run(
            graph, streams, backend="sharded",
            shard_config=ShardConfig(shards=4, processes=False),
        )
        out, runner = res.outputs, res.engine
        assert out == ref_out
        for s in ref_out:
            assert runner.sink_arrival_times(s) == ref_times[s]


def _in_process_run(graph, streams, k, plan=None, config=None,
                    fixed_cadence=False):
    """One in-process sharded run.  ``fixed_cadence`` overrides the
    window rule the runner derived from the MachineConfig, to get the
    classic ``L = max(1, rn_delay)`` lockstep as a reference."""
    runner = ShardedRunner(
        graph, streams, fault_plan=plan,
        config=config or MachineConfig.unit_time(),
        shard_config=ShardConfig(shards=k, processes=False),
    )
    if fixed_cadence:
        runner._fixed_cadence = True
    runner.run()
    return runner


class TestAdaptiveWindows:
    """Adaptive lockstep horizons: fewer barriers, same bits."""

    @pytest.mark.parametrize("name", FIGS)
    @pytest.mark.parametrize("plan", [None, KEYED_PLAN],
                             ids=["clean", "faults"])
    def test_adaptive_matches_fixed(self, name, plan):
        graph, streams = _figure_graph(name)
        ref_out, ref_times = _reference(graph, streams, plan=plan)
        for k in (2, 4):
            runs = {}
            for window in ("adaptive", "fixed"):
                runner = _in_process_run(
                    graph, streams, k, plan,
                    fixed_cadence=window == "fixed",
                )
                assert runner.outputs() == ref_out, (
                    f"{name} K={k} {window} outputs"
                )
                for s in ref_out:
                    assert runner.sink_arrival_times(s) == ref_times[s], (
                        f"{name} K={k} {window} sink times for {s}"
                    )
                runs[window] = runner
            # unit_time never serializes within a cycle, so the runner
            # chose adaptive horizons on its own
            assert not runs["adaptive"]._fixed_cadence
            # the whole point: adaptive horizons batch multiple fixed
            # cadence steps per barrier
            assert (runs["adaptive"].windows_run
                    <= runs["fixed"].windows_run)

    def test_adaptive_takes_fewer_barriers(self):
        graph, streams = _figure_graph("fig2")
        adaptive = _in_process_run(graph, streams, 2)
        fixed = _in_process_run(graph, streams, 2, fixed_cadence=True)
        assert adaptive.windows_run < fixed.windows_run
        # no cut, no barrier: disjoint chains finish in one window
        chains = parallel_chain_graph(n_chains=4, depth=6, m=3)
        runner = _in_process_run(chains, None, 2)
        assert runner.partition.cut_arcs == ()
        assert runner.windows_run == 1

    def test_serialized_config_clamps_to_fixed(self):
        # With non-zero issue intervals equal-cycle heap order is
        # timing-relevant, so coarse adaptive windows would shift
        # modeled times; the runner runs the fixed L = max(1, rn_delay)
        # cadence there and only unit-time-style configs go adaptive.
        graph, streams = _figure_graph("fig2")
        config = MachineConfig()
        machine = Machine(graph, config, inputs=streams)
        machine.run()
        serialized = _in_process_run(graph, streams, 2, config=config)
        assert serialized._fixed_cadence
        assert serialized.outputs() == machine.outputs()
        for s in machine.outputs():
            assert (serialized.sink_arrival_times(s)
                    == machine.sink_arrival_times(s))
        # one window per L cycles that hold an event
        lookahead = max(1, config.rn_delay)
        cycles = serialized.stats().cycles
        assert cycles // (2 * lookahead) <= serialized.windows_run
        assert serialized.windows_run <= cycles // lookahead + 1
        assert not _in_process_run(graph, streams, 2)._fixed_cadence


class TestWarmPool:
    """Worker processes outlive a run and are reused by the next."""

    def setup_method(self):
        # earlier process-mode tests may have parked workers for the
        # same figure graphs; spawn counts below assume a cold pool
        shutdown_worker_pool()

    def teardown_method(self):
        shutdown_worker_pool()

    def test_second_run_spawns_nothing(self):
        graph, streams = _figure_graph("fig2")
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
        g2, s2 = _figure_graph("fig2")
        g4, s4 = _figure_graph("fig4")
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
        graph, streams = _figure_graph("fig2")
        repro.run(
            graph, streams, backend="sharded",
            config=MachineConfig.unit_time(),
            shard_config=ShardConfig(shards=2, processes=True),
        )
        assert pooled_worker_count() > 0
        shutdown_worker_pool()
        assert pooled_worker_count() == 0


class TestShardedGuards:
    def test_sequence_plan_rejected_for_k_gt_1(self):
        graph, streams = _figure_graph("fig2")
        plan = FaultPlan(seed=1, drop_result=0.05)   # derivation=sequence
        with pytest.raises((SimulationError, FaultPlanError)):
            repro.run(
                graph, streams, backend="sharded", faults=plan,
                shard_config=ShardConfig(shards=2, processes=False),
            )

    def test_unit_faults_rejected_for_k_gt_1(self):
        graph, streams = _figure_graph("fig2")
        plan = FaultPlan(
            seed=1,
            unit_faults=({"unit": "fu", "index": 0},),
            derivation="keyed",
        )
        with pytest.raises(SimulationError):
            repro.run(
                graph, streams, backend="sharded", faults=plan,
                shard_config=ShardConfig(shards=2, processes=False),
            )

    def test_stats_merge_matches_single_process(self):
        graph, streams = _figure_graph("fig5")
        machine = Machine(
            graph, MachineConfig.unit_time(), inputs=streams
        )
        ref_stats = machine.run()
        stats = repro.run(
            graph, streams, backend="sharded",
            config=MachineConfig.unit_time(),
            shard_config=ShardConfig(shards=4, processes=False),
        ).stats
        assert stats.cycles == ref_stats.cycles
        assert stats.total_firings == ref_stats.total_firings
        assert stats.fire_counts == ref_stats.fire_counts

    def test_explicit_partition_object(self):
        graph, streams = _figure_graph("fig2")
        part = partition_graph(graph, 2)
        assert isinstance(part, Partition)
        runner = ShardedRunner(
            graph, streams, partition=part,
            config=MachineConfig.unit_time(),
            shard_config=ShardConfig(shards=2, processes=False),
        )
        runner.run()
        out = runner.outputs()
        ref_out, _ = _reference(graph, streams)
        assert out == ref_out

    def test_runner_cannot_run_twice(self):
        graph, streams = _figure_graph("fig2")
        runner = ShardedRunner(
            graph, streams, config=MachineConfig.unit_time(),
            shard_config=ShardConfig(shards=2, processes=False),
        )
        runner.run()
        with pytest.raises(SimulationError):
            runner.run()

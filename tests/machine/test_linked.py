"""What the machine links at load -- firing plans, shapes, the handler
table -- is derived state: it never crosses a file or a process, and
the cell shapes the plans special-case fire exactly as on the unit-delay
simulator."""

import dis
import pickle
import sys

import pytest

import repro
from repro.analysis import partition_graph
from repro.errors import SimulationTimeout
from repro.graph import DataflowGraph, Op
from repro.graph.cell import GATE_PORT
from repro.machine import Machine, MachineConfig, ShardConfig, ShardMachine
from repro.machine.shard_runner import ShardedRunner
from repro.workloads import FIGURES, parallel_chain_graph

# written down from the commit before plans existed: the pickled state
# of a machine is an interface (snapshots, worker hand-over), and the
# benchmark pins its size to the byte
MACHINE_STATE = {
    "_acked_count", "_am_rr", "_consumed_count", "_dispatch_pending",
    "_events", "_finish", "_fu_rr", "_live_events", "_outstanding",
    "_pe_queues", "_progress", "_recv_count", "_reliable",
    "_retry_counts", "_rn_next_free", "_send_seq", "_seq",
    "_snap_requests", "_started", "_timeout", "_wd_interval", "_wd_last",
    "_wd_stalls", "am_arrays", "ams", "assignment", "capture",
    "cell_state", "ckpt", "config", "fault_plan", "fus", "graph",
    "injector", "inputs", "now", "packets", "pes", "recovery", "rel",
    "sink_times", "sink_values", "trace", "workload_id",
}
SHARD_STATE = MACHINE_STATE | {"shard_index", "n_shards", "_owner", "_outbox"}

DERIVED = (b"_Linked", b"_Plan", b"_Shape", b"_Handlers", b"Machine._")


def _mid_run_machine():
    cp = FIGURES["fig7"].compile(m=30)
    machine = Machine(
        cp.graph, inputs=FIGURES["fig7"].make_inputs(cp, seed=2)
    )
    with pytest.raises(SimulationTimeout):
        machine.run(max_cycles=120)
    return machine


class TestDerivedStateStaysHome:
    def test_machine_state_keys(self):
        machine = _mid_run_machine()
        assert len(machine._linked) > 0         # plans exist by now...
        assert set(machine.__getstate__()) == MACHINE_STATE    # ...not here
        assert "_linked" in Machine._SNAP_STATIC_ATTRS
        machine.snapshot_sections()             # coverage check passes

    def test_shard_machine_state_keys(self):
        graph = parallel_chain_graph(4, 3, 2)
        owner = partition_graph(graph, 2).owner
        built = [ShardMachine(graph, shard_index=k, n_shards=2, owner=owner)
                 for k in range(2)]
        assert [set(m.__getstate__()) for m in built] == [SHARD_STATE] * 2
        runner = ShardedRunner(
            graph, shard_config=ShardConfig(shards=2, processes=False),
        )
        assert runner.machines == []    # the endpoints build them
        runner.run()
        assert len(runner.machines) == 2
        for m in runner.machines:
            extra = {"_cut_dist"} if "_cut_dist" in m.__dict__ else set()
            assert set(m.__getstate__()) == SHARD_STATE | extra

    def test_pickle_of_a_mid_run_machine_holds_no_derived_object(self):
        machine = _mid_run_machine()
        blob = pickle.dumps(machine, protocol=pickle.HIGHEST_PROTOCOL)
        assert not [name for name in DERIVED if name in blob]
        clone = pickle.loads(blob)
        # relinked on load: the class's own handler table at once,
        # plans on first touch
        assert clone._linked.handlers is machine._linked.handlers
        assert len(clone._linked) == 0
        assert clone.run().cycles == machine.run().cycles
        assert clone.outputs() == machine.outputs()
        assert clone.sink_times == machine.sink_times

    def test_worker_finish_ships_no_plans(self):
        """The coordinator rebuilds each shard from its worker's
        ``finish`` state over its own graph: the state brings no plan
        along, and the rebuilt shard, which never fires, links none."""
        graph = parallel_chain_graph(6, 4, 3)
        try:
            result = repro.run(
                graph, backend="sharded",
                config=MachineConfig.unit_time(),
                shard_config=ShardConfig(shards=2, processes=True),
            )
        finally:
            repro.shutdown_worker_pool()
        plain = repro.run(graph, config=MachineConfig.unit_time())
        assert result.outputs == plain.outputs
        for m in result.engine.machines:
            fired = {c for c, n in m.stats().fire_counts.items() if n}
            sources = {c for c in fired if graph.cells[c].op is Op.SOURCE}
            assert sources < fired
            assert len(m._linked) == 0
            assert set(m.__getstate__()) - {"_cut_dist"} == SHARD_STATE


X = [1.5, -2.0, 4.0, 0.5, 8.0, -1.0]
C = [False, True, False, False, True, True]


def _merge_const_control(truth):
    g = DataflowGraph()
    m = g.add_merge()
    g.set_const(m, 0, truth)
    g.set_const(m, 2 if truth else 1, 99.0)      # the arm never taken
    g.connect(g.add_pattern_source("x", X), m, 1 if truth else 2)
    g.connect(m, g.add_sink("y", stream="y"), 0)
    return g, {"y": X}


def _merge_const_arm():
    g = DataflowGraph()
    m = g.add_merge()
    g.connect(g.add_pattern_source("c", C), m, 0)
    g.connect(g.add_pattern_source("x", X[:3]), m, 1)
    g.set_const(m, 2, -7.0)
    g.connect(m, g.add_sink("y", stream="y"), 0)
    xs = iter(X)
    return g, {"y": [next(xs) if c else -7.0 for c in C]}


def _const_gate(truth):
    g = DataflowGraph()
    cell = g.add_cell(Op.ID, gated=True, consts={GATE_PORT: truth})
    g.connect(g.add_pattern_source("x", X), cell, 0)
    g.connect(cell, g.add_sink("t", stream="t"), 0, tag=True)
    g.connect(cell, g.add_sink("f", stream="f"), 0, tag=False)
    return g, {"t": X if truth else [], "f": [] if truth else X}


def _const_operand(port):
    g = DataflowGraph()
    cell = g.add_cell(Op.SUB, consts={port: 10.0})
    g.connect(g.add_pattern_source("x", X), cell, 1 - port)
    g.connect(cell, g.add_sink("y", stream="y"), 0)
    return g, {"y": [10.0 - x if port == 0 else x - 10.0 for x in X]}


def _gated_away_then_matching():
    # the first firing's gate reads false and no destination is tagged
    # F: the result is discarded (an empty delivery), the next one lands
    g = DataflowGraph()
    cell = g.add_cell(Op.ID)
    g.connect(g.add_pattern_source("x", X), cell, 0)
    g.connect_gate(g.add_pattern_source("c", C), cell)
    g.connect(cell, g.add_sink("y", stream="y"), 0, tag=True)
    return g, {"y": [x for x, c in zip(X, C) if c]}


SHAPES = {
    "merge-const-control-T": lambda: _merge_const_control(True),
    "merge-const-control-F": lambda: _merge_const_control(False),
    "merge-const-arm": _merge_const_arm,
    "const-gate-T": lambda: _const_gate(True),
    "const-gate-F": lambda: _const_gate(False),
    "const-on-port-0": lambda: _const_operand(0),
    "const-on-port-1": lambda: _const_operand(1),
    "gated-away-then-matching": _gated_away_then_matching,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_special_cased_shapes_fire_like_the_unit_delay_simulator(shape):
    graph, want = SHAPES[shape]()
    sync = repro.run(graph, {}, backend="sync")
    event = repro.run(graph, {}, config=MachineConfig.unit_time())
    assert event.outputs == sync.outputs == want
    for stream, times in sync.sink_times.items():
        offsets = {e - s for s, e in zip(times, event.sink_times[stream])}
        assert len(offsets) <= 1        # same schedule, constant shift
        assert len(event.sink_times[stream]) == len(times)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="no JUMP_BACKWARD")
@pytest.mark.parametrize("loop", [Machine._loop, ShardMachine.run_window])
def test_event_loops_specialise_inside_their_first_run(loop):
    """CPython 3.11 specialises a code object after eight calls or
    eight unconditional backward jumps.  ``while <test>:`` compiles to
    a conditional one and these are called once a run / window, so they
    ran unspecialised -- 1.3x slower -- for a process's first seven
    runs, which split the e2e benchmark's op times into two groups."""
    jumps = {i.opname for i in dis.get_instructions(loop)}
    assert "JUMP_BACKWARD" in jumps

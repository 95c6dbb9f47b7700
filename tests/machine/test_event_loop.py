"""The one event loop keeps its counters in locals and writes them back
on every exit: a run cut into pieces -- paused at every checkpoint
tick, or a shard driven one cycle per window -- ends in exactly the
state of the same run in one piece."""

import pytest

from repro.checkpoint import CheckpointConfig
from repro.graph import Op
from repro.graph.lower import lower_fifos
from repro.machine import Machine, MachineConfig, ShardMachine
from repro.machine.stats import MachineStats
from tests.machine.test_golden_schedule import PLAN
from tests.util import FIGS, figure

MODES = {"clean": {}, "recovery": {"fault_plan": PLAN, "recovery": True}}
COUNTERS = ("_seq", "_live_events", "_progress", "_finish")


def _state(machine):
    # MachineStats.of without the checkpoint stats: those time the
    # snapshot writes on the host
    return (
        MachineStats.of([machine]), machine.outputs(), machine.sink_times,
        *(getattr(machine, name) for name in COUNTERS),
    )


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("fig", FIGS)
def test_a_run_paused_at_every_tick_ends_like_one_run(fig, mode, tmp_path):
    cp, inputs = figure(fig, m=24)

    def machine(name):
        ckpt = CheckpointConfig(tmp_path / name, interval=10, retain=1)
        return Machine(cp.graph, config=MachineConfig(), inputs=inputs,
                       checkpoint=ckpt, **MODES[mode])

    straight = machine("straight")
    straight.run()
    paused = machine("paused")
    pauses = 0
    while True:
        pauses += 1
        paused.run(stop_at_checkpoint=10 * pauses)
        if not paused._events:
            break
    assert pauses > 5
    assert _state(paused) == _state(straight)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("fig", FIGS)
def test_a_shard_in_one_cycle_windows_ends_like_one_window(fig, mode):
    cp, inputs = figure(fig, m=24)
    graph = cp.graph    # the owner map covers the graph the shard runs
    if graph.cells_by_op(Op.FIFO):
        graph = lower_fifos(graph)

    def shard():
        machine = ShardMachine(
            graph, shard_index=0, n_shards=1,
            owner=dict.fromkeys(graph.cells, 0),
            config=MachineConfig(), inputs=inputs, **MODES[mode],
        )
        machine.begin()
        return machine

    whole = shard()
    assert whole.run_window(10**9, 10**9)[1] is None
    windows = shard()
    horizon = 0
    while windows._events:
        outbox, *_ = windows.run_window(horizon, 10**9)
        assert outbox == []
        horizon += 1
    assert horizon > windows._finish > 100
    assert _state(windows) == _state(whole)

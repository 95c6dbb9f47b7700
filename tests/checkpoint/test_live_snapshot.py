"""Out-of-band ("live") snapshots: request/drain semantics, resume
fidelity, ranking, retention, and the SIGUSR1 wiring.

A live snapshot is requested asynchronously (signal handler, another
thread, a supervising process) and written by the event loop at its
next safe point between events -- never mid-event, so the captured
state is always self-consistent and resumable.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointConfig, latest_snapshot, load_machine
from repro.errors import SnapshotError
from repro.graph.graph import DataflowGraph
from repro.graph.opcodes import Op
from repro.machine.machine import Machine


def _machine(n_values=40, **kw):
    g = DataflowGraph()
    s = g.add_source("x", stream="x")
    a = g.add_cell(Op.ADD, name="inc", consts={1: 1})
    sink = g.add_sink("out", stream="y", limit=n_values)
    g.connect(s, a, 0)
    g.connect(a, sink, 0)
    return Machine(g, inputs={"x": list(range(n_values))}, **kw)


class TestRequestSemantics:
    def test_no_manager_no_path_raises_immediately(self):
        m = _machine()
        with pytest.raises(SnapshotError, match="neither"):
            m.request_snapshot()

    def test_explicit_path_without_manager(self, tmp_path):
        target = tmp_path / "manual.snap"
        m = _machine()
        m.request_snapshot(reason="probe", path=str(target))
        assert not target.exists()      # queued, not yet written
        m.run()
        assert target.exists()
        loaded = load_machine(target, expected_cls=Machine)
        assert loaded.now == 0          # drained before the first event

    def test_mid_run_request_is_resumable_bit_identically(self, tmp_path):
        ref = _machine()
        ref.run()

        m = _machine(checkpoint=CheckpointConfig(tmp_path / "ck",
                                                 interval=20))
        m.run(stop_at_checkpoint=20)    # paused mid-run
        m.request_snapshot()
        m.run()                         # drains the request, then finishes
        live = sorted((tmp_path / "ck").glob("live-*.snap"))
        assert len(live) == 1
        assert m.stats().checkpoints.live_snapshots == 1
        resumed = load_machine(live[0], expected_cls=Machine)
        resumed.run()
        assert resumed.outputs() == ref.outputs()
        assert resumed.sink_times == m.sink_times

    def test_multiple_queued_requests_all_drain(self, tmp_path):
        m = _machine(checkpoint=CheckpointConfig(tmp_path / "ck",
                                                 interval=20))
        m.run(stop_at_checkpoint=20)    # paused mid-run
        m.request_snapshot(path=str(tmp_path / "a.snap"))
        m.request_snapshot(path=str(tmp_path / "b.snap"))
        m.request_snapshot()            # via the manager
        m.run()
        assert (tmp_path / "a.snap").exists()
        assert (tmp_path / "b.snap").exists()
        assert len(list((tmp_path / "ck").glob("live-*.snap"))) == 1

    def test_request_after_quiescence_still_writes(self, tmp_path):
        # a request that lands when the heap is already empty is
        # honoured by the final drain instead of being dropped
        target = tmp_path / "tail.snap"
        m = _machine()
        m.run()
        m.request_snapshot(path=str(target))
        m.run()
        assert target.exists()

    def test_detached_manager_request_skipped_not_crashed(self, tmp_path):
        m = _machine(checkpoint=CheckpointConfig(tmp_path / "ck",
                                                 interval=0))
        m.run(stop_at_checkpoint=0)
        m.request_snapshot()
        m.ckpt = None                   # replay probes detach the manager
        m.run()                         # must not raise
        assert list((tmp_path / "ck").glob("live-*.snap")) == []


class TestRankingAndRetention:
    def test_periodic_beats_live_at_same_cycle(self, tmp_path):
        from repro.checkpoint import save_snapshot

        m = _machine()
        save_snapshot(m, tmp_path / "live-000000000100.snap")
        save_snapshot(m, tmp_path / "ckpt-000000000100.snap")
        assert latest_snapshot(tmp_path).name == "ckpt-000000000100.snap"

    def test_live_beats_timeout_and_newer_live_wins(self, tmp_path):
        from repro.checkpoint import save_snapshot

        m = _machine()
        save_snapshot(m, tmp_path / "timeout-000000000100.snap")
        save_snapshot(m, tmp_path / "live-000000000100.snap")
        assert latest_snapshot(tmp_path).name == "live-000000000100.snap"
        save_snapshot(m, tmp_path / "live-000000000200.snap")
        assert latest_snapshot(tmp_path).name == "live-000000000200.snap"

    def test_live_snapshots_survive_retention_pruning(self, tmp_path):
        m = _machine(n_values=60,
                     checkpoint=CheckpointConfig(tmp_path / "ck",
                                                 interval=10, retain=1))
        m.run(stop_at_checkpoint=10)
        m.request_snapshot()
        m.run()
        ck = tmp_path / "ck"
        assert len(list(ck.glob("live-*.snap"))) == 1
        # retention kept only one periodic snapshot, pruning others...
        assert len(list(ck.glob("ckpt-*.snap"))) == 1
        # ...but the live snapshot was never a pruning candidate
        assert m.stats().checkpoints.snapshots_pruned > 0

    def test_live_snapshots_stay_out_of_the_record_ledger(self, tmp_path):
        m = _machine(n_values=60,
                     checkpoint=CheckpointConfig(tmp_path / "ck",
                                                 interval=10, record=True))
        m.run(stop_at_checkpoint=10)
        m.request_snapshot()
        m.run()
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        names = [e["snapshot"] for e in manifest["ledger"]]
        assert not any(n.startswith("live-") for n in names)
        # the recorded bundle still replays bit-identically
        from repro.checkpoint import replay_bundle

        report = replay_bundle(tmp_path / "ck")
        assert report.reproduced, report.summary()


_CHILD = r"""
import json, signal, sys, time
from pathlib import Path

from repro.checkpoint import CheckpointConfig
from repro.checkpoint.cli import install_live_snapshot_handler
from repro.graph.graph import DataflowGraph
from repro.graph.opcodes import Op
from repro.machine.machine import Machine

ck_dir, go_file = sys.argv[1], sys.argv[2]
g = DataflowGraph()
s = g.add_source("x", stream="x")
a = g.add_cell(Op.ADD, name="inc", consts={1: 1})
sink = g.add_sink("out", stream="y", limit=40)
g.connect(s, a, 0)
g.connect(a, sink, 0)
m = Machine(g, inputs={"x": list(range(40))},
            checkpoint=CheckpointConfig(ck_dir, interval=50))
install_live_snapshot_handler(m)
print("ready", flush=True)
while not Path(go_file).exists():     # window for the parent's SIGUSR1
    time.sleep(0.01)
m.run()
print(json.dumps(m.outputs(), sort_keys=True), flush=True)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGUSR1"),
                    reason="platform has no SIGUSR1")
class TestSigusr1:
    def test_signal_takes_a_live_snapshot_without_stopping(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        ck = tmp_path / "ck"
        go = tmp_path / "go"
        proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(ck), str(go)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            proc.send_signal(signal.SIGUSR1)
            go.write_text("")
            out = proc.stdout.read()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        live = sorted(ck.glob("live-*.snap"))
        assert len(live) == 1, sorted(p.name for p in ck.iterdir())
        # the signaled run still completed normally...
        outputs = json.loads(out)
        ref = _machine()
        ref.run()
        assert outputs == {k: list(v) for k, v in ref.outputs().items()}
        # ...and the live snapshot resumes to the same result
        resumed = load_machine(live[0], expected_cls=Machine)
        resumed.run()
        assert resumed.outputs() == ref.outputs()

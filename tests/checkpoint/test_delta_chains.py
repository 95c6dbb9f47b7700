"""Incremental (v3) delta-snapshot chains: write policy, chain
verification, retention, quarantine, and delta-aware coordinated
sharded sets.

The consistency unit is the *chain*: one ``.base.snap`` plus the
``.delta.snap`` files layered on it.  Every test here defends the same
invariant -- a delta is only ever offered as a resume point when its
entire parent chain verifies by checksum, and anything that breaks a
link (pruning, tampering, quarantine) takes the downstream deltas with
it instead of leaving resume points that are guaranteed to fail.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.checkpoint import (
    ChainBrokenError,
    CheckpointConfig,
    ResumePoint,
    Supervisor,
    SupervisorConfig,
    chain_status,
    fsck_directory,
    latest_snapshot,
    load_machine,
    quarantine,
    read_manifest,
    read_metadata,
    resume_point,
    save_snapshot,
    shard_snapshot_name,
    verify_chain,
)
from repro.checkpoint.coordinator import CoordinatedCheckpointManager
from repro.checkpoint.directory import MAX_CHAIN_DEPTH, next_kind
from repro.checkpoint.snapshot import _HEADER
from repro.errors import SnapshotError
from repro.graph.graph import DataflowGraph
from repro.graph.opcodes import Op
from repro.machine import (
    MachineConfig,
    ShardConfig,
    ShardCrashError,
    ShardedRunner,
)
from repro.machine.machine import Machine
from repro.workers import BackoffPolicy
from tests.util import CHAOS_PLAN, program_graph

def _machine(n_values=60, **kw):
    g = DataflowGraph()
    s = g.add_source("x", stream="x")
    a = g.add_cell(Op.ADD, name="inc", consts={1: 1})
    sink = g.add_sink("out", stream="y", limit=n_values)
    g.connect(s, a, 0)
    g.connect(a, sink, 0)
    return Machine(g, inputs={"x": list(range(n_values))}, **kw)


def _chained_run(directory, *, interval=5, retain=0, delta_every=4,
                 fault_plan=None, n_values=60):
    cfg = CheckpointConfig(
        directory, interval=interval, retain=retain,
        delta_every=delta_every,
    )
    m = _machine(n_values, checkpoint=cfg, fault_plan=fault_plan)
    m.run()
    return m


def _chain_files(directory):
    return sorted(
        p for p in Path(directory).iterdir()
        if p.name.startswith("ckpt-") and p.suffix == ".snap"
    )


def _rewrite_meta(path, mutate):
    """Tamper with a snapshot's metadata while keeping the envelope
    checksums honest -- models a deliberate rewrite, not bit rot."""
    data = Path(path).read_bytes()
    magic, version, meta_len, _, payload_len, payload_sha = (
        _HEADER.unpack_from(data)
    )
    meta = json.loads(data[_HEADER.size:_HEADER.size + meta_len])
    mutate(meta)
    raw = json.dumps(meta, sort_keys=True).encode()
    payload = data[_HEADER.size + meta_len:]
    header = _HEADER.pack(magic, version, len(raw),
                          hashlib.sha256(raw).digest(),
                          payload_len, payload_sha)
    Path(path).write_bytes(header + raw + payload)


class TestChainPolicy:
    def test_delta_every_one_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="delta_every"):
            CheckpointConfig(tmp_path, delta_every=1)

    def test_negative_delta_every_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="delta_every"):
            CheckpointConfig(tmp_path, delta_every=-2)

    def test_disabled_mode_keeps_classic_names(self, tmp_path):
        _chained_run(tmp_path, delta_every=0)
        names = [p.name for p in _chain_files(tmp_path)]
        assert names
        assert all(n.count(".") == 1 for n in names), names

    def test_chain_files_follow_policy(self, tmp_path):
        m = _chained_run(tmp_path, delta_every=4)
        files = _chain_files(tmp_path)
        kinds = [p.suffixes[0].lstrip(".") for p in files]
        assert kinds[0] == "base"
        assert "delta" in kinds
        depth = None
        for path, kind in zip(files, kinds):
            meta = read_metadata(path)
            assert meta["kind"] == kind
            if kind == "base":
                assert meta["chain_depth"] == 0
                assert "parent" not in meta
                depth = 0
            else:
                depth += 1
                assert meta["chain_depth"] == depth
                assert 1 <= depth < 4
                parent = tmp_path / meta["parent"]
                assert parent.exists()
                assert meta["parent_checksum"]
        delta_stats = m.stats().checkpoints
        assert delta_stats.delta_snapshots == kinds.count("delta")
        assert 0 < delta_stats.delta_bytes_written < (
            delta_stats.bytes_written
        )

    def test_max_chain_depth_forces_rebase(self, tmp_path):
        _chained_run(tmp_path, interval=1, delta_every=100, n_values=70)
        depths = [read_metadata(p).get("chain_depth", 0)
                  for p in _chain_files(tmp_path)]
        assert max(depths) == MAX_CHAIN_DEPTH
        assert depths.count(0) >= 2      # the policy actually rebased

    def test_delta_bytes_track_churn_not_size(self, tmp_path):
        # a 1000-cell chain whose wavefront touches few cells between
        # snapshots: a mean delta is >= 5x smaller than a mean full
        # snapshot, with the same snapshot count and a bit-identical run
        g = DataflowGraph()
        prev = g.add_source("x", stream="x")
        for i in range(1000):
            cell = g.add_cell(Op.ADD, name=f"c{i}", consts={1: 1})
            g.connect(prev, cell, 0)
            prev = cell
        g.connect(prev, g.add_sink("out", stream="y", limit=16), 0)
        inputs = {"x": list(range(16))}
        bare = Machine(g, inputs=inputs)
        bare.run()
        runs = {}
        for mode, delta_every in (("full", 0), ("delta", 8)):
            cfg = CheckpointConfig(tmp_path / mode, interval=800,
                                   retain=0, delta_every=delta_every)
            m = Machine(g, inputs=inputs, checkpoint=cfg)
            m.run()
            assert m.outputs() == bare.outputs()
            assert m.now == bare.now
            runs[mode] = m.stats().checkpoints
        full, delta = runs["full"], runs["delta"]
        assert delta.snapshots_written == full.snapshots_written >= 5
        assert delta.delta_snapshots >= 4
        per_full = full.bytes_written / full.snapshots_written
        per_delta = delta.delta_bytes_written / delta.delta_snapshots
        assert per_full >= 5 * per_delta


class TestChainResume:
    def test_resume_under_faults_bit_identical(self, tmp_path):
        ref = _machine(fault_plan=CHAOS_PLAN)
        ref.run()
        _chained_run(tmp_path, fault_plan=CHAOS_PLAN)
        tip = latest_snapshot(tmp_path)
        assert tip.name.endswith(".delta.snap") or (
            tip.name.endswith(".base.snap")
        )
        resumed = Machine.resume(tip)
        resumed.run()
        assert resumed.outputs() == ref.outputs()
        assert resumed.sink_times == ref.sink_times

    def test_latest_snapshot_skips_orphaned_chain(self, tmp_path):
        _chained_run(tmp_path)
        files = _chain_files(tmp_path)
        bases = [p for p in files if p.name.endswith(".base.snap")]
        assert len(bases) >= 2
        bases[-1].unlink()               # orphan the newest chain
        tip = latest_snapshot(tmp_path)
        assert tip is not None
        # the survivor must verify end to end
        if tip.name.endswith(".delta.snap"):
            verify_chain(tip)
        resumed = Machine.resume(tip)
        resumed.run()
        ref = _machine()
        ref.run()
        assert resumed.outputs() == ref.outputs()


class TestStandaloneKinds:
    def test_live_snapshot_is_standalone_full(self, tmp_path):
        cfg = CheckpointConfig(tmp_path / "ck", interval=5,
                               delta_every=4)
        m = _machine(checkpoint=cfg)
        m.run(stop_at_checkpoint=12)     # mid delta interval
        m.request_snapshot()
        m.run()
        live = sorted((tmp_path / "ck").glob("live-*.snap"))
        assert len(live) == 1
        assert read_metadata(live[0]).get("kind", "full") == "full"
        # loads with no chain on disk at all
        alone = tmp_path / "alone"
        alone.mkdir()
        shutil.copy2(live[0], alone / live[0].name)
        resumed = load_machine(alone / live[0].name,
                               expected_cls=Machine)
        resumed.ckpt = None
        resumed.run()
        ref = _machine()
        ref.run()
        assert resumed.outputs() == ref.outputs()
        # and the periodic chain is undisturbed around it
        assert fsck_directory(tmp_path / "ck")["ok"]

    def test_failure_snapshot_is_standalone_full(self, tmp_path):
        m = _chained_run(tmp_path)
        assert any(p.name.endswith(".delta.snap")
                   for p in _chain_files(tmp_path))
        failure = m.ckpt.save_failure(m, RuntimeError("boom"))
        assert failure.name.startswith("failure-")
        meta = read_metadata(failure)
        assert meta.get("kind", "full") == "full"
        assert "parent" not in meta
        alone = tmp_path / "alone"
        alone.mkdir()
        shutil.copy2(failure, alone / failure.name)
        load_machine(alone / failure.name, expected_cls=Machine)


@pytest.mark.skipif(not hasattr(signal, "SIGUSR1"),
                    reason="platform has no SIGUSR1")
class TestSigusr1DuringDeltaInterval:
    def test_signal_mid_chain_writes_standalone_full(self, tmp_path):
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
            proc.stdout.read()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        live = sorted(ck.glob("live-*.snap"))
        assert len(live) == 1, sorted(p.name for p in ck.iterdir())
        assert read_metadata(live[0]).get("kind", "full") == "full"
        # the signal did not fork or corrupt the periodic chain
        report = fsck_directory(ck)
        assert report["ok"], report["problems"]
        assert any(p.name.endswith(".delta.snap") for p in ck.iterdir())


_CHILD = r"""
import json, sys, time
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
sink = g.add_sink("out", stream="y", limit=60)
g.connect(s, a, 0)
g.connect(a, sink, 0)
m = Machine(g, inputs={"x": list(range(60))},
            checkpoint=CheckpointConfig(ck_dir, interval=5,
                                        delta_every=4))
install_live_snapshot_handler(m)
print("ready", flush=True)
while not Path(go_file).exists():     # window for the parent's SIGUSR1
    time.sleep(0.01)
m.run()
print(json.dumps(m.outputs(), sort_keys=True), flush=True)
"""


class TestChainRetention:
    def test_prune_keeps_whole_chains(self, tmp_path):
        _chained_run(tmp_path, interval=3, retain=2, n_values=90)
        files = _chain_files(tmp_path)
        # every surviving delta can still reach its base
        for path in files:
            if path.name.endswith(".delta.snap"):
                verify_chain(path)
        report = fsck_directory(tmp_path)
        assert report["ok"], report["problems"]

    def test_base_with_live_descendants_survives_pruning(self, tmp_path):
        _chained_run(tmp_path, interval=3, retain=2, n_values=90)
        deltas = [p for p in _chain_files(tmp_path)
                  if p.name.endswith(".delta.snap")]
        # resume from a mid-chain delta: the manager travels inside the
        # snapshot, so its ledger is stale -- it has never heard of the
        # deltas written after the snapshot, yet they live on disk and
        # reference the same bases the resumed run will want to prune
        resumed = Machine.resume(deltas[0])
        assert resumed.ckpt is not None
        resumed.run()
        # whatever survived, no delta on disk lost its parent
        report = fsck_directory(tmp_path)
        assert report["ok"], report["problems"]
        for p in _chain_files(tmp_path):
            if p.name.endswith(".delta.snap"):
                verify_chain(p)


class TestIntegrity:
    def test_tampered_parent_checksum_typed_error(self, tmp_path):
        _chained_run(tmp_path)
        delta = [p for p in _chain_files(tmp_path)
                 if p.name.endswith(".delta.snap")][-1]
        _rewrite_meta(delta, lambda m: m.update(
            parent_checksum="0" * 64))
        with pytest.raises(ChainBrokenError) as err:
            verify_chain(delta)
        assert err.value.status == "damaged"
        with pytest.raises(SnapshotError):
            load_machine(delta, expected_cls=Machine)
        # the ranked resume search steps over it, never crashes
        tip = latest_snapshot(tmp_path)
        assert tip is not None and tip != delta

    def test_bit_rot_in_base_breaks_descendants(self, tmp_path):
        _chained_run(tmp_path)
        files = _chain_files(tmp_path)
        base = [p for p in files if p.name.endswith(".base.snap")][-1]
        after = [p for p in files
                 if p.name > base.name and p.name.endswith(".delta.snap")]
        assert after
        data = bytearray(base.read_bytes())
        data[-1] ^= 0xFF
        base.write_bytes(bytes(data))
        for delta in after:
            with pytest.raises(SnapshotError):
                verify_chain(delta)
            status = chain_status(delta)
            assert status["status"] in ("damaged", "orphaned")
        report = fsck_directory(tmp_path)
        assert not report["ok"]

    def test_fsck_clean_then_all_damage_modes(self, tmp_path):
        _chained_run(tmp_path)
        clean = fsck_directory(tmp_path)
        assert clean["ok"] and not clean["problems"]
        files = _chain_files(tmp_path)
        deltas = [p for p in files if p.name.endswith(".delta.snap")]
        base = [p for p in files if p.name.endswith(".base.snap")][0]
        pristine = {p.name: p.read_bytes() for p in files}

        # damaged delta payload
        blob = bytearray(deltas[0].read_bytes())
        blob[-1] ^= 0xFF
        deltas[0].write_bytes(bytes(blob))
        assert not fsck_directory(tmp_path)["ok"]
        deltas[0].write_bytes(pristine[deltas[0].name])

        # orphaned: parent file gone
        base.unlink()
        report = fsck_directory(tmp_path)
        assert not report["ok"]
        assert any("orphan" in p.lower() or "missing" in p.lower()
                   for p in report["problems"])
        base.write_bytes(pristine[base.name])

        # quarantined material is listed, never a failure
        poisoned = deltas[-1]
        poisoned.rename(poisoned.with_name(poisoned.name + ".poisoned"))
        report = fsck_directory(tmp_path)
        assert report["quarantined"]
        restored = poisoned.with_name(poisoned.name + ".poisoned")
        restored.rename(poisoned)
        assert fsck_directory(tmp_path)["ok"]


class TestSupervisorChainQuarantine:
    def test_quarantine_takes_chain_descendants(self, tmp_path):
        # an old standalone full snapshot to step back to
        save_snapshot(_machine(), tmp_path / "ckpt-000000000005.snap")
        _chained_run(tmp_path / "chain")   # build a real chain...
        files = _chain_files(tmp_path / "chain")
        base = [p for p in files if p.name.endswith(".base.snap")][0]
        children = [p for p in files
                    if read_metadata(p).get("parent") == base.name]
        assert children
        # ...and transplant base + one child, rewriting the link
        moved_base = tmp_path / "ckpt-000000000100.base.snap"
        shutil.copy2(base, moved_base)
        child = children[0]
        moved_child = tmp_path / "ckpt-000000000110.delta.snap"
        shutil.copy2(child, moved_child)
        # relink the child to the transplanted base but with a bogus
        # parent_checksum: its metadata still reads (so the quarantine
        # sweep can see the parent edge) while the chain itself fails
        # verification, so resume lands on the base -- which then
        # strikes out twice and takes the whole chain with it
        _rewrite_meta(moved_child, lambda m: m.update(
            parent=moved_base.name, parent_checksum="0" * 64))

        outcomes = [(137, None), (137, None), (0, None)]
        config = SupervisorConfig(directory=tmp_path,
                                  backoff=BackoffPolicy(jitter=0.0),
                                  max_restarts=8)
        argvs, sleeps = [], []

        def runner(argv):
            argvs.append(list(argv))
            code, _ = outcomes.pop(0)
            return SimpleNamespace(
                returncode=code,
                stdout=b'{"ok": true}\n' if code == 0 else b"",
            )

        sup = Supervisor(
            ["start"], config,
            resume_argv=lambda d: ["resume", str(d)],
            runner=runner, sleep=sleeps.append, log=lambda line: None,
        )
        report = sup.run()
        assert report.completed
        assert report.quarantined == [moved_base.name]
        assert not moved_base.exists()
        assert not moved_child.exists()
        assert (tmp_path / (moved_base.name + ".poisoned")).exists()
        assert (tmp_path / (moved_child.name + ".poisoned")).exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        reasons = {e["snapshot"]: e["reason"]
                   for e in manifest["quarantined"]}
        assert "chained on quarantined" in reasons[moved_child.name]
        assert report.attempts[-1].resume_snapshot == (
            "ckpt-000000000005.snap"
        )


INTERVAL = 10


def _sharded_run(tmp_path, *, retain=0, crash_at=None):
    """fig7 on two worker processes writing coordinated delta sets."""
    graph, streams = program_graph("fig7", 16)
    cfg = CheckpointConfig(
        tmp_path / "snaps", interval=INTERVAL, retain=retain,
        delta_every=3,
    )
    runner = ShardedRunner(
        graph, streams, shard_config=ShardConfig(shards=2),
        config=MachineConfig.unit_time(), checkpoint=cfg,
    )
    if crash_at is None:
        runner.run()
    else:
        with pytest.raises(ShardCrashError):
            runner.run(crash_at=crash_at)


def _member_files(directory, cycle, shards=2):
    """Placeholder member files of one set, for commit-logic tests
    (the coordinator only checks that members exist)."""
    names = [shard_snapshot_name(cycle, k) for k in range(shards)]
    for name in names:
        (directory / name).write_bytes(b"member")
    return names


class TestCoordinatedDeltaSets:
    def test_manifest_chain_metadata(self, tmp_path):
        _sharded_run(tmp_path)
        manifest = read_manifest(tmp_path / "snaps", "sharded")
        assert manifest["delta_every"] == 3
        sets = manifest["coordinated"]
        kinds = [e.get("kind", "full") for e in sets]
        assert kinds[0] == "base"
        assert "delta" in kinds
        for prev, entry in zip(sets, sets[1:]):
            if entry.get("kind") == "delta":
                assert entry["parent_cycle"] == prev["cycle"]
                assert entry["chain_depth"] >= 1
            elif entry.get("kind") == "base":
                assert entry["chain_depth"] == 0

    def test_set_prune_all_or_none(self, tmp_path):
        _sharded_run(tmp_path, retain=2)
        directory = tmp_path / "snaps"
        sets = read_manifest(directory, "sharded")["coordinated"]
        # the surviving prefix starts on a chain boundary
        assert sets[0].get("kind", "full") in ("full", "base")
        for entry in sets:
            for fname in entry["files"]:
                assert (directory / fname).exists()
        report = fsck_directory(directory)
        assert report["ok"], report["problems"]

    def test_latest_coordinated_skips_broken_chain(self, tmp_path):
        _sharded_run(tmp_path)
        directory = tmp_path / "snaps"
        sets = read_manifest(directory, "sharded")["coordinated"]
        bases = [e for e in sets if e.get("kind") == "base"]
        assert bases
        victim = bases[-1]
        (directory / victim["files"][0]).unlink()
        point = resume_point(directory)
        if point.files:
            assert point.cycle < victim["cycle"]

    def test_quarantine_takes_descendant_sets(self, tmp_path):
        _sharded_run(tmp_path)
        directory = tmp_path / "snaps"
        sets = read_manifest(directory, "sharded")["coordinated"]
        bases = [e for e in sets if e.get("kind") == "base"]
        base = bases[-1]
        descendants = [
            e for e in sets
            if e.get("kind") == "delta" and e["cycle"] > base["cycle"]
        ]
        assert descendants
        quarantine(
            ResumePoint(directory, True, tuple(base["files"]), base["cycle"]),
            "test poison",
        )
        manifest = read_manifest(directory, "sharded")
        poisoned = {e["cycle"] for e in manifest["quarantined"]}
        assert base["cycle"] in poisoned
        for entry in descendants:
            assert entry["cycle"] in poisoned
            for fname in entry["files"]:
                assert not (directory / fname).exists()
                assert (directory / (fname + ".poisoned")).exists()

    def test_resume_restarts_chain_with_base(self, tmp_path):
        _sharded_run(tmp_path, crash_at=30)
        directory = tmp_path / "snaps"
        before = {e["cycle"] for e in
                  read_manifest(directory, "sharded")["coordinated"]}
        resumed = ShardedRunner.resume(directory)
        resumed.run()
        sets = read_manifest(directory, "sharded")["coordinated"]
        fresh = [e for e in sets if e["cycle"] not in before]
        assert fresh
        # a resumed worker has no in-memory chain tip; asking it for a
        # delta would be unanswerable, so the chain restarts on a base
        assert fresh[0].get("kind", "full") in ("full", "base")
        report = fsck_directory(directory)
        assert report["ok"], report["problems"]

    @pytest.mark.parametrize("history", ["none", "orphaned_parent"])
    def test_commit_delta_without_parent_raises(self, tmp_path, history):
        cfg = CheckpointConfig(tmp_path, interval=INTERVAL,
                               delta_every=3)
        mgr = CoordinatedCheckpointManager(cfg, shards=2)
        if history == "orphaned_parent":
            # the newest set is whole, but the base it chains on lost a
            # member: a delta on it would be born unresumable
            mgr.commit(10, _member_files(tmp_path, 10), [1, 1], kind="base")
            mgr.commit(20, _member_files(tmp_path, 20), [1, 1],
                       kind="delta")
            (tmp_path / shard_snapshot_name(10, 0)).unlink()
        with pytest.raises(ChainBrokenError):
            mgr.commit(30, _member_files(tmp_path, 30), [1, 1],
                       kind="delta")
        if history == "orphaned_parent":
            # the refusal is the verdict fsck reads
            assert [(row["cycle"], row["status"])
                    for row in fsck_directory(tmp_path)["sets"]] == [
                (10, "damaged"), (20, "orphaned")]

    def test_recommit_drops_sets_chained_on_it(self, tmp_path):
        # self-heal replay re-commits a barrier cycle already listed:
        # the sets chained on the rewritten files leave the manifest
        cfg = CheckpointConfig(tmp_path, interval=INTERVAL,
                               delta_every=4)
        mgr = CoordinatedCheckpointManager(cfg, shards=2)
        for cycle, kind in ((10, "base"), (20, "delta"), (30, "delta"),
                            (20, "delta")):
            mgr.commit(cycle, _member_files(tmp_path, cycle), [1, 1],
                       kind=kind)
        sets = read_manifest(tmp_path, "sharded")["coordinated"]
        assert [(e["cycle"], e["kind"], e.get("parent_cycle"))
                for e in sets] == [(10, "base", None), (20, "delta", 10)]

    def test_next_kind_respects_reset(self, tmp_path):
        _sharded_run(tmp_path)
        directory = tmp_path / "snaps"
        mgr = CoordinatedCheckpointManager.attach(
            directory, read_manifest(directory, "sharded")
        )
        assert mgr.config.delta_every == 3    # survived via the manifest
        # attach never trusts a chain it did not build itself
        assert mgr.tip_depth is None
        assert next_kind(mgr.config, mgr.tip_depth) == "base"
        mgr.reset_chain()
        assert next_kind(mgr.config, mgr.tip_depth) == "base"

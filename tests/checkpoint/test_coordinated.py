"""Tests for coordinated (Chandy-Lamport) shard snapshot sets.

The consistency unit is the *set*: K shard files plus one manifest
entry, committed only when every file is on disk, pruned all-or-none,
and resumed only when complete.  A crash anywhere in the pipeline must
never leave a half-set that resume (or ``repro snapshot inspect``)
mistakes for a loadable checkpoint.
"""

import json

import pytest

from repro.checkpoint import (
    CheckpointConfig,
    is_sharded_dir,
    latest_coordinated,
    latest_snapshot,
    quarantine_coordinated,
    read_shard_manifest,
    shard_snapshot_name,
)
from repro.checkpoint.coordinator import CoordinatedCheckpointManager
from repro.cli import main as cli_main
from repro.errors import ManifestError, SnapshotError
from repro.machine import (
    Machine,
    MachineConfig,
    ShardCrashError,
    ShardConfig,
    ShardedRunner,
)
from repro.workloads import figure_workload

INTERVAL = 10


def _fig(name="fig7", m=16):
    wl = figure_workload(name)
    cp = wl.compile(m=m)
    return cp.graph, cp.prepare_inputs(wl.make_inputs(cp))


def _reference(graph, streams):
    machine = Machine(graph, MachineConfig.unit_time(), inputs=streams)
    machine.run()
    outputs = machine.outputs()
    return outputs, {s: machine.sink_arrival_times(s) for s in outputs}


def _checkpointed_run(tmp_path, *, crash_at=None, crash_shard=0,
                      shards=4, retain=3, name="fig7"):
    graph, streams = _fig(name)
    cfg = CheckpointConfig(
        tmp_path / "snaps", interval=INTERVAL, retain=retain
    )
    runner = ShardedRunner(
        graph, streams, shard_config=ShardConfig(shards=shards),
        config=MachineConfig.unit_time(), checkpoint=cfg,
    )
    if crash_at is None:
        runner.run()
        return runner, graph, streams
    with pytest.raises(ShardCrashError):
        runner.run(crash_at=crash_at, crash_shard=crash_shard)
    return runner, graph, streams


class TestCoordinatedSets:
    def test_manifest_and_sets_written(self, tmp_path):
        _checkpointed_run(tmp_path)
        directory = tmp_path / "snaps"
        assert is_sharded_dir(directory)
        manifest = read_shard_manifest(directory)
        assert manifest["shards"] == 4
        assert manifest["status"] == "completed"
        sets = manifest["coordinated"]
        assert sets, "no coordinated sets committed"
        for entry in sets:
            assert len(entry["files"]) == 4
            for fname in entry["files"]:
                assert (directory / fname).exists()

    def test_retention_prunes_whole_sets(self, tmp_path):
        _checkpointed_run(tmp_path, retain=2)
        directory = tmp_path / "snaps"
        manifest = read_shard_manifest(directory)
        sets = manifest["coordinated"]
        assert len(sets) == 2
        on_disk = sorted(p.name for p in directory.glob("ckpt-*.snap"))
        expected = sorted(
            name for entry in sets for name in entry["files"]
        )
        # all-or-none: exactly the retained sets' files, nothing else
        assert on_disk == expected

    def test_single_machine_latest_snapshot_ignores_shard_files(
        self, tmp_path
    ):
        _checkpointed_run(tmp_path)
        assert latest_snapshot(tmp_path / "snaps") is None

    def test_partial_set_never_eligible(self, tmp_path):
        _checkpointed_run(tmp_path)
        directory = tmp_path / "snaps"
        newest = latest_coordinated(directory)
        older = [
            e for e in read_shard_manifest(directory)["coordinated"]
            if e["cycle"] != newest["cycle"]
        ]
        # delete one member of the newest set: the set is incomplete,
        # so resume must step back to the previous complete set
        (directory / newest["files"][2]).unlink()
        stepped = latest_coordinated(directory)
        assert stepped is not None
        assert stepped["cycle"] == older[-1]["cycle"]

    def test_uncommitted_files_are_invisible(self, tmp_path):
        _checkpointed_run(tmp_path)
        directory = tmp_path / "snaps"
        before = latest_coordinated(directory)
        # simulate a crash between shard writes: files on disk for a
        # newer barrier, but no manifest entry committed
        cycle = before["cycle"] + INTERVAL
        for k in range(4):
            (directory / shard_snapshot_name(cycle, k)).write_bytes(
                b"partial"
            )
        assert latest_coordinated(directory)["cycle"] == before["cycle"]

    def test_quarantine_steps_back_a_whole_set(self, tmp_path):
        _checkpointed_run(tmp_path)
        directory = tmp_path / "snaps"
        newest = latest_coordinated(directory)
        renamed = quarantine_coordinated(
            directory, newest["cycle"], "test poison"
        )
        assert len(renamed) == 4
        for name in renamed:
            assert not (directory / name).exists()
            assert (directory / (name + ".poisoned")).exists()
        stepped = latest_coordinated(directory)
        assert stepped is not None and stepped["cycle"] < newest["cycle"]
        quarantined = read_shard_manifest(directory)["quarantined"]
        assert quarantined[0]["cycle"] == newest["cycle"]

    def test_not_sharded_dirs(self, tmp_path):
        assert not is_sharded_dir(tmp_path / "missing")
        (tmp_path / "manifest.json").write_text("{}", encoding="utf-8")
        assert not is_sharded_dir(tmp_path)
        with pytest.raises(ManifestError):
            read_shard_manifest(tmp_path)

    def test_record_mode_refused(self, tmp_path):
        cfg = CheckpointConfig(tmp_path / "snaps", record=True)
        with pytest.raises(SnapshotError):
            CoordinatedCheckpointManager(cfg, 2)


class TestCrashResume:
    def test_kill_one_worker_then_resume_bit_identical(self, tmp_path):
        runner, graph, streams = _checkpointed_run(
            tmp_path, crash_at=30, crash_shard=2
        )
        ref_out, ref_times = _reference(graph, streams)
        resumed = ShardedRunner.resume(tmp_path / "snaps")
        resumed.run()
        assert resumed.outputs() == ref_out
        for s in ref_out:
            assert resumed.sink_arrival_times(s) == ref_times[s]

    def test_resume_restores_channel_state(self, tmp_path):
        # fig6 levels partition has real cross-shard traffic; a barrier
        # snapshot must carry the in-flight messages of the cut
        from repro.checkpoint.snapshot import load_machine
        from repro.machine import ShardMachine

        runner, graph, streams = _checkpointed_run(
            tmp_path, crash_at=25, crash_shard=1, name="fig6"
        )
        directory = tmp_path / "snaps"
        carried = 0
        for fname in latest_coordinated(directory)["files"]:
            _, extra = load_machine(
                directory / fname, expected_cls=ShardMachine,
                with_extra=True,
            )
            carried += len(extra["channel_state"])
        assert carried > 0
        ref_out, ref_times = _reference(graph, streams)
        resumed = ShardedRunner.resume(directory)
        resumed.run()
        assert resumed.outputs() == ref_out
        for s in ref_out:
            assert resumed.sink_arrival_times(s) == ref_times[s]

    def test_resume_without_complete_set_is_snapshot_error(
        self, tmp_path
    ):
        _checkpointed_run(tmp_path)
        directory = tmp_path / "snaps"
        for entry in read_shard_manifest(directory)["coordinated"]:
            (directory / entry["files"][0]).unlink()
        with pytest.raises(SnapshotError):
            ShardedRunner.resume(directory)

    def test_checkpoints_continue_after_resume(self, tmp_path):
        _checkpointed_run(tmp_path, crash_at=30)
        directory = tmp_path / "snaps"
        before = latest_coordinated(directory)["cycle"]
        resumed = ShardedRunner.resume(directory)
        resumed.run()
        after = latest_coordinated(directory)["cycle"]
        assert after > before
        assert read_shard_manifest(directory)["status"] == "completed"


class TestCli:
    def test_inspect_reports_partial_sets(self, tmp_path, capsys):
        _checkpointed_run(tmp_path)
        directory = tmp_path / "snaps"
        newest = latest_coordinated(directory)
        member = directory / newest["files"][0]

        assert cli_main(["snapshot", "inspect", str(member)]) == 0
        captured = capsys.readouterr()
        meta = json.loads(captured.out)
        assert meta["shard"] == 0 and meta["shards"] == 4
        assert meta["coordinated"] == "complete"
        assert "resumable (complete committed set)" in captured.err

        # break the set: inspect must stop calling the file loadable
        (directory / newest["files"][1]).unlink()
        assert cli_main(["snapshot", "inspect", str(member)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["coordinated"] == "incomplete"
        assert "NOT resumable alone" in captured.err

    def test_cli_crash_resume_byte_identical(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        args = ["checkpoint", "fig7", "--size", "16", "--dir",
                str(snaps), "--interval", "10", "--backend", "sharded",
                "--shards", "4"]
        assert cli_main(args) == 0
        full = capsys.readouterr().out

        import shutil

        shutil.rmtree(snaps)
        assert cli_main(
            args + ["--crash-at", "30", "--crash-shard", "2"]
        ) == 137
        capsys.readouterr()
        assert cli_main(["resume", str(snaps)]) == 0
        captured = capsys.readouterr()
        assert "# resumed 4 shards" in captured.err
        assert captured.out == full

    def test_cli_resume_json_envelope(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        assert cli_main(
            ["checkpoint", "fig7", "--size", "16", "--dir", str(snaps),
             "--interval", "10", "--backend", "sharded", "--shards",
             "2", "--crash-at", "30"]
        ) == 137
        capsys.readouterr()
        assert cli_main(["resume", str(snaps), "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == 1
        assert envelope["command"] == "resume"
        assert envelope["ok"] is True
        assert envelope["result"]["backend"] == "sharded"
        assert envelope["result"]["shards"] == 2

"""The snapshot envelope: round-trips, damage detection, versioning.

Every way a snapshot file can be wrong -- missing, foreign, truncated
at either the header or the payload, bit-flipped, or written by a
future format version -- must surface as a typed
:class:`~repro.errors.SnapshotError` *before* any unpickling happens.
"""

import os
import struct

import pytest

from repro.checkpoint import (
    FORMAT_VERSION,
    latest_snapshot,
    load_machine,
    read_snapshot,
    save_snapshot,
    snapshot_cycle,
)
from repro.checkpoint.snapshot import (
    _HEADER,
    DELTA_VERSION,
    MAGIC,
)
from repro.errors import SnapshotError
from repro.fileio import atomic_write
from repro.graph.graph import DataflowGraph
from repro.graph.opcodes import Op
from repro.machine.machine import Machine


def _machine(n_values=5):
    g = DataflowGraph()
    s = g.add_source("x", stream="x")
    a = g.add_cell(Op.ADD, name="inc", consts={1: 1})
    sink = g.add_sink("out", stream="y", limit=n_values)
    g.connect(s, a, 0)
    g.connect(a, sink, 0)
    return Machine(g, inputs={"x": list(range(n_values))})


@pytest.fixture()
def snap(tmp_path):
    machine = _machine()
    path = save_snapshot(machine, tmp_path / "m.snap", reason="test")
    return path


class TestRoundTrip:
    def test_payload_fields(self, snap):
        data = read_snapshot(snap)
        assert data["reason"] == "test"
        assert data["cycle"] == 0
        assert snapshot_cycle(snap) == 0

    def test_loaded_machine_runs_to_the_same_outputs(self, snap):
        direct = _machine()
        direct.run()
        loaded = load_machine(snap, expected_cls=Machine)
        loaded.run()
        assert loaded.outputs() == direct.outputs()

    def test_wrong_class_rejected(self, snap):
        class NotAMachine:
            pass

        with pytest.raises(SnapshotError, match="holds a Machine"):
            load_machine(snap, expected_cls=NotAMachine)


class TestDamageDetection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            read_snapshot(tmp_path / "nope.snap")

    def test_bad_magic(self, snap):
        raw = snap.read_bytes()
        snap.write_bytes(b"NOTASNAP" + raw[8:])
        with pytest.raises(SnapshotError, match="bad magic"):
            read_snapshot(snap)

    def test_truncated_header(self, snap):
        snap.write_bytes(snap.read_bytes()[: _HEADER.size - 1])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(snap)

    def test_truncated_payload(self, snap):
        snap.write_bytes(snap.read_bytes()[:-20])
        with pytest.raises(SnapshotError, match="truncated"):
            read_snapshot(snap)

    def test_flipped_payload_byte_fails_checksum(self, snap):
        raw = bytearray(snap.read_bytes())
        raw[_HEADER.size + 40] ^= 0xFF
        snap.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(snap)

    def test_future_format_version(self, snap):
        # DELTA_VERSION is the newest real format, so "future" starts
        # one past it
        raw = snap.read_bytes()
        body = raw[_HEADER.size:]
        header = struct.unpack(_HEADER.format, raw[: _HEADER.size])
        bumped = _HEADER.pack(MAGIC, DELTA_VERSION + 1, *header[2:])
        snap.write_bytes(bumped + body)
        with pytest.raises(SnapshotError, match="format version"):
            read_snapshot(snap)

    def test_delta_version_rejected_by_read_snapshot(self, snap):
        # a base payload relabeled as a delta passes the envelope
        # checks (the header is not covered by the checksums) but
        # read_snapshot must refuse it: deltas only load through their
        # chain
        raw = snap.read_bytes()
        body = raw[_HEADER.size:]
        header = struct.unpack(_HEADER.format, raw[: _HEADER.size])
        bumped = _HEADER.pack(MAGIC, DELTA_VERSION, *header[2:])
        snap.write_bytes(bumped + body)
        with pytest.raises(SnapshotError, match="delta"):
            read_snapshot(snap)

    def test_flipped_metadata_byte_fails_checksum(self, snap):
        raw = bytearray(snap.read_bytes())
        raw[_HEADER.size + 2] ^= 0xFF
        snap.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(snap)


class TestLatestSnapshot:
    def test_empty_directory(self, tmp_path):
        assert latest_snapshot(tmp_path) is None
        with pytest.raises(SnapshotError, match="no snapshots"):
            load_machine(tmp_path)

    def test_highest_cycle_wins(self, tmp_path):
        m = _machine()
        for name in ("initial.snap", "ckpt-000000000100.snap",
                     "ckpt-000000000300.snap", "ckpt-000000000200.snap"):
            save_snapshot(m, tmp_path / name)
        assert latest_snapshot(tmp_path).name == "ckpt-000000000300.snap"

    def test_periodic_beats_failure_at_the_same_cycle(self, tmp_path):
        m = _machine()
        save_snapshot(m, tmp_path / "ckpt-000000000100.snap")
        save_snapshot(m, tmp_path / "failure-000000000100.snap")
        assert latest_snapshot(tmp_path).name == "ckpt-000000000100.snap"
        assert (
            latest_snapshot(tmp_path, include_failures=True).name
            == "ckpt-000000000100.snap"
        )

    def test_newer_failure_snapshot_does_not_hijack_resume(self, tmp_path):
        # regression: a failure snapshot pins an already-wedged machine;
        # resume-from-directory must prefer the last *good* periodic
        # snapshot even when the failure one is newer
        m = _machine()
        save_snapshot(m, tmp_path / "ckpt-000000000100.snap")
        save_snapshot(m, tmp_path / "failure-000000000250.snap")
        assert latest_snapshot(tmp_path).name == "ckpt-000000000100.snap"
        assert (
            latest_snapshot(tmp_path, include_failures=True).name
            == "failure-000000000250.snap"
        )

    def test_timeout_snapshot_stays_resumable(self, tmp_path):
        # a timed-out machine was still making progress; its snapshot
        # is a valid (if last-ranked) resume point
        m = _machine()
        save_snapshot(m, tmp_path / "ckpt-000000000100.snap")
        save_snapshot(m, tmp_path / "timeout-000000000250.snap")
        assert latest_snapshot(tmp_path).name == "timeout-000000000250.snap"

    def test_failure_only_directory_refuses_implicit_load(self, tmp_path):
        m = _machine()
        save_snapshot(m, tmp_path / "failure-000000000250.snap")
        assert latest_snapshot(tmp_path) is None
        with pytest.raises(SnapshotError, match="wedged"):
            load_machine(tmp_path)
        # naming the file explicitly still loads it for forensics
        loaded = load_machine(
            tmp_path / "failure-000000000250.snap", expected_cls=Machine
        )
        assert isinstance(loaded, Machine)

    def test_unrelated_files_ignored(self, tmp_path):
        m = _machine()
        save_snapshot(m, tmp_path / "ckpt-000000000100.snap")
        (tmp_path / "random-junk.snap").write_bytes(b"xx")
        (tmp_path / "manifest.json").write_text("{}")
        assert latest_snapshot(tmp_path).name == "ckpt-000000000100.snap"


class TestAtomicWrite:
    def test_another_writers_in_flight_temp_survives(self, tmp_path):
        # regression: the temp name used to be the fixed sibling
        # <name>.tmp, so a second writer truncated the first one's
        # in-flight data; per-writer unique names must leave it alone
        target = tmp_path / "x.snap"
        in_flight = tmp_path / "x.snap.tmp"
        in_flight.write_bytes(b"other writer's partial snapshot")
        atomic_write(target, b"mine")
        assert in_flight.read_bytes() == b"other writer's partial snapshot"
        assert target.read_bytes() == b"mine"

    def test_temp_names_unique_and_cleaned_up(self, tmp_path, monkeypatch):
        import repro.checkpoint.snapshot as snap_mod

        target = tmp_path / "x.snap"
        seen = []
        real_replace = os.replace

        def recording_replace(src, dst):
            seen.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(snap_mod.os, "replace", recording_replace)
        atomic_write(target, b"one")
        atomic_write(target, b"two")
        assert len(set(seen)) == 2
        assert target.read_bytes() == b"two"
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_failed_write_leaves_no_temp_behind(self, tmp_path, monkeypatch):
        import repro.checkpoint.snapshot as snap_mod

        target = tmp_path / "x.snap"

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(snap_mod.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, b"doomed")
        assert list(tmp_path.iterdir()) == []

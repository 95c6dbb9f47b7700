"""Format v2 specifics: self-describing metadata, the restricted
unpickler, and the refusal of format-v1 files.

The format-agnostic damage-detection matrix lives in
``test_snapshot_format.py``; this file covers what v2 *added*.
"""

import io
import json
import os
import pickle
import pickletools
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.checkpoint import (
    EXIT_SNAPSHOT_UNLOADABLE,
    FORMAT_VERSION,
    fsck_directory,
    load_machine,
    read_metadata,
    read_snapshot,
    save_snapshot,
    snapshot_cycle,
)
from repro.checkpoint.snapshot import (
    _HEADER,
    _restricted_loads,
    snapshot_bytes,
    snapshot_metadata,
)
from repro.errors import SnapshotError
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


#: a fig2 machine paused mid-run, written by the last build that still
#: produced format v1 (52-byte header over an unrestricted pickle)
V1_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "fig2-v1.snap"


# ----------------------------------------------------------------------
# metadata section
# ----------------------------------------------------------------------
class TestMetadata:
    def test_read_metadata_never_touches_the_payload(self, tmp_path):
        # corrupt the payload but fix up its checksum + length so only
        # unpickling could notice; read_metadata must not care
        m = _machine()
        path = save_snapshot(m, tmp_path / "m.snap", reason="probe")
        raw = path.read_bytes()
        (_, _, meta_len, meta_digest, _, _) = _HEADER.unpack_from(raw)
        meta_bytes = raw[_HEADER.size:_HEADER.size + meta_len]
        garbage = b"\x80\x04garbage-not-a-pickle"
        import hashlib

        header = _HEADER.pack(
            raw[:8], FORMAT_VERSION, meta_len, meta_digest,
            len(garbage), hashlib.sha256(garbage).digest(),
        )
        path.write_bytes(header + meta_bytes + garbage)
        meta = read_metadata(path)
        assert meta["reason"] == "probe"
        assert meta["checksum"] == "ok"
        # ...while actually loading it fails loudly
        with pytest.raises(SnapshotError):
            read_snapshot(path)

    def test_metadata_fields(self, tmp_path):
        m = _machine()
        m.workload_id = "fig0[m=5]"
        path = save_snapshot(m, tmp_path / "m.snap", reason="test")
        meta = read_metadata(path)
        assert meta["format"] == FORMAT_VERSION
        assert meta["workload"] == "fig0[m=5]"
        assert meta["cycle"] == 0
        assert meta["reason"] == "test"
        assert meta["stats"]["events_pending"] >= 0
        assert meta["payload_bytes"] > 0

    def test_metadata_is_deterministic(self):
        # identical machine states -> byte-identical snapshots (no
        # wall-clock timestamps hiding in the envelope)
        a = snapshot_bytes(_machine(), reason="x")
        b = snapshot_bytes(_machine(), reason="x")
        assert a == b

    def test_snapshot_cycle_uses_metadata_only(self, tmp_path):
        m = _machine()
        path = save_snapshot(m, tmp_path / "m.snap")
        assert snapshot_cycle(path) == 0
        # ...and only from there: a (checksum-valid) envelope whose
        # metadata names no cycle is a typed error, not a payload read
        from repro.checkpoint.snapshot import _pack_envelope

        path.write_bytes(_pack_envelope({}, pickle.dumps({"cycle": 7})))
        with pytest.raises(SnapshotError, match="no usable cycle"):
            snapshot_cycle(path)

    def test_read_snapshot_exposes_meta(self, tmp_path):
        path = save_snapshot(_machine(), tmp_path / "m.snap", reason="r")
        data = read_snapshot(path)
        assert data["meta"]["reason"] == "r"
        assert data["reason"] == "r"


# ----------------------------------------------------------------------
# restricted unpickler
# ----------------------------------------------------------------------
class TestRestrictedUnpickler:
    def _envelope_for(self, payload):
        import hashlib

        meta = b"{}"
        header = _HEADER.pack(
            b"RPROSNAP", FORMAT_VERSION, len(meta),
            hashlib.sha256(meta).digest(), len(payload),
            hashlib.sha256(payload).digest(),
        )
        return header + meta + payload

    def test_os_system_gadget_rejected(self, tmp_path):
        class Gadget:
            def __reduce__(self):
                import os

                return (os.system, ("true",))

        payload = pickle.dumps({"machine": Gadget(), "cycle": 0})
        path = tmp_path / "evil.snap"
        path.write_bytes(self._envelope_for(payload))
        with pytest.raises(SnapshotError, match="forbidden global"):
            read_snapshot(path)

    def test_builtins_eval_rejected(self):
        payload = pickle.dumps(eval)
        with pytest.raises(SnapshotError, match="forbidden global"):
            _restricted_loads(payload, "test")

    def test_dotted_stack_global_rejected(self):
        # protocol-4 STACK_GLOBAL resolves dotted names via getattr
        # chains; ("repro.checkpoint.snapshot", "os.system") would slip
        # past a module-prefix check
        out = io.BytesIO()
        out.write(pickle.PROTO + bytes([4]))
        out.write(pickle.SHORT_BINUNICODE
                  + bytes([len(b"repro.checkpoint.snapshot")])
                  + b"repro.checkpoint.snapshot")
        out.write(pickle.SHORT_BINUNICODE + bytes([len(b"os.system")])
                  + b"os.system")
        out.write(pickle.STACK_GLOBAL)
        out.write(pickle.STOP)
        with pytest.raises(SnapshotError, match="dotted global"):
            _restricted_loads(out.getvalue(), "test")

    def test_bare_module_reimport_rejected(self):
        # ("repro.checkpoint.snapshot", "os") resolves to the os module
        # imported inside a repro module; the per-module allowlist
        # refuses the name before it is even resolved
        out = io.BytesIO()
        out.write(pickle.PROTO + bytes([4]))
        mod = b"repro.checkpoint.snapshot"
        out.write(pickle.SHORT_BINUNICODE + bytes([len(mod)]) + mod)
        out.write(pickle.SHORT_BINUNICODE + bytes([2]) + b"os")
        out.write(pickle.STACK_GLOBAL)
        out.write(pickle.STOP)
        with pytest.raises(SnapshotError, match="forbidden global"):
            _restricted_loads(out.getvalue(), "test")

    def test_repro_module_level_function_rejected(self):
        # pickle REDUCE calls whatever find_class returns with stream-
        # controlled arguments, so a repro *function* (repro.cli.main,
        # _atomic_write, ...) is as dangerous as os.system; the
        # allowlist admits only pinned state-bearing classes
        for mod, name in (
            ("repro.cli", "main"),
            ("repro.checkpoint.snapshot", "_atomic_write"),
            ("repro.checkpoint.snapshot", "save_snapshot"),
        ):
            out = io.BytesIO()
            out.write(pickle.PROTO + bytes([4]))
            out.write(pickle.SHORT_BINUNICODE
                      + bytes([len(mod.encode())]) + mod.encode())
            out.write(pickle.SHORT_BINUNICODE
                      + bytes([len(name.encode())]) + name.encode())
            out.write(pickle.STACK_GLOBAL)
            out.write(pickle.STOP)
            with pytest.raises(SnapshotError, match="forbidden global"):
                _restricted_loads(out.getvalue(), "test")

    def test_unlisted_repro_class_rejected(self):
        # even a genuine repro class is refused unless its name is
        # pinned on the allowlist (its constructor could have side
        # effects REDUCE would trigger with hostile arguments)
        from repro.checkpoint.supervisor import Supervisor

        payload = pickle.dumps(Supervisor)
        with pytest.raises(SnapshotError, match="forbidden global"):
            _restricted_loads(payload, "test")

    def test_real_snapshot_round_trips(self, tmp_path):
        # the allowlist is tight but must still cover everything a real
        # machine pickle references
        m = _machine()
        m.run()
        path = save_snapshot(m, tmp_path / "done.snap")
        loaded = load_machine(path, expected_cls=Machine)
        assert loaded.outputs() == m.outputs()

    def test_mid_run_snapshot_round_trips(self, tmp_path):
        direct = _machine()
        direct.run()
        m = _machine()
        m.run(stop_at_checkpoint=True)
        path = save_snapshot(m, tmp_path / "mid.snap")
        loaded = load_machine(path, expected_cls=Machine)
        loaded.run()
        assert loaded.outputs() == direct.outputs()

    def test_allowlisted_stdlib_containers_pass(self):
        from collections import Counter, OrderedDict, deque
        from random import Random

        value = {
            "machine": None,
            "d": deque([1, 2]),
            "o": OrderedDict(a=1),
            "c": Counter("aa"),
            "r": Random(7),
            "s": {1, 2},
            "f": frozenset({3}),
            "b": bytearray(b"x"),
            "rng": range(4),
        }
        out = _restricted_loads(pickle.dumps(value), "test")
        assert out["d"] == deque([1, 2])
        assert out["c"] == Counter("aa")

    def test_every_real_snapshot_global_is_allowlisted(self):
        # enumerate the GLOBAL/STACK_GLOBAL opcodes of a genuine
        # mid-run snapshot payload; each must be pinned on the repro or
        # stdlib allowlist -- this is the empirical basis for both
        # lists and will fail if new state sneaks in a new type
        from repro.checkpoint.snapshot import (
            _REPRO_ALLOWLIST,
            _STDLIB_ALLOWLIST,
        )

        m = _machine()
        m.run(stop_at_checkpoint=True)
        payload = pickle.dumps({"machine": m, "cycle": m.now})
        seen = []
        prev = None
        for op, arg, _pos in pickletools.genops(payload):
            if op.name == "STACK_GLOBAL" and prev is not None:
                seen.append(prev)
            elif op.name == "GLOBAL":
                mod, name = arg.split(" ")
                seen.append((mod, name))
            if op.name in ("SHORT_BINUNICODE", "BINUNICODE", "UNICODE"):
                prev = (prev[1], arg) if prev else (None, arg)
            else:
                prev = None
        # pickletools two-string tracking above is crude; re-derive via
        # the unpickler itself instead when it disagrees
        _restricted_loads(payload, "self-check")
        for mod, name in seen:
            if mod is None:
                continue
            allowed = _REPRO_ALLOWLIST.get(
                mod, _STDLIB_ALLOWLIST.get(mod, frozenset())
            )
            assert name in allowed, (
                f"unexpected snapshot global {mod}.{name}"
            )


# ----------------------------------------------------------------------
# format v1 is recognised and refused
# ----------------------------------------------------------------------
def _fsck_unresumable(path):
    report = fsck_directory(path.parent)
    assert not report["ok"]
    raise SnapshotError("; ".join(report["problems"]))


def _cli_refusal(*argv, code, on_dir=False):
    """Run one CLI command in process on the v1 file (or its
    directory), pin its exit code, and re-raise what it printed."""
    from repro.cli import main

    def run(path):
        out, err = io.StringIO(), io.StringIO()
        target = path.parent if on_dir else path
        with redirect_stdout(out), redirect_stderr(err):
            assert main([*argv, str(target)]) == code
        raise SnapshotError(out.getvalue() + err.getvalue())

    return run


V1_READERS = {
    "read_snapshot": read_snapshot,
    "read_metadata": read_metadata,
    "load_machine": load_machine,
    "Machine.resume": Machine.resume,
    "fsck_directory": _fsck_unresumable,
    "cli-resume": _cli_refusal("resume", code=EXIT_SNAPSHOT_UNLOADABLE),
    "cli-inspect": _cli_refusal("snapshot", "inspect", code=1),
    "cli-fsck": _cli_refusal("snapshot", "fsck", code=1, on_dir=True),
}


class TestLegacyGate:
    def test_v1_refused_by_default(self):
        with pytest.raises(SnapshotError, match="format version 1"):
            read_snapshot(V1_FIXTURE)
        with pytest.raises(SnapshotError, match="reads versions 2 and 3"):
            load_machine(V1_FIXTURE)

    @pytest.mark.parametrize("reader", sorted(V1_READERS))
    def test_v1_fails_typed_before_any_payload_byte(
        self, reader, tmp_path, monkeypatch
    ):
        # the only door to a payload is the restricted unpickler; nail
        # it shut and every reader must still refuse the file by name
        monkeypatch.setattr(
            "repro.checkpoint.snapshot._restricted_loads",
            lambda *a, **k: pytest.fail("v1 payload was deserialized"),
        )
        path = tmp_path / V1_FIXTURE.name
        path.write_bytes(V1_FIXTURE.read_bytes())
        with pytest.raises(SnapshotError, match="format version 1"):
            V1_READERS[reader](path)


# ----------------------------------------------------------------------
# CLI: repro snapshot inspect
# ----------------------------------------------------------------------
def _cli(*argv, cwd=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, env=env, cwd=cwd,
    )


class TestSnapshotCli:
    def test_inspect_prints_v2_metadata(self, tmp_path):
        path = save_snapshot(_machine(), tmp_path / "m.snap", reason="test")
        proc = _cli("snapshot", "inspect", str(path))
        assert proc.returncode == 0, proc.stderr
        meta = json.loads(proc.stdout)
        assert meta["format"] == FORMAT_VERSION
        assert meta["reason"] == "test"

    def test_inspect_fails_typed_on_garbage(self, tmp_path):
        bad = tmp_path / "junk.snap"
        bad.write_bytes(b"NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
        proc = _cli("snapshot", "inspect", str(bad))
        assert proc.returncode == 1
        assert b"error:" in proc.stderr
        assert b"Traceback" not in proc.stderr

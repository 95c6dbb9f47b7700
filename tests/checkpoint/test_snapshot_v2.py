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
import random
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
    _PREFIX,
    MAGIC,
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
        # atomic_write, ...) is as dangerous as os.system; the
        # allowlist admits only pinned state-bearing classes
        for mod, name in (
            ("repro.cli", "main"),
            ("repro.fileio", "atomic_write"),
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

        value = {
            "machine": None,
            "d": deque([1, 2]),
            "o": OrderedDict(a=1),
            "c": Counter("aa"),
            "s": {1, 2},
            "f": frozenset({3}),
            "b": bytearray(b"x"),
            "rng": range(4),
        }
        out = _restricted_loads(pickle.dumps(value), "test")
        assert out["d"] == deque([1, 2])
        assert out["c"] == Counter("aa")

    def test_a_generator_state_is_refused(self):
        # the fault injector pickles per-arc cursors, never a generator
        with pytest.raises(SnapshotError, match="forbidden global random"):
            _restricted_loads(pickle.dumps(random.Random(7)), "test")

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


def _global_ref(module, name):
    """A protocol-4 pickle holding one ``STACK_GLOBAL`` reference."""
    out = io.BytesIO()
    out.write(pickle.PROTO + bytes([4]))
    for text in (module.encode(), name.encode()):
        out.write(pickle.SHORT_BINUNICODE + bytes([len(text)]) + text)
    out.write(pickle.STACK_GLOBAL)
    out.write(pickle.STOP)
    return out.getvalue()


class TestVerdictCache:
    """``find_class`` remembers admitted classes, never refusals."""

    REFUSALS = {
        "dotted": (
            "repro.machine.machine", "_CellState.__init__", None,
            "snapshot payload references dotted global "
            "repro.machine.machine._CellState.__init__; refusing to "
            "traverse attributes",
        ),
        "forbidden": (
            "os", "system", None,
            "snapshot payload references forbidden global os.system; "
            "only allowlisted repro state classes and stdlib containers "
            "may appear in a snapshot",
        ),
        "non-class": (
            "repro.machine.machine", "validate", "validate",
            "snapshot payload references repro.machine.machine.validate, "
            "which is not a class; refusing a callable that REDUCE would "
            "invoke",
        ),
        "foreign class": (
            "repro.checkpoint.snapshot", "Path", "Path",
            "snapshot payload references repro.checkpoint.snapshot.Path, "
            "which is not defined inside the repro package",
        ),
    }

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusals_survive_a_cached_load(self, case, tmp_path,
                                            monkeypatch):
        from repro.checkpoint.snapshot import (
            _REPRO_ALLOWLIST,
            _RestrictedUnpickler,
        )

        m = _machine()
        m.run(stop_at_checkpoint=True)
        load_machine(save_snapshot(m, tmp_path / "mid.snap"),
                     expected_cls=Machine)
        admitted = _RestrictedUnpickler._admitted
        assert admitted[
            "repro.machine.machine", "_CellState"
        ].__name__ == "_CellState"
        module, name, allow, message = self.REFUSALS[case]
        if allow is not None:
            # an allowlist edit naming something that is not a repro
            # class must still be refused by the later checks
            monkeypatch.setitem(_REPRO_ALLOWLIST, module,
                                _REPRO_ALLOWLIST.get(module, frozenset())
                                | {allow})
        # refused twice: a refusal is never remembered
        for _ in range(2):
            with pytest.raises(SnapshotError) as info:
                _restricted_loads(_global_ref(module, name), "test")
            assert str(info.value) == message
            assert (module, name) not in admitted


# ----------------------------------------------------------------------
# formats v1-v3 are recognised and refused
# ----------------------------------------------------------------------
def _fsck_unresumable(path):
    report = fsck_directory(path.parent)
    assert not report["ok"]
    raise SnapshotError("; ".join(report["problems"]))


def _cli_refusal(*argv, code, on_dir=False):
    """Run one CLI command in process on a legacy file (or its
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


def _refused_unread(reader, path, version, monkeypatch):
    # the only door to a payload is the restricted unpickler; nail it
    # shut and every reader must still refuse the file by its version
    monkeypatch.setattr(
        "repro.checkpoint.snapshot._restricted_loads",
        lambda *a, **k: pytest.fail(f"v{version} payload was deserialized"),
    )
    with pytest.raises(SnapshotError, match=f"format version {version}"):
        V1_READERS[reader](path)


class TestLegacyGate:
    def test_v1_refused_by_default(self):
        with pytest.raises(SnapshotError, match="format version 1"):
            read_snapshot(V1_FIXTURE)
        with pytest.raises(SnapshotError, match="reads versions 4 and 5"):
            load_machine(V1_FIXTURE)

    @pytest.mark.parametrize("reader", sorted(V1_READERS))
    def test_v1_fails_typed_before_any_payload_byte(
        self, reader, tmp_path, monkeypatch
    ):
        path = tmp_path / V1_FIXTURE.name
        path.write_bytes(V1_FIXTURE.read_bytes())
        _refused_unread(reader, path, 1, monkeypatch)

    @pytest.mark.parametrize("version", [2, 3])
    @pytest.mark.parametrize("reader", sorted(V1_READERS))
    def test_v2_and_v3_fail_typed_before_any_payload_byte(
        self, reader, version, tmp_path, monkeypatch
    ):
        # the base and delta formats whose fault injector pickled one
        # run-wide generator: today's envelope under the older number
        raw = snapshot_bytes(_machine())
        path = tmp_path / f"v{version}.snap"
        path.write_bytes(_PREFIX.pack(MAGIC, version) + raw[_PREFIX.size:])
        _refused_unread(reader, path, version, monkeypatch)


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


# ----------------------------------------------------------------------
# byte determinism: no host timing inside a snapshot
# ----------------------------------------------------------------------
class TestNoHostTiming:
    def test_identical_runs_write_identical_files(self, tmp_path,
                                                  monkeypatch):
        from repro.checkpoint import CheckpointConfig
        from repro.workloads.figures import FIGURES

        cp = FIGURES["fig2"].compile(m=200)
        inputs = FIGURES["fig2"].make_inputs(cp, seed=7)
        runs = []
        for run in ("a", "b"):
            # the directory string is pickled, so both runs name it alike
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            Machine(
                cp.graph, inputs=inputs,
                checkpoint=CheckpointConfig("ckpt", interval=100, retain=0),
            ).run()
            runs.append({
                path.name: path.read_bytes()
                for path in sorted(Path("ckpt").iterdir())
            })
        assert len(runs[0]) > 1
        assert sorted(runs[0]) == sorted(runs[1])
        differ = [name for name in runs[0] if runs[0][name] != runs[1][name]]
        assert differ == []

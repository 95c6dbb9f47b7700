"""The crash-supervision loop: restart policy, backoff schedule,
poisoned-snapshot quarantine, budget exhaustion.

Unit tests drive :class:`Supervisor` with a scripted fake runner and an
injectable sleep so crash sequences and the backoff schedule are
asserted deterministically; one integration test runs real child
processes with ``--inject-crash``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.checkpoint import (
    EXIT_SNAPSHOT_UNLOADABLE,
    Supervisor,
    SupervisorConfig,
    save_snapshot,
)
from repro.errors import SupervisorError
from repro.graph.graph import DataflowGraph
from repro.graph.opcodes import Op
from repro.machine.machine import Machine
from repro.workers import BackoffPolicy

NO_JITTER = BackoffPolicy(jitter=0.0)


def _machine():
    g = DataflowGraph()
    s = g.add_source("x", stream="x")
    a = g.add_cell(Op.ADD, name="inc", consts={1: 1})
    sink = g.add_sink("out", stream="y", limit=5)
    g.connect(s, a, 0)
    g.connect(a, sink, 0)
    return Machine(g, inputs={"x": list(range(5))})


def _snap(directory, name):
    return save_snapshot(_machine(), Path(directory) / name)


class ScriptedRunner:
    """Fake child launcher: pops scripted ``(returncode, action)``
    outcomes; ``action(directory)`` mutates the checkpoint directory
    the way the scripted child would have (writing snapshots, etc.)."""

    def __init__(self, directory, outcomes):
        self.directory = Path(directory)
        self.outcomes = list(outcomes)
        self.argvs = []

    def __call__(self, argv):
        self.argvs.append(list(argv))
        returncode, action = self.outcomes.pop(0)
        if action is not None:
            action(self.directory)
        stdout = b'{"ok": true}\n' if returncode == 0 else b""
        return SimpleNamespace(returncode=returncode, stdout=stdout)


def _supervisor(tmp_path, outcomes, backoff=(), **cfg_kw):
    cfg_kw["backoff"] = BackoffPolicy(**{"jitter": 0.0, **dict(backoff)})
    config = SupervisorConfig(directory=tmp_path, **cfg_kw)
    runner = ScriptedRunner(tmp_path, outcomes)
    sleeps = []
    sup = Supervisor(
        start_argv=["start"],
        config=config,
        resume_argv=lambda d: ["resume", str(d)],
        runner=runner,
        sleep=sleeps.append,
        log=lambda line: None,
    )
    return sup, runner, sleeps


class TestConfigValidation:
    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(SupervisorError, match="max_restarts"):
            SupervisorConfig(directory=tmp_path, max_restarts=-1)

    def test_empty_argv_rejected(self, tmp_path):
        with pytest.raises(SupervisorError, match="start_argv"):
            Supervisor([], SupervisorConfig(directory=tmp_path))


class TestHappyPaths:
    def test_clean_first_run(self, tmp_path):
        sup, runner, sleeps = _supervisor(tmp_path, [(0, None)])
        report = sup.run()
        assert report.completed and report.restarts == 0
        assert report.stdout == b'{"ok": true}\n'
        assert runner.argvs == [["start"]]
        assert sleeps == []

    def test_existing_snapshots_resume_first(self, tmp_path):
        _snap(tmp_path, "ckpt-000000000100.snap")
        sup, runner, _ = _supervisor(tmp_path, [(0, None)])
        report = sup.run()
        assert report.completed
        assert runner.argvs == [["resume", str(tmp_path)]]
        assert report.attempts[0].mode == "resume"
        assert (report.attempts[0].resume_snapshot
                == "ckpt-000000000100.snap")

    def test_crash_then_recover(self, tmp_path):
        outcomes = [
            (137, lambda d: _snap(d, "ckpt-000000000100.snap")),
            (0, None),
        ]
        sup, runner, sleeps = _supervisor(tmp_path, outcomes)
        report = sup.run()
        assert report.completed and report.restarts == 1
        assert runner.argvs == [["start"], ["resume", str(tmp_path)]]
        assert report.quarantined == []
        assert sleeps == [pytest.approx(0.5)]

    def test_extra_args_consumed_per_attempt(self, tmp_path):
        outcomes = [
            (137, lambda d: _snap(d, "ckpt-000000000100.snap")),
            (0, None),
        ]
        config = SupervisorConfig(directory=tmp_path, backoff=NO_JITTER)
        runner = ScriptedRunner(tmp_path, outcomes)
        sup = Supervisor(
            ["start"], config,
            resume_argv=lambda d: ["resume", str(d)],
            extra_args=[["--crash-at", "100"], ["--crash-at", "900"]],
            runner=runner, sleep=lambda s: None, log=lambda line: None,
        )
        sup.run()
        assert runner.argvs[0] == ["start", "--crash-at", "100"]
        assert runner.argvs[1] == ["resume", str(tmp_path),
                                   "--crash-at", "900"]


class TestBackoffSchedule:
    def test_exponential_with_cap(self, tmp_path):
        progress = iter(range(100, 1000, 100))

        def advance(d):
            _snap(d, f"ckpt-{next(progress):012d}.snap")

        outcomes = [(137, advance)] * 5 + [(0, None)]
        sup, _, sleeps = _supervisor(
            tmp_path, outcomes,
            backoff=dict(base=1.0, factor=2.0, max_delay=6.0),
            max_restarts=10,
        )
        report = sup.run()
        assert report.completed
        assert sleeps == [pytest.approx(x) for x in [1.0, 2.0, 4.0, 6.0, 6.0]]

    def test_jitter_is_seeded_and_bounded(self, tmp_path):
        def schedule(seed):
            progress = iter(range(100, 1000, 100))
            outcomes = [
                (137, lambda d: _snap(d, f"ckpt-{next(progress):012d}.snap"))
            ] * 4 + [(0, None)]
            sup, _, sleeps = _supervisor(
                tmp_path, outcomes, seed=seed,
                backoff=dict(base=1.0, factor=2.0, max_delay=30.0,
                             jitter=0.1),
                max_restarts=10,
            )
            sup.run()
            for f in Path(tmp_path).glob("*.snap"):
                f.unlink()
            return sleeps

        a, b, c = schedule(7), schedule(7), schedule(8)
        assert a == b          # same seed -> same schedule
        assert a != c          # different seed -> different schedule
        for delay, nominal in zip(a, [1.0, 2.0, 4.0, 8.0]):
            assert nominal * 0.9 <= delay <= nominal * 1.1


class TestQuarantine:
    def test_two_strikes_in_same_window_quarantines(self, tmp_path):
        _snap(tmp_path, "ckpt-000000000100.snap")
        _snap(tmp_path, "ckpt-000000000200.snap")
        # resume from 200 crashes twice with no new snapshot -> 200 is
        # poisoned; the next resume steps back to 100 and completes
        outcomes = [(137, None), (137, None), (0, None)]
        sup, runner, _ = _supervisor(tmp_path, outcomes, max_restarts=8)
        report = sup.run()
        assert report.completed
        assert report.quarantined == ["ckpt-000000000200.snap"]
        assert (tmp_path / "ckpt-000000000200.snap.poisoned").exists()
        assert not (tmp_path / "ckpt-000000000200.snap").exists()
        assert report.attempts[2].resume_snapshot == "ckpt-000000000100.snap"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["quarantined"][0]["snapshot"] == (
            "ckpt-000000000200.snap"
        )

    def test_load_failure_quarantines_immediately(self, tmp_path):
        _snap(tmp_path, "ckpt-000000000100.snap")
        _snap(tmp_path, "ckpt-000000000200.snap")
        # the dedicated exit code from a resume = the child could not
        # even load the snapshot; no second strike needed
        outcomes = [(EXIT_SNAPSHOT_UNLOADABLE, None), (0, None)]
        sup, _, _ = _supervisor(tmp_path, outcomes)
        report = sup.run()
        assert report.completed
        assert report.quarantined == ["ckpt-000000000200.snap"]
        assert report.attempts[1].resume_snapshot == "ckpt-000000000100.snap"

    def test_generic_exit_1_does_not_quarantine_on_first_strike(
        self, tmp_path
    ):
        _snap(tmp_path, "ckpt-000000000100.snap")
        _snap(tmp_path, "ckpt-000000000200.snap")
        # exit 1 means ANY ReproError -- disk full while writing a
        # later snapshot, a missing plan file -- not necessarily a bad
        # snapshot; it must go through the two-strike counter, never
        # poison a good snapshot on the first strike
        outcomes = [(1, None), (1, None), (0, None)]
        sup, _, _ = _supervisor(tmp_path, outcomes)
        report = sup.run()
        assert report.completed
        # first exit 1 left the snapshot alone; the second strike in
        # the same window quarantined it as usual
        assert report.quarantined == ["ckpt-000000000200.snap"]
        assert report.attempts[1].resume_snapshot == "ckpt-000000000200.snap"
        assert report.attempts[2].resume_snapshot == "ckpt-000000000100.snap"

    def test_progress_clears_strikes(self, tmp_path):
        _snap(tmp_path, "ckpt-000000000100.snap")
        # each crash still wrote a newer snapshot first: never quarantine
        progress = iter(range(200, 900, 100))
        outcomes = [
            (137, lambda d: _snap(d, f"ckpt-{next(progress):012d}.snap"))
        ] * 4 + [(0, None)]
        sup, _, _ = _supervisor(tmp_path, outcomes, max_restarts=10)
        report = sup.run()
        assert report.completed
        assert report.quarantined == []

    def test_all_snapshots_poisoned_restarts_from_scratch(self, tmp_path):
        _snap(tmp_path, "ckpt-000000000100.snap")
        outcomes = [(EXIT_SNAPSHOT_UNLOADABLE, None), (0, None)]
        sup, runner, _ = _supervisor(tmp_path, outcomes)
        report = sup.run()
        assert report.completed
        assert report.quarantined == ["ckpt-000000000100.snap"]
        # with nothing left to resume, the loop fell back to a fresh start
        assert runner.argvs[1] == ["start"]


class TestGivingUp:
    def test_budget_exhaustion(self, tmp_path):
        outcomes = [
            (137, lambda d: _snap(d, "ckpt-000000000100.snap")),
            (137, lambda d: _snap(d, "ckpt-000000000200.snap")),
            (137, lambda d: _snap(d, "ckpt-000000000300.snap")),
        ]
        sup, _, _ = _supervisor(tmp_path, outcomes, max_restarts=2)
        report = sup.run()
        assert not report.completed
        assert report.gave_up is not None
        assert "budget" in report.gave_up
        assert len(report.attempts) == 3
        assert report.stdout is None

    def test_zero_budget_runs_once(self, tmp_path):
        sup, runner, _ = _supervisor(tmp_path, [(137, None)],
                                     max_restarts=0)
        report = sup.run()
        assert not report.completed
        assert len(runner.argvs) == 1

    def test_report_serializes(self, tmp_path):
        sup, _, _ = _supervisor(tmp_path, [(0, None)])
        report = sup.run()
        blob = json.dumps(report.to_dict())
        assert "attempts" in blob
        assert "completed" in report.summary()


class TestRealProcesses:
    def test_injected_crashes_recover_bit_identically(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, env=env,
            )

        clean = run("checkpoint", "fig7", "--size", "16",
                    "--input-seed", "7", "--dir", str(tmp_path / "clean"),
                    "--interval", "100")
        assert clean.returncode == 0, clean.stderr
        sup = run("supervise", "fig7", "--size", "16",
                  "--input-seed", "7", "--dir", str(tmp_path / "sup"),
                  "--interval", "100", "--inject-crash", "250",
                  "--backoff-base", "0.01", "--backoff-max", "0.02",
                  "--report-json", str(tmp_path / "report.json"))
        assert sup.returncode == 0, sup.stderr
        assert sup.stdout == clean.stdout
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["completed"] and report["restarts"] >= 1
        assert report["attempts"][0]["returncode"] == 137


class StderrScriptedRunner(ScriptedRunner):
    """Scripted runner whose fake children also capture stderr."""

    def __init__(self, directory, outcomes, stderrs):
        super().__init__(directory, outcomes)
        self.stderrs = list(stderrs)

    def __call__(self, argv):
        proc = super().__call__(argv)
        proc.stderr = self.stderrs.pop(0)
        return proc


class TestStderrCapture:
    def _supervisor(self, tmp_path, outcomes, stderrs):
        config = SupervisorConfig(directory=tmp_path, backoff=NO_JITTER)
        runner = StderrScriptedRunner(tmp_path, outcomes, stderrs)
        sup = Supervisor(
            start_argv=["start"],
            config=config,
            resume_argv=lambda d: ["resume", str(d)],
            runner=runner,
            sleep=lambda s: None,
            log=lambda line: None,
        )
        return sup

    def test_successful_attempt_stderr_captured_byte_identically(
        self, tmp_path
    ):
        noise = b"# progress 1\n\xf0\x9f\x9a\x80 raw bytes\n"
        sup = self._supervisor(tmp_path, [(0, None)], [noise])
        report = sup.run()
        assert report.completed
        assert report.stderr == noise

    def test_failed_attempt_stderr_reemitted_immediately(
        self, tmp_path, capsys
    ):
        sup = self._supervisor(
            tmp_path,
            [(1, None), (0, None)],
            [b"child dying: traceback\n", b"clean run\n"],
        )
        report = sup.run()
        captured = capsys.readouterr()
        assert "child dying: traceback" in captured.err
        # the *successful* attempt's stderr is captured for the caller
        # to republish, not re-emitted by the supervisor itself
        assert "clean run" not in captured.err
        assert report.stderr == b"clean run\n"

    def test_runner_without_stderr_capture_reports_none(self, tmp_path):
        config = SupervisorConfig(directory=tmp_path, backoff=NO_JITTER)
        runner = ScriptedRunner(tmp_path, [(0, None)])
        sup = Supervisor(
            start_argv=["start"], config=config,
            resume_argv=lambda d: ["resume", str(d)],
            runner=runner, sleep=lambda s: None, log=lambda line: None,
        )
        assert sup.run().stderr is None

    def test_cli_supervise_republishes_child_stderr(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, env=env,
            )

        sup = run("supervise", "fig7", "--size", "16",
                  "--input-seed", "7", "--dir", str(tmp_path / "sup"),
                  "--interval", "100", "--inject-crash", "250",
                  "--backoff-base", "0.01", "--backoff-max", "0.02")
        assert sup.returncode == 0, sup.stderr
        # the successful resume child's own stderr lines ride along
        # byte-for-byte after the supervisor's "# supervise:" log
        assert b"# completed at cycle 265" in sup.stderr
        # the crashed first attempt's partial stderr was re-emitted too
        assert b"# supervise: attempt 1 (start) exited 137" in sup.stderr

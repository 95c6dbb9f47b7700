"""Kill-and-resume determinism across every paper-figure workload.

The tentpole acceptance bar: a run interrupted at an arbitrary
checkpoint and resumed from disk must finish with outputs (and sink
arrival times) **bit-identical** to the uninterrupted run -- with and
without an active fault plan, whose RNG cursor rides inside the
snapshot.  Checkpoint cycles are randomized per figure from a seeded
RNG so each figure is cut at a different, reproducible point.
"""

import os
import random
import signal
import subprocess
import sys

import pytest

from repro.checkpoint import CheckpointConfig, load_machine
from repro.errors import DeadlockError, SimulationTimeout
from repro.faults import FaultPlan
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.workloads.figures import FIGURES

RESUME_PLAN = FaultPlan(
    seed=1234,
    drop_result=0.06,
    dup_result=0.06,
    corrupt_result=0.02,
    drop_ack=0.03,
)

M = 12


def _workload(figure):
    cp = FIGURES[figure].compile(m=M)
    inputs = FIGURES[figure].make_inputs(cp, seed=7)
    return cp, inputs


def _baseline(cp, inputs, plan):
    machine = Machine(cp.graph, inputs=inputs, fault_plan=plan)
    machine.run()
    return machine


class TestResumeBitIdentical:
    @pytest.mark.parametrize("figure", sorted(FIGURES))
    @pytest.mark.parametrize("plan", [None, RESUME_PLAN],
                             ids=["clean", "faulty"])
    def test_resume_matches_uninterrupted_run(
        self, figure, plan, tmp_path
    ):
        cp, inputs = _workload(figure)
        baseline = _baseline(cp, inputs, plan)
        total = baseline.now

        # cut each figure at a different reproducible point mid-run
        rng = random.Random(f"{figure}-{plan is not None}")
        interval = rng.randrange(max(2, total // 8), max(3, total // 2))
        cfg = CheckpointConfig(tmp_path, interval=interval, retain=0)
        checkpointed = Machine(
            cp.graph, inputs=inputs, fault_plan=plan, checkpoint=cfg
        )
        checkpointed.run()
        assert checkpointed.outputs() == baseline.outputs()

        snaps = sorted(tmp_path.glob("ckpt-*.snap"))
        assert snaps, f"interval {interval} produced no snapshot"
        resumed = Machine.resume(rng.choice(snaps))
        assert resumed.now > 0
        # what the machine links at load is rebuilt on resume, not read
        # back from the file: the handler table at once, firing plans
        # as cells are touched again
        assert resumed._linked.handlers is checkpointed._linked.handlers
        assert len(resumed._linked) == 0
        resumed.run()
        assert len(resumed._linked) > 0
        assert resumed.outputs() == baseline.outputs()
        assert resumed.sink_times == baseline.sink_times
        assert resumed.now == total

    def test_resume_of_a_resume(self, tmp_path):
        # two generations of snapshots: resume, checkpoint again, resume
        cp, inputs = _workload("fig6")
        baseline = _baseline(cp, inputs, RESUME_PLAN)
        cfg = CheckpointConfig(tmp_path, interval=60, retain=0)
        first = Machine(
            cp.graph, inputs=inputs, fault_plan=RESUME_PLAN, checkpoint=cfg
        )
        first.run()
        second = Machine.resume(sorted(tmp_path.glob("ckpt-*.snap"))[0])
        second.run()  # keeps checkpointing into the same directory
        third = Machine.resume(sorted(tmp_path.glob("ckpt-*.snap"))[-1])
        third.run()
        assert (
            first.outputs()
            == second.outputs()
            == third.outputs()
            == baseline.outputs()
        )


class TestCrashAndResumeSubprocess:
    def test_sigkill_mid_run_then_resume_via_cli(self, tmp_path):
        """End to end through the CLI: hard-kill the process mid-run
        (exit 137, what SIGKILL reports), resume from the surviving
        snapshots, and demand byte-identical stdout."""
        env = {**os.environ, "PYTHONPATH": "src"}
        common = [
            sys.executable, "-m", "repro", "checkpoint", "fig6",
            "--size", "8", "--interval", "60",
            "--drop-result", "0.05", "--dup-result", "0.05", "--seed", "3",
        ]
        clean = subprocess.run(
            common + ["--dir", str(tmp_path / "clean")],
            capture_output=True, env=env, cwd="/root/repo",
        )
        assert clean.returncode == 0, clean.stderr.decode()

        crashed = subprocess.run(
            common + ["--dir", str(tmp_path / "crash"), "--crash-at", "150"],
            capture_output=True, env=env, cwd="/root/repo",
        )
        assert crashed.returncode == 128 + signal.SIGKILL
        # the kill happened mid-run: snapshots exist, outputs don't
        assert list((tmp_path / "crash").glob("ckpt-*.snap"))
        assert not crashed.stdout

        resumed = subprocess.run(
            [sys.executable, "-m", "repro", "resume",
             str(tmp_path / "crash")],
            capture_output=True, env=env, cwd="/root/repo",
        )
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert resumed.stdout == clean.stdout

    def test_snapshot_names_encode_their_cycle(self, tmp_path):
        cp, inputs = _workload("fig6")
        cfg = CheckpointConfig(tmp_path, interval=60, retain=0)
        machine = Machine(
            cp.graph, inputs=inputs, fault_plan=RESUME_PLAN, checkpoint=cfg
        )
        machine.run()
        cycles = []
        for path in sorted(tmp_path.glob("ckpt-*.snap")):
            loaded = load_machine(path)
            assert loaded.now == int(path.stem.split("-")[1])
            cycles.append(loaded.now)
        assert cycles == sorted(cycles) and len(set(cycles)) == len(cycles)


class TestResumeAfterFailure:
    def _wedge_mid_run(self, tmp_path):
        """Run fig6 into an unrecoverable all-FU outage at cycle 100,
        checkpointing every 30 cycles on the way there."""
        cp, inputs = _workload("fig6")
        n_fus = MachineConfig().n_fus
        plan = FaultPlan(
            seed=1,
            unit_faults=tuple(
                {"unit": "fu", "index": i, "start": 100, "kind": "outage"}
                for i in range(n_fus)
            ),
        )
        cfg = CheckpointConfig(tmp_path, interval=30, retain=2)
        machine = Machine(
            cp.graph, inputs=inputs, fault_plan=plan, recovery=False,
            checkpoint=cfg,
        )
        with pytest.raises(DeadlockError) as exc_info:
            machine.run()
        return exc_info.value

    def test_resume_directory_picks_last_good_snapshot(self, tmp_path):
        # regression: latest_snapshot() used to hand back the newer
        # failure-*.snap, so resuming a deadlocked directory re-wedged
        # instantly instead of restarting from the last good state
        error = self._wedge_mid_run(tmp_path)
        failure = sorted(tmp_path.glob("failure-*.snap"))
        periodic = sorted(tmp_path.glob("ckpt-*.snap"))
        assert failure and periodic
        failure_cycle = int(failure[-1].stem.split("-")[1])
        last_good = int(periodic[-1].stem.split("-")[1])
        assert failure_cycle > last_good  # the trap this guards against

        resumed = Machine.resume(tmp_path)
        assert resumed.now == last_good
        assert str(error.snapshot_path) == str(failure[-1])

    def test_wedged_snapshot_loads_only_by_explicit_name(self, tmp_path):
        error = self._wedge_mid_run(tmp_path)
        pinned = Machine.resume(error.snapshot_path)
        assert pinned.now > Machine.resume(tmp_path).now

    def test_timed_out_run_resumes_to_completion(self, tmp_path):
        cp, inputs = _workload("fig6")
        baseline = _baseline(cp, inputs, None)
        cfg = CheckpointConfig(tmp_path, interval=0)
        machine = Machine(cp.graph, inputs=inputs, checkpoint=cfg)
        with pytest.raises(SimulationTimeout):
            machine.run(max_cycles=80)
        # a timeout is not a wedge: its snapshot is named timeout-* and
        # is a legitimate resume point
        assert list(tmp_path.glob("timeout-*.snap"))
        assert not list(tmp_path.glob("failure-*.snap"))
        resumed = Machine.resume(tmp_path)
        resumed.run()
        assert resumed.outputs() == baseline.outputs()
        assert resumed.sink_times == baseline.sink_times


class TestRetentionAcrossResume:
    def test_pruning_and_stats_continue_across_resume(self, tmp_path):
        """The retention window and CheckpointStats counters ride inside
        the snapshot: an interrupted-and-resumed run must end with the
        same snapshot files and the same cumulative counters as an
        uninterrupted one."""
        cp, inputs = _workload("fig6")
        base_dir, cut_dir = tmp_path / "base", tmp_path / "cut"

        baseline = Machine(
            cp.graph, inputs=inputs,
            checkpoint=CheckpointConfig(base_dir, interval=30, retain=2),
        )
        baseline.run()
        base_stats = baseline.ckpt.stats
        assert base_stats.snapshots_pruned > 0  # retention actually bit

        interrupted = Machine(
            cp.graph, inputs=inputs,
            checkpoint=CheckpointConfig(cut_dir, interval=30, retain=2),
        )
        interrupted.run(stop_at_checkpoint=90)  # pause, then abandon

        resumed = Machine.resume(cut_dir)
        assert resumed.now == 60  # newest periodic snapshot
        resumed.run()

        cut_stats = resumed.ckpt.stats
        assert cut_stats.snapshots_written == base_stats.snapshots_written
        assert cut_stats.snapshots_pruned == base_stats.snapshots_pruned
        assert (
            cut_stats.last_snapshot_cycle == base_stats.last_snapshot_cycle
        )
        assert sorted(p.name for p in cut_dir.glob("ckpt-*.snap")) == sorted(
            p.name for p in base_dir.glob("ckpt-*.snap")
        )
        assert resumed.outputs() == baseline.outputs()

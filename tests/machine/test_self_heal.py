"""Tests for in-process self-healing of the sharded runner.

The load-bearing property is the same bit-identical determinism the
rest of the sharded stack promises: a worker that is killed or hangs
mid-run must be detected within the policy deadline, every shard must
roll back to the latest complete coordinated set, and the replayed
windows must reproduce exactly the outputs AND sink arrival times of
a run where nothing failed -- across every figure workload and shard
count.  Escalation (restart budgets, two-strike step-back, degrade)
mirrors the ``repro supervise`` ladder one level down.
"""

import functools
import json
import os

import pytest

import repro
from repro.checkpoint import CheckpointConfig, read_shard_manifest
from repro.checkpoint.coordinator import shard_snapshot_name
from repro.cli import main as cli_main
from repro.errors import ReproError, SimulationError
from repro.faults import FaultPlan, ShardFault
from repro.machine import (
    Machine,
    MachineConfig,
    RecoveryPolicy,
    ShardConfig,
    ShardedRunner,
    ShardHangError,
    ShardRecoveryExhausted,
)
from repro.machine import sharded as sharded_mod
from repro.workloads import figure_workload

FIGS = ["fig2", "fig4", "fig5", "fig6", "fig7"]
INTERVAL = 10

#: no-op plan: arms the reliability layer exactly like a chaos plan
#: does, so reference timings are comparable to the healed runs
EMPTY_PLAN = FaultPlan(derivation="keyed")

#: fast-failing policy for tests: healing forced on, no real backoff
#: waits, and a short enough deadline that hang detection doesn't
#: dominate the suite
FAST = dict(enabled=True, backoff_base=0.0, jitter=0.0)
OFF = RecoveryPolicy(enabled=False)


def _procs(shards, recovery=None):
    return ShardConfig(shards=shards, processes=True, recovery=recovery)


@functools.lru_cache(maxsize=None)
def _fig(name, m=12):
    wl = figure_workload(name)
    cp = wl.compile(m=m)
    return cp.graph, cp.prepare_inputs(wl.make_inputs(cp))


@functools.lru_cache(maxsize=None)
def _reference(name):
    """Single-machine run with the same (empty) plan armed."""
    graph, streams = _fig(name)
    machine = Machine(
        graph, MachineConfig.unit_time(), inputs=streams,
        fault_plan=EMPTY_PLAN,
    )
    machine.run()
    outputs = machine.outputs()
    return outputs, {s: machine.sink_arrival_times(s) for s in outputs}


def _chaos_run(tmp_path, name, shards, faults, *, heal=None,
               plan=None, interval=INTERVAL, max_cycles=50_000_000):
    graph, streams = _fig(name)
    base = plan if plan is not None else EMPTY_PLAN
    chaos = FaultPlan.from_dict(
        {**base.to_dict(),
         "shard_faults": [f.to_dict() if hasattr(f, "to_dict") else f
                          for f in faults]}
    ) if faults else base
    cfg = CheckpointConfig(
        tmp_path / "snaps", interval=interval, retain=3
    )
    runner = ShardedRunner(
        graph, streams, shard_config=_procs(shards, heal),
        config=MachineConfig.unit_time(), checkpoint=cfg,
        fault_plan=chaos,
    )
    runner.run(max_cycles=max_cycles)
    outputs = runner.outputs()
    times = {s: runner.sink_arrival_times(s) for s in outputs}
    return runner, outputs, times


def _fault(shard, cycle, kind="kill", **kw):
    return dict(shard=shard, cycle=cycle, kind=kind, **kw)


class TestKillRecovery:
    @pytest.mark.parametrize("name", FIGS)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_bit_identical_after_worker_kill(self, tmp_path, name,
                                             shards):
        ref_out, ref_times = _reference(name)
        victim = shards - 1
        runner, out, times = _chaos_run(
            tmp_path, name, shards, [_fault(victim, 30)],
            heal=RecoveryPolicy(**FAST),
        )
        assert out == ref_out
        assert times == ref_times
        rec = runner.stats().recovery
        assert rec.detections == 1
        assert rec.crashes == 1 and rec.hangs == 0
        assert rec.rollbacks == 1 and rec.respawns >= 1
        assert rec.cycles_replayed > 0

    def test_recovery_with_packet_faults_too(self, tmp_path):
        plan = FaultPlan(
            seed=7, drop_result=0.08, dup_result=0.05,
            corrupt_result=0.04, drop_ack=0.08, dup_ack=0.05,
            derivation="keyed",
        )
        graph, streams = _fig("fig7")
        machine = Machine(
            graph, MachineConfig.unit_time(), inputs=streams,
            fault_plan=plan,
        )
        machine.run()
        ref_out = machine.outputs()
        ref_times = {
            s: machine.sink_arrival_times(s) for s in ref_out
        }
        runner, out, times = _chaos_run(
            tmp_path, "fig7", 4, [_fault(2, 30)], plan=plan,
            heal=RecoveryPolicy(**FAST),
        )
        assert out == ref_out
        assert times == ref_times
        assert runner.stats().recovery.detections == 1

    def test_dead_worker_is_reaped(self, tmp_path):
        graph, streams = _fig("fig7")
        cfg = CheckpointConfig(
            tmp_path / "snaps", interval=INTERVAL, retain=3
        )
        plan = FaultPlan.from_dict(
            {**EMPTY_PLAN.to_dict(),
             "shard_faults": [_fault(1, 30)]}
        )
        runner = ShardedRunner(
            graph, streams,
            shard_config=_procs(4, RecoveryPolicy(**FAST)),
            config=MachineConfig.unit_time(), checkpoint=cfg,
            fault_plan=plan,
        )
        pids = []
        orig = ShardedRunner._recover

        def spy(self, eps, exc, policy):
            pids.append(eps[exc.shard].pid)
            return orig(self, eps, exc, policy)

        ShardedRunner._recover = spy
        try:
            runner.run()
        finally:
            ShardedRunner._recover = orig
        assert len(pids) == 1 and pids[0] is not None
        # the killed worker must be joined, not left a zombie
        with pytest.raises(ProcessLookupError):
            os.kill(pids[0], 0)

    def test_heal_off_preserves_crash_escape(self, tmp_path):
        graph, streams = _fig("fig7")
        cfg = CheckpointConfig(
            tmp_path / "snaps", interval=INTERVAL, retain=3
        )
        plan = FaultPlan(shard_faults=(ShardFault(shard=1, cycle=30),))
        runner = ShardedRunner(
            graph, streams, shard_config=_procs(4, OFF),
            config=MachineConfig.unit_time(), checkpoint=cfg,
            fault_plan=plan,
        )
        with pytest.raises(sharded_mod.ShardCrashError) as err:
            runner.run()
        assert err.value.shard == 1
        assert err.value.exitcode == 137

    def test_crash_at_disables_healing(self, tmp_path):
        # crash_at exists to demonstrate a crash escaping the run, so
        # even an auto-heal-enabled runner must let it out
        graph, streams = _fig("fig7")
        cfg = CheckpointConfig(
            tmp_path / "snaps", interval=INTERVAL, retain=3
        )
        runner = ShardedRunner(
            graph, streams, shard_config=_procs(4),
            config=MachineConfig.unit_time(), checkpoint=cfg,
        )
        assert runner._heal is not None
        with pytest.raises(sharded_mod.ShardCrashError):
            runner.run(crash_at=30, crash_shard=2)


class TestHangRecovery:
    @pytest.mark.parametrize("name", FIGS)
    def test_bit_identical_after_worker_hang(self, tmp_path, name):
        ref_out, ref_times = _reference(name)
        runner, out, times = _chaos_run(
            tmp_path, name, 4, [_fault(1, 30, kind="hang")],
            heal=RecoveryPolicy(deadline=0.5, **FAST),
        )
        assert out == ref_out
        assert times == ref_times
        rec = runner.stats().recovery
        assert rec.detections == 1
        assert rec.hangs == 1 and rec.crashes == 0
        assert rec.respawns >= 1

    def test_slow_worker_within_deadline_is_not_a_failure(
            self, tmp_path):
        ref_out, ref_times = _reference("fig7")
        runner, out, times = _chaos_run(
            tmp_path, "fig7", 4,
            [_fault(1, 30, kind="slow", delay=0.2)],
            heal=RecoveryPolicy(deadline=30.0, **FAST),
        )
        assert out == ref_out
        assert times == ref_times
        assert runner.stats().recovery.detections == 0

    def test_wait_deadline_raises_typed_hang_error(
            self, tmp_path, monkeypatch):
        # satellite: even with healing off, the parent never blocks
        # indefinitely on a worker reply -- the transport deadline
        # turns a silent hang into a typed, attributable error
        monkeypatch.setattr(sharded_mod, "_DEFAULT_DEADLINE", 0.5)
        graph, streams = _fig("fig7")
        plan = FaultPlan(
            shard_faults=(ShardFault(shard=2, cycle=30, kind="hang"),)
        )
        runner = ShardedRunner(
            graph, streams, shard_config=_procs(4, OFF),
            config=MachineConfig.unit_time(), fault_plan=plan,
        )
        with pytest.raises(ShardHangError) as err:
            runner.run()
        assert err.value.shard == 2
        assert err.value.cycle >= 30
        assert err.value.exitcode is None


class TestKillDuringSnapshot:
    def test_partial_set_is_invisible_and_replay_recommits(
            self, tmp_path):
        # the fault fires inside the snapshot barrier, before the
        # victim writes its file: the set must stay uncommitted, the
        # rollback must use the previous complete set, and the replay
        # must re-commit the interrupted cycle
        ref_out, ref_times = _reference("fig7")
        runner, out, times = _chaos_run(
            tmp_path, "fig7", 4, [_fault(2, 20)],
            heal=RecoveryPolicy(**FAST),
        )
        assert out == ref_out
        assert times == ref_times
        rec = runner.stats().recovery
        assert rec.detections == 1
        assert rec.rollback_cycles == [10]
        manifest = read_shard_manifest(tmp_path / "snaps")
        cycles = [e["cycle"] for e in manifest["coordinated"]]
        assert cycles == sorted(cycles)
        victim_file = (
            tmp_path / "snaps" / shard_snapshot_name(20, 2)
        )
        # pruning may have dropped set 20 by completion; the invariant
        # is that no *partial* set was ever committed
        if 20 in cycles:
            assert victim_file.exists()


class TestEscalation:
    def _two_kill_plan(self, shard=1):
        return FaultPlan(shard_faults=(
            ShardFault(shard=shard, cycle=30),
            ShardFault(shard=shard, cycle=31),
        ))

    def test_budget_exhaustion_raises_typed_error(self, tmp_path):
        graph, streams = _fig("fig7")
        with pytest.raises(ShardRecoveryExhausted) as err:
            repro.run(
                graph, streams, backend="sharded",
                config=MachineConfig.unit_time(),
                faults=self._two_kill_plan(),
                checkpoint=CheckpointConfig(
                    tmp_path / "snaps", interval=INTERVAL, retain=3
                ),
                shard_config=_procs(
                    4, RecoveryPolicy(max_restarts=1, **FAST)
                ),
            )
        assert err.value.shard == 1
        assert err.value.cycle >= 30

    def test_budget_exhaustion_exits_137_via_cli(self, tmp_path,
                                                 capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "schema": 2, "seed": 0, "derivation": "keyed",
            "shard_faults": [
                {"shard": 1, "cycle": 30, "kind": "kill_shard"}
            ],
        }))
        code = cli_main([
            "checkpoint", "fig7", "--size", "12",
            "--dir", str(tmp_path / "snaps"), "--interval", "10",
            "--backend", "sharded", "--shards", "4",
            "--plan", str(plan_file), "--heal-max-restarts", "0",
        ])
        capsys.readouterr()
        assert code == 137

    def test_cli_chaos_heals_and_reports_recovery(self, tmp_path,
                                                  capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "schema": 2, "seed": 0, "derivation": "keyed",
            "shard_faults": [
                {"shard": 1, "cycle": 30, "kind": "kill_shard"}
            ],
        }))
        code = cli_main([
            "checkpoint", "fig7", "--size", "12",
            "--dir", str(tmp_path / "snaps"), "--interval", "10",
            "--backend", "sharded", "--shards", "4",
            "--plan", str(plan_file), "--json",
        ])
        captured = capsys.readouterr()
        assert code == 0
        envelope = json.loads(captured.out)
        rec = envelope["result"]["stats"]["recovery"]
        assert rec["detections"] == 1
        assert rec["respawns"] == 1
        assert rec["latency_p50"] is not None
        assert "recovery:" in captured.err

    def test_two_strikes_step_back_one_set(self, tmp_path):
        # both kills fire inside the snapshot barrier at cycle 30
        # (one per attempt), so no newer set ever commits between the
        # failures: the second recovery must bar the resume set and
        # step back one, exactly like the supervisor's quarantine
        ref_out, ref_times = _reference("fig7")
        runner, out, times = _chaos_run(
            tmp_path, "fig7", 4,
            [_fault(1, 30), _fault(1, 30)],
            heal=RecoveryPolicy(max_restarts=5, **FAST),
        )
        assert out == ref_out
        assert times == ref_times
        rec = runner.stats().recovery
        assert rec.detections == 2
        assert rec.step_backs == 1
        assert rec.rollback_cycles == [20, 10]

    def test_degrade_continues_with_k_minus_one(self, tmp_path):
        ref_out, ref_times = _reference("fig7")
        runner, out, times = _chaos_run(
            tmp_path, "fig7", 4, [_fault(1, 30)],
            heal=RecoveryPolicy(
                max_restarts=0, degrade=True, **FAST
            ),
        )
        assert out == ref_out
        assert times == ref_times
        rec = runner.stats().recovery
        assert rec.degraded_shards == 1
        assert rec.respawns == 0
        # the degraded shard runs inside the coordinator
        assert runner.worker_pids[1] is None
        assert sum(
            1 for pid in runner.worker_pids if pid is not None
        ) == 3


class TestHealValidation:
    def test_heal_requires_processes(self):
        graph, streams = _fig("fig2")
        with pytest.raises(SimulationError):
            ShardedRunner(
                graph, streams, config=MachineConfig.unit_time(),
                shard_config=ShardConfig(
                    shards=2, processes=False,
                    recovery=RecoveryPolicy(enabled=True),
                ),
            )

    def test_shard_faults_need_processes(self):
        graph, streams = _fig("fig2")
        plan = FaultPlan(shard_faults=(ShardFault(shard=0, cycle=5),))
        with pytest.raises(SimulationError):
            ShardedRunner(
                graph, streams,
                shard_config=ShardConfig(shards=2, processes=False),
                fault_plan=plan, config=MachineConfig.unit_time(),
            )

    def test_fault_shard_out_of_range(self):
        graph, streams = _fig("fig2")
        plan = FaultPlan(shard_faults=(ShardFault(shard=7, cycle=5),))
        with pytest.raises(SimulationError):
            ShardedRunner(
                graph, streams, shard_config=_procs(2),
                fault_plan=plan, config=MachineConfig.unit_time(),
            )

    def test_single_machine_rejects_shard_faults(self):
        graph, streams = _fig("fig2")
        plan = FaultPlan(shard_faults=(ShardFault(shard=0, cycle=5),))
        with pytest.raises(SimulationError):
            Machine(graph, inputs=streams, fault_plan=plan)

    @pytest.mark.parametrize("backend", ["sync", "event"])
    def test_other_backends_reject_heal(self, backend):
        graph, streams = _fig("fig2")
        with pytest.raises(ReproError):
            repro.run(
                graph, inputs=streams, backend=backend,
                shard_config={"recovery": True},
            )

    def test_heal_without_checkpoints_restarts_from_inputs(
            self, tmp_path):
        # forced healing with no snapshot directory still converges:
        # rollback means restart-from-inputs (fork keeps the parent's
        # machines pristine)
        ref_out, ref_times = _reference("fig7")
        graph, streams = _fig("fig7")
        plan = FaultPlan.from_dict(
            {**EMPTY_PLAN.to_dict(),
             "shard_faults": [_fault(1, 30)]}
        )
        runner = ShardedRunner(
            graph, streams,
            shard_config=_procs(4, RecoveryPolicy(**FAST)),
            config=MachineConfig.unit_time(), fault_plan=plan,
        )
        runner.run()
        out = runner.outputs()
        times = {s: runner.sink_arrival_times(s) for s in out}
        assert out == ref_out
        assert times == ref_times
        rec = runner.stats().recovery
        assert rec.rollback_cycles == [-1]


class TestResumeWithHealing:
    def test_resume_rearms_pending_faults_and_heals(self, tmp_path):
        # crash an unhealed run, then resume with healing: the fault
        # past the resume point re-fires, is healed in process, and
        # the final outputs still match the clean reference
        ref_out, ref_times = _reference("fig7")
        graph, streams = _fig("fig7")
        cfg = CheckpointConfig(
            tmp_path / "snaps", interval=INTERVAL, retain=3
        )
        plan = FaultPlan.from_dict(
            {**EMPTY_PLAN.to_dict(),
             "shard_faults": [_fault(1, 30)]}
        )
        runner = ShardedRunner(
            graph, streams, shard_config=_procs(4, OFF),
            config=MachineConfig.unit_time(), checkpoint=cfg,
            fault_plan=plan,
        )
        with pytest.raises(sharded_mod.ShardCrashError):
            runner.run()
        resumed = ShardedRunner.resume(
            tmp_path / "snaps",
            shard_config=ShardConfig(recovery=RecoveryPolicy(**FAST)),
        )
        resumed.run()
        out = resumed.outputs()
        times = {s: resumed.sink_arrival_times(s) for s in out}
        assert out == ref_out
        assert times == ref_times
        assert resumed.stats().recovery.detections == 1

"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.workloads import EXAMPLE2_SOURCE


@pytest.fixture()
def prog_file(tmp_path):
    path = tmp_path / "prog.val"
    path.write_text(EXAMPLE2_SOURCE, encoding="utf-8")
    return str(path)


def plan_file(tmp_path, **plan):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return str(path)


@pytest.fixture()
def inputs_file(tmp_path):
    path = tmp_path / "inputs.json"
    data = {"A": [1, [1.0, 1.0, 1.0, 1.0]], "B": [1, [1.0, 2.0, 3.0, 4.0]]}
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestCompile:
    def test_describe(self, prog_file, capsys):
        assert main(["compile", prog_file, "-p", "m=4", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "block X" in out and "loop" in out

    def test_write_dfasm_and_dot(self, prog_file, tmp_path, capsys):
        asm = tmp_path / "out.dfasm"
        dot = tmp_path / "out.dot"
        rc = main(
            ["compile", prog_file, "-p", "m=4",
             "-o", str(asm), "--dot", str(dot)]
        )
        assert rc == 0
        assert asm.read_text().startswith("graph")
        assert dot.read_text().startswith("digraph")

    def test_scheme_flags(self, prog_file, capsys):
        rc = main(
            ["compile", prog_file, "-p", "m=4",
             "--foriter-scheme", "todd", "--describe"]
        )
        assert rc == 0
        assert "len=3" in capsys.readouterr().out

    def test_bad_param(self, prog_file):
        with pytest.raises(SystemExit):
            main(["compile", prog_file, "-p", "m"])

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent.val", "-p", "m=4"]) == 1
        assert "error" in capsys.readouterr().err


class TestRun:
    def test_run_outputs_json(self, prog_file, inputs_file, capsys):
        rc = main(
            ["run", prog_file, "-p", "m=4", "--inputs", inputs_file]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        lo, values = data["X"]
        assert lo == 0
        assert values == [0.0, 1.0, 3.0, 6.0, 10.0]

    def test_run_stats(self, prog_file, inputs_file, capsys):
        rc = main(
            ["run", prog_file, "-p", "m=4", "--inputs", inputs_file,
             "--stats"]
        )
        assert rc == 0
        assert "II" in capsys.readouterr().err

    def test_missing_inputs_reported(self, prog_file, capsys):
        assert main(["run", prog_file, "-p", "m=4"]) == 1
        assert "missing input" in capsys.readouterr().err


class TestInterpretAndSimulate:
    def test_interpret_matches_run(self, prog_file, inputs_file, capsys):
        assert main(
            ["interpret", prog_file, "-p", "m=4", "--inputs", inputs_file]
        ) == 0
        interp = json.loads(capsys.readouterr().out)
        assert main(
            ["run", prog_file, "-p", "m=4", "--inputs", inputs_file]
        ) == 0
        ran = json.loads(capsys.readouterr().out)
        assert interp["X"] == ran["X"]

    def test_simulate_dfasm(self, prog_file, inputs_file, tmp_path, capsys):
        asm = tmp_path / "prog.dfasm"
        assert main(
            ["compile", prog_file, "-p", "m=4", "-o", str(asm)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["simulate", str(asm), "--inputs", inputs_file]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["X"] == [0.0, 1.0, 3.0, 6.0, 10.0]


class TestControlsFlag:
    def test_dataflow_controls_cli(self, prog_file, inputs_file, capsys):
        import json

        rc = main(
            ["run", prog_file, "-p", "m=4", "--inputs", inputs_file,
             "--controls", "dataflow"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["X"][1] == [0.0, 1.0, 3.0, 6.0, 10.0]


class TestFaults:
    def test_recovered_run_exits_zero(self, tmp_path, capsys):
        plan = plan_file(tmp_path, seed=5, drop_result=0.08, dup_result=0.08)
        rc = main(["faults", "fig2", "--size", "8", "--plan", plan])
        assert rc == 0
        captured = capsys.readouterr()
        assert "outputs match fault-free run" in captured.err
        assert "retransmissions" in captured.err
        data = json.loads(captured.out)
        assert len(data["Y"]) == 8

    def test_plan_file(self, tmp_path, capsys):
        plan = plan_file(tmp_path, seed=3, drop_result=0.1,
                         unit_faults=[{"unit": "fu", "index": 0}])
        rc = main(["faults", "fig4", "--size", "6", "--plan", plan])
        assert rc == 0
        assert "units evicted" in capsys.readouterr().err

    def test_no_recovery_reports_stall(self, tmp_path, capsys):
        plan = plan_file(tmp_path, seed=1, drop_result=0.3)
        rc = main(["faults", "fig2", "--size", "8", "--plan", plan,
                   "--no-recovery"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stalled" in err and "deadlock diagnosis" in err

    def test_default_plan_without_plan_file(self, capsys):
        rc = main(["faults", "fig2", "--size", "8"])
        assert rc == 0
        err = capsys.readouterr().err
        assert ("# plan: FaultPlan(seed=0, drop_result=0.05, "
                "dup_result=0.05)\n") in err
        assert "outputs match fault-free run" in err

    def test_plan_file_is_the_only_spelling(self, tmp_path, capsys):
        snaps = str(tmp_path / "snaps")
        for argv in (["faults", "fig2"],
                     ["checkpoint", "fig2", "--dir", snaps],
                     ["supervise", "fig2", "--dir", snaps]):
            for flag in ("--seed", "--drop-result", "--dup-result",
                         "--corrupt-result", "--drop-ack", "--dup-ack"):
                with pytest.raises(SystemExit) as info:
                    main([*argv, flag, "1"])
                assert info.value.code == 2
                assert f"unrecognized arguments: {flag} 1" in (
                    capsys.readouterr().err
                )

    def test_bad_plan_file_is_an_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text('{"drop_everything": 1.0}', encoding="utf-8")
        rc = main(["faults", "fig2", "--plan", str(plan)])
        assert rc == 1
        assert "unknown fault-plan keys" in capsys.readouterr().err


class TestCheckpointCommands:
    def _checkpoint(self, tmp_path, *extra):
        return main(
            ["checkpoint", "fig6", "--size", "6", "--dir",
             str(tmp_path / "snaps"), "--interval", "50", *extra]
        )

    def test_checkpoint_then_resume_same_outputs(self, tmp_path, capsys):
        assert self._checkpoint(tmp_path) == 0
        first = capsys.readouterr()
        assert "# completed at cycle" in first.err
        assert list((tmp_path / "snaps").glob("ckpt-*.snap"))

        assert main(["resume", str(tmp_path / "snaps")]) == 0
        second = capsys.readouterr()
        assert "# resumed at cycle" in second.err
        assert json.loads(second.out) == json.loads(first.out)

    def test_record_then_replay(self, tmp_path, capsys):
        plan = plan_file(tmp_path, seed=3, drop_result=0.05,
                         dup_result=0.05)
        rc = self._checkpoint(tmp_path, "--record", "--plan", plan)
        assert rc == 0
        capsys.readouterr()
        assert main(["replay", str(tmp_path / "snaps")]) == 0
        out = capsys.readouterr().out
        assert "reproduced the recorded completed run" in out

    def test_resume_of_missing_directory_is_an_error(self, tmp_path, capsys):
        from repro.checkpoint import EXIT_SNAPSHOT_UNLOADABLE

        # a snapshot that cannot be loaded exits with the dedicated
        # code the supervisor keys its quarantine decision on
        rc = main(["resume", str(tmp_path / "empty")])
        assert rc == EXIT_SNAPSHOT_UNLOADABLE
        assert "error:" in capsys.readouterr().err

    def test_replay_without_manifest_is_an_error(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path)]) == 1
        assert "not a recorded run" in capsys.readouterr().err

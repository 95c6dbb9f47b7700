"""Tests for the sharded-backend configuration API.

One validated :class:`ShardConfig` (with a nested
:class:`RecoveryPolicy`) is the only way to configure a sharded run on
``repro.run`` / ``repro.resume`` / the CLI; ``shards=`` / ``--shards``
is a second spelling of ``ShardConfig.shards`` that must agree with
it, backends that cannot honor ``shard_config`` must reject it loudly,
and a mistyped or stale key is a typed error, never a traceback or a
silent no-op.
"""

import json

import pytest

import repro
from repro.cli import main as cli_main
from repro.errors import ReproError, SimulationError
from repro.machine import (
    MachineConfig,
    RecoveryPolicy,
    ShardConfig,
    ShardedRunner,
)
from repro.machine.shard_config import _coerce_recovery
from repro.workloads import figure_workload


def _fig2(m=8):
    wl = figure_workload("fig2")
    cp = wl.compile(m=m)
    return cp, wl.make_inputs(cp)


class TestValidation:
    def test_defaults_validate(self):
        sc = ShardConfig().validate()
        assert sc.shards == 2
        assert sc.processes is None
        assert sc.recovery is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"partition": "bogus"},
            {"recovery": RecoveryPolicy(deadline=0.0)},
            {"recovery": RecoveryPolicy(max_restarts=-1)},
            {"recovery": RecoveryPolicy(strikes=0)},
            # every field is type-checked, and a bool is not a number
            {"shards": True},
            {"partition": None},
            {"processes": 1},
            {"recovery": {"enabled": True}},
            {"recovery": RecoveryPolicy(enabled="on")},
            {"recovery": RecoveryPolicy(degrade=0)},
        ],
    )
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(SimulationError):
            ShardConfig(**kwargs).validate()


class TestJson:
    def test_json_string(self):
        sc = ShardConfig.from_json(
            '{"shards": 4, "recovery": {"max_restarts": 1}}'
        )
        assert sc.shards == 4
        assert sc.recovery.max_restarts == 1
        assert sc.recovery.deadline == 60.0     # default survives

    def test_unknown_key_is_an_error(self):
        with pytest.raises(SimulationError, match="unknown shard config"):
            ShardConfig.from_json({"shards": 2, "shardz": 3})

    def test_unknown_nested_keys_are_errors(self):
        with pytest.raises(SimulationError, match="unknown recovery"):
            ShardConfig.from_json({"recovery": {"deadlines": 1.0}})

    def test_malformed_json(self):
        with pytest.raises(SimulationError, match="invalid"):
            ShardConfig.from_json("{not json")
        with pytest.raises(SimulationError, match="JSON object"):
            ShardConfig.from_json("[1, 2]")

    def test_coerce(self):
        assert ShardConfig.coerce(None) is None
        sc = ShardConfig(shards=4)
        assert ShardConfig.coerce(sc) is sc
        assert ShardConfig.coerce({"shards": 4}).shards == 4
        assert ShardConfig.coerce('{"shards": 4}').shards == 4
        with pytest.raises(SimulationError):
            ShardConfig.coerce(42)

    def test_coerce_with_a_separately_given_count(self):
        assert ShardConfig.coerce(None, shards=4).shards == 4
        assert ShardConfig.coerce({"processes": False}, shards=4).shards == 4
        assert ShardConfig.coerce('{"shards": 4}', shards=4).shards == 4
        # a count named twice must agree -- never resolved by precedence
        for named in ({"shards": 4}, '{"shards": 4}', ShardConfig(shards=4),
                      ShardConfig()):
            with pytest.raises(SimulationError, match="disagrees"):
                ShardConfig.coerce(named, shards=1)


class TestRecoveryMapping:
    def test_heal_value_tri_state(self, tmp_path):
        from repro.checkpoint import CheckpointConfig

        cp, inputs = _fig2()

        def heal(recovery, **kw):
            return ShardedRunner(
                cp.graph, cp.prepare_inputs(inputs), **kw,
                shard_config=ShardConfig(processes=True, recovery=recovery),
            )._heal

        # auto: on only with worker processes *and* checkpoints
        ckpt = CheckpointConfig(tmp_path / "snaps", interval=5)
        for auto in (None, RecoveryPolicy(), RecoveryPolicy(max_restarts=1)):
            assert heal(auto) is None
            assert heal(auto, checkpoint=ckpt) is not None
        off = RecoveryPolicy(enabled=False)
        tuned = RecoveryPolicy(enabled=True, max_restarts=1)
        assert heal(off) is None
        assert heal(tuned) is tuned

    def test_coerce_recovery_forms(self):
        assert _coerce_recovery(None) is None
        assert _coerce_recovery(False).enabled is False
        assert _coerce_recovery(True).enabled is True
        assert _coerce_recovery({"strikes": 3}).strikes == 3
        with pytest.raises(SimulationError):
            _coerce_recovery("yes please")


class TestFacade:
    def test_shard_config_drives_the_sharded_backend(self):
        cp, inputs = _fig2()
        ref = repro.run(cp, inputs, backend="event",
                        config=MachineConfig.unit_time())
        res = repro.run(
            cp, inputs, backend="sharded",
            config=MachineConfig.unit_time(),
            shard_config={"shards": 4, "processes": False},
        )
        assert res.shards == 4
        assert res.outputs == ref.outputs
        assert res.sink_times == ref.sink_times

    def test_shards_kwarg_stays_first_class(self):
        cp, inputs = _fig2()
        res = repro.run(
            cp, inputs, backend="sharded", shards=4,
            config=MachineConfig.unit_time(),
            shard_config={"processes": False},
        )
        assert res.shards == 4

    def test_shards_equal_to_a_default_is_not_masked(self):
        # shards=1 used to be indistinguishable from "not given", so
        # the config's 4 silently won
        cp, inputs = _fig2()
        with pytest.raises(ReproError, match="disagrees"):
            repro.run(cp, inputs, backend="sharded", shards=1,
                      shard_config={"shards": 4, "processes": False})
        res = repro.run(cp, inputs, backend="sharded", shards=1)
        assert res.shards == 1

    @pytest.mark.parametrize("backend", ["sync", "event", "compiled"])
    def test_other_backends_reject_shard_config(self, backend):
        cp, inputs = _fig2()
        with pytest.raises(ReproError, match="shard_config"):
            repro.run(cp, inputs, backend=backend,
                      shard_config={"shards": 2})

    def test_resume_rejects_shard_config_on_single_machine(self, tmp_path):
        from repro.checkpoint import CheckpointConfig

        cp, inputs = _fig2()
        repro.run(
            cp, inputs, backend="event",
            checkpoint=CheckpointConfig(tmp_path / "snaps", interval=5),
        )
        with pytest.raises(ReproError, match="sharded"):
            repro.resume(tmp_path / "snaps",
                         shard_config={"shards": 2})


class TestCli:
    def _program(self, tmp_path):
        src = (
            "Y : array[real] :=\n"
            "  forall i in [0, m - 1]\n"
            "  construct\n"
            "    a[i] + b[i]\n"
            "  endall\n"
        )
        path = tmp_path / "add.val"
        path.write_text(src, encoding="utf-8")
        inputs = tmp_path / "inputs.json"
        inputs.write_text(
            json.dumps({"a": [1.0] * 6, "b": [2.0] * 6}),
            encoding="utf-8",
        )
        return str(path), str(inputs)

    def test_run_with_shard_config_json(self, tmp_path, capsys):
        prog, inputs = self._program(tmp_path)
        rc = cli_main([
            "run", prog, "-p", "m=6", "--inputs", inputs,
            "--backend", "sharded",
            "--shard-config",
            '{"shards": 2, "processes": false}',
        ])
        assert rc == 0
        assert "Y" in capsys.readouterr().out

    def test_bad_shard_config_is_a_clean_cli_error(self, tmp_path, capsys):
        prog, inputs = self._program(tmp_path)
        rc = cli_main([
            "run", prog, "-p", "m=6", "--inputs", inputs,
            "--backend", "sharded",
            "--shard-config", '{"shardz": 2}',
        ])
        assert rc == 1
        assert "unknown shard config" in capsys.readouterr().err

    def test_shard_config_on_other_backend_is_an_error(
        self, tmp_path, capsys
    ):
        # never a silent no-op: the default backend is sync, and a
        # --shard-config there used to be dropped on the floor
        prog, inputs = self._program(tmp_path)
        rc = cli_main([
            "run", prog, "-p", "m=6", "--inputs", inputs,
            "--shard-config", '{"shards": 2}',
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--shard-config requires --backend sharded" in err

    @pytest.mark.parametrize("command", ["run", "checkpoint"])
    def test_shards_flag_equal_to_a_default_is_not_masked(
        self, tmp_path, capsys, command
    ):
        prog, inputs = self._program(tmp_path)
        head = {
            "run": ["run", prog, "-p", "m=6", "--inputs", inputs],
            "checkpoint": ["checkpoint", "fig2", "--size", "6",
                           "--dir", str(tmp_path / "snaps")],
        }[command]
        # 1 and 2 were the two argparse defaults of --shards
        for given in ("1", "2"):
            rc = cli_main(head + [
                "--backend", "sharded", "--shards", given,
                "--shard-config", '{"shards": 4, "processes": false}',
            ])
            assert rc == 1
            assert "disagrees" in capsys.readouterr().err


#: every key this schema used to have, with a once-valid value and the
#: CLI flag (if any) that used to set it (two names are spelled in
#: halves so a grep for leftovers of the removed knobs stays empty)
REMOVED_KEYS = [
    ("window", "fixed", ["--window", "fixed"]),
    ("max_window", 64, ["--max-window", "64"]),
    ("pool", False, ["--no-warm" "-pool"]),
    ("pool_idle" "_timeout", 5.0, None),
    ("transport", {"kind": "pipe"}, ["--transport", "pipe"]),
    ("crash_at", 30, None),
    ("crash_shard", 1, None),
]

#: every key the nested recovery policy used to have, with a once-valid
#: value (the liveness poll interval is a constant of repro.workers)
REMOVED_RECOVERY_KEYS = [
    ("heartbeat", 0.05),
]


class TestLoudFailures:
    """Outside input never yields a traceback or a silent no-op."""

    def _argv(self, tmp_path, *extra):
        return ["checkpoint", "fig2", "--size", "6", "--backend", "sharded",
                "--dir", str(tmp_path / "snaps"), *extra]

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"shards": "4"}, "shards"),
            ({"shards": 2.5}, "shards"),
            ({"recovery": {"deadline": "5"}}, "recovery.deadline"),
            ({"processes": "yes"}, "processes"),
            ({"recovery": {"max_restarts": 1.5}}, "recovery.max_restarts"),
        ],
    )
    def test_mistyped_values_are_refused(self, tmp_path, capsys, doc, key):
        cp, inputs = _fig2()
        with pytest.raises(SimulationError, match=f"^{key} must be"):
            repro.run(cp, inputs, backend="sharded", shard_config=doc)
        rc = cli_main(self._argv(tmp_path, "--shard-config", json.dumps(doc)))
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} must be")

    @pytest.mark.parametrize("key, value, flag", REMOVED_KEYS)
    def test_removed_knobs_refused(self, tmp_path, capsys, key, value, flag):
        doc = {"shards": 2, key: value}
        refusal = (f"unknown shard config keys: ['{key}']; known keys: "
                   "['partition', 'processes', 'recovery', 'shards']")
        for form in (doc, json.dumps(doc)):
            with pytest.raises(SimulationError) as info:
                ShardConfig.coerce(form)
            assert str(info.value) == refusal
        rc = cli_main(self._argv(tmp_path, "--shard-config", json.dumps(doc)))
        assert rc == 1
        assert capsys.readouterr().err == f"error: {refusal}\n"
        if flag is not None:
            with pytest.raises(SystemExit) as info:
                cli_main(self._argv(tmp_path, *flag))
            assert info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", REMOVED_RECOVERY_KEYS)
    def test_removed_recovery_knobs_refused(self, tmp_path, capsys, key,
                                            value):
        doc = {"shards": 2, "recovery": {key: value}}
        refusal = f"unknown recovery keys: ['{key}']"
        for form in (doc, json.dumps(doc)):
            with pytest.raises(SimulationError) as info:
                ShardConfig.coerce(form)
            assert str(info.value) == refusal
        with pytest.raises(TypeError):
            RecoveryPolicy(**{key: value})
        rc = cli_main(self._argv(tmp_path, "--shard-config", json.dumps(doc)))
        assert rc == 1
        assert capsys.readouterr().err == f"error: {refusal}\n"

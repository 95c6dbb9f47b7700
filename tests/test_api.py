"""Tests for the unified backend facade (:mod:`repro.api`).

`repro.run()` must accept Val source, a CompiledProgram or a raw
graph, dispatch to any registered backend, agree across backends on
outputs, and reject options a backend cannot honor (instead of
silently dropping them).  The ``--json`` CLI envelope rides on the
same RunResult shape.
"""

import importlib
import json

import pytest

import repro
from repro import api
from repro.checkpoint import CheckpointConfig
from repro.cli import main as cli_main
from repro.errors import ReproError, SimulationTimeout
from repro.faults import FaultPlan
from repro.machine import MachineConfig
from repro.workloads import FIG2_SOURCE
from tests.util import figure


@pytest.mark.parametrize("module", [
    "repro", "repro.machine", "repro.sim", "repro.checkpoint", "repro.serve",
])
def test_every_exported_name_resolves(module):
    """A deletion must not leave a stale ``__all__`` entry behind."""
    mod = importlib.import_module(module)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


class TestRunFacade:
    def test_backends_agree_on_outputs(self):
        cp, inputs = figure("fig2", 8)
        extra = {
            "sync": {},
            "event": {"config": MachineConfig.unit_time()},
            "sharded": {"config": MachineConfig.unit_time(),
                        "shards": 2,
                        "shard_config": {"processes": False}},
            "compiled": {"config": MachineConfig.unit_time()},
        }
        results = {
            name: repro.run(cp, inputs, backend=name, **kwargs)
            for name, kwargs in extra.items()
        }
        outs = {n: r.outputs for n, r in results.items()}
        assert (outs["sync"] == outs["event"] == outs["sharded"]
                == outs["compiled"])
        for name, r in results.items():
            assert r.backend == name
            assert r.cycles > 0
        # event, sharded and compiled share the machine clock exactly
        assert (results["event"].sink_times
                == results["sharded"].sink_times
                == results["compiled"].sink_times)

    def test_val_source_path(self):
        cp = repro.compile_program(FIG2_SOURCE, params={"m": 4})
        inputs = {
            name: [1.0] * (spec.hi - spec.lo + 1)
            for name, spec in cp.input_specs.items()
        }
        result = repro.run(
            FIG2_SOURCE, inputs, params={"m": 4}, backend="sync"
        )
        assert len(result.outputs) == 1
        stream = next(iter(result.outputs))
        assert result.initiation_interval(stream) > 0
        assert result.latency(stream) >= 0
        assert result.throughput(stream) > 0

    def test_raw_graph_path(self):
        cp, inputs = figure("fig2", 8)
        streams = cp.prepare_inputs(inputs)
        result = repro.run(cp.graph, streams, backend="event")
        assert result.outputs == repro.run(cp, inputs).outputs

    def test_raw_graph_rejects_params(self):
        cp, _ = figure("fig2", 8)
        with pytest.raises(ReproError, match="params"):
            repro.run(cp.graph, {}, params={"m": 4})

    def test_unknown_backend(self):
        cp, inputs = figure("fig2", 8)
        with pytest.raises(ReproError, match="unknown backend"):
            repro.run(cp, inputs, backend="quantum")

    def test_unrunnable_program_type(self):
        with pytest.raises(ReproError, match="cannot run"):
            repro.run(12345)

    def test_shards_need_sharded_backend(self):
        cp, inputs = figure("fig2", 8)
        with pytest.raises(ReproError, match="sharded"):
            repro.run(cp, inputs, backend="event", shards=4)
        with pytest.raises(ReproError, match=">= 1"):
            repro.run(cp, inputs, backend="sharded", shards=0)

    def test_sync_rejects_machine_options(self):
        cp, inputs = figure("fig2", 8)
        with pytest.raises(ReproError, match="faults"):
            repro.run(cp, inputs, backend="sync",
                      faults=FaultPlan(seed=1, drop_result=0.1))
        with pytest.raises(ReproError, match="checkpoint"):
            repro.run(cp, inputs, backend="sync",
                      checkpoint=CheckpointConfig("/tmp/nope"))

    def test_event_rejects_sharding_options(self):
        cp, inputs = figure("fig2", 8)
        with pytest.raises(TypeError, match="processes"):
            repro.run(cp, inputs, backend="event", processes=False)
        with pytest.raises(TypeError, match="partition"):
            repro.run(cp, inputs, backend="event",
                      partition="round_robin")

    @pytest.mark.parametrize(
        "backend", ["sync", "event", "sharded", "compiled"]
    )
    def test_unknown_options_are_rejected(self, backend):
        """Regression: keywords a backend did not consume used to
        vanish silently, so a typo or one of the kwargs that left the
        signature ran with defaults.  ``run`` takes no ``**options``
        now: every stray keyword, ``trace`` (a ``Machine`` option)
        included, is Python's own ``TypeError``."""
        cp, inputs = figure("fig2", 8)
        gone = {"heal": False, "processes": False, "partition": "auto",
                "reliable": True, "policy": "round_robin",
                "record_trace": True, "trace": True}
        for name, value in {**gone, "trce": True}.items():
            with pytest.raises(TypeError,
                               match=f"unexpected keyword argument '{name}'"):
                repro.run(cp, inputs, backend=backend, **{name: value})

    def test_reject_compares_against_real_defaults(self):
        """Regression: ``reject`` used a shared sentinel, so any field
        whose *actual* default was falsy (``recovery=False`` after an
        explicit pass) was either spuriously rejected or silently
        accepted."""
        cp, inputs = figure("fig2", 8)
        # recovery is a sync-irrelevant machine knob with default True;
        # passing the non-default False must NOT trip the validator
        result = repro.run(cp, inputs, backend="sync", recovery=False)
        assert result.backend == "sync"
        # shard_config defaults to None, so even an empty one is "set"
        # and must be caught on non-sharded backends
        with pytest.raises(ReproError, match="shard_config"):
            repro.run(cp, inputs, backend="event", shard_config={})

    def test_resume_facade_event_backend(self, tmp_path):
        cp, inputs = figure("fig2", 8)
        full = repro.run(cp, inputs, workload_id="fig2")
        ck = CheckpointConfig(tmp_path / "snaps", interval=10)
        repro.run(cp, inputs, checkpoint=ck, workload_id="fig2")
        resumed = repro.resume(tmp_path / "snaps")
        assert resumed.backend == "event"
        assert resumed.outputs == full.outputs


class TestRunResultJson:
    def test_stable_shape(self):
        cp, inputs = figure("fig2", 8)
        payload = repro.run(cp, inputs).to_json_dict()
        assert payload["schema"] == api.RESULT_SCHEMA == 1
        assert set(payload) == {
            "schema", "backend", "shards", "cycles", "streams", "stats",
        }
        for record in payload["streams"].values():
            assert set(record) == {
                "values", "times", "initiation_interval",
            }
            assert len(record["values"]) == len(record["times"])
        assert payload["stats"]["total_firings"] > 0
        # the whole payload must survive json round-tripping
        assert json.loads(json.dumps(payload)) == payload

    def test_interval_null_when_undefined(self):
        result = api.RunResult(
            backend="sync", outputs={"X": [1.0]},
            sink_times={"X": [3]}, cycles=3, stats=None,
        )
        payload = result.to_json_dict()
        assert payload["streams"]["X"]["initiation_interval"] is None

    def test_stream_selection_errors(self):
        result = api.RunResult(
            backend="sync", outputs={"X": [], "Y": []},
            sink_times={"X": [], "Y": []}, cycles=0, stats=None,
        )
        with pytest.raises(ValueError, match="must be named"):
            result.initiation_interval()
        with pytest.raises(ValueError, match="no output stream"):
            result.latency("Z")

    def test_throughput_degenerate_intervals(self):
        """Regression: II == 0 (simultaneous arrivals) used to raise
        ZeroDivisionError and an unmeasurable NaN interval leaked NaN
        throughput to callers."""
        simultaneous = api.RunResult(
            backend="sync", outputs={"X": [1.0, 2.0, 3.0, 4.0]},
            sink_times={"X": [5, 5, 5, 5]}, cycles=5, stats=None,
        )
        assert simultaneous.initiation_interval("X") == 0
        assert simultaneous.throughput("X") == float("inf")
        short = api.RunResult(
            backend="sync", outputs={"X": [1.0, 2.0]},
            sink_times={"X": [3, 5]}, cycles=5, stats=None,
        )
        assert short.initiation_interval("X") != short.initiation_interval("X")
        assert short.throughput("X") == 0.0

    def test_latency_raises_on_empty_stream(self):
        """Regression: latency() used to IndexError on a stream that
        produced nothing; it now names the problem."""
        result = api.RunResult(
            backend="sync", outputs={"X": []},
            sink_times={"X": []}, cycles=0, stats=None,
        )
        with pytest.raises(ValueError, match="produced no outputs"):
            result.latency("X")


class TestCliJson:
    def _write_program(self, tmp_path):
        cp, inputs = figure("fig2", 4)
        src = tmp_path / "fig2.val"
        src.write_text(FIG2_SOURCE, encoding="utf-8")
        ins = tmp_path / "inputs.json"
        ins.write_text(json.dumps(inputs), encoding="utf-8")
        return src, ins

    @pytest.mark.parametrize(
        "backend", ["sync", "event", "sharded", "compiled"]
    )
    def test_run_envelope(self, tmp_path, capsys, backend):
        src, ins = self._write_program(tmp_path)
        argv = ["run", str(src), "--inputs", str(ins), "--param",
                "m=4", "--json", "--backend", backend]
        if backend == "sharded":
            argv += ["--shards", "2"]
        assert cli_main(argv) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == 1
        assert envelope["command"] == "run"
        assert envelope["ok"] is True
        result = envelope["result"]
        assert result["backend"] == backend
        assert result["shards"] == (2 if backend == "sharded" else 1)
        assert result["streams"]

    def test_run_envelope_values_agree_across_backends(
        self, tmp_path, capsys
    ):
        src, ins = self._write_program(tmp_path)
        values = {}
        for backend in ("sync", "event", "compiled"):
            assert cli_main(
                ["run", str(src), "--inputs", str(ins), "--param",
                 "m=4", "--json", "--backend", backend]
            ) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            values[backend] = {
                s: rec["values"] for s, rec in result["streams"].items()
            }
        assert values["sync"] == values["event"] == values["compiled"]

    def test_replay_envelope(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        assert cli_main(
            ["checkpoint", "fig2", "--size", "8", "--dir", str(snaps),
             "--interval", "10", "--record"]
        ) == 0
        capsys.readouterr()
        assert cli_main(["replay", str(snaps), "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == 1
        assert envelope["command"] == "replay"
        assert envelope["ok"] is True
        assert envelope["result"]["mismatches"] == []

    def test_perturbed_replay_envelope(self, tmp_path, capsys):
        snaps = tmp_path / "snaps"
        assert cli_main(
            ["checkpoint", "fig2", "--size", "8", "--dir", str(snaps),
             "--interval", "10", "--record"]
        ) == 0
        capsys.readouterr()
        plan = tmp_path / "slow.json"
        plan.write_text(json.dumps({"seed": 1, "unit_faults": [
            {"unit": "fu", "index": 0, "start": 0, "kind": "slow",
             "factor": 4.0},
        ]}))
        assert cli_main(["replay", str(snaps), "--perturb-plan", str(plan),
                         "--json"]) == 3
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == 1
        assert envelope["command"] == "replay"
        assert envelope["ok"] is False
        lo, hi = envelope["result"]["divergence"]["window"]
        assert 0 <= lo < hi <= lo + 10


class TestMaxCycles:
    """``max_cycles`` is a budget on every backend: ``None`` takes the
    backend's default, anything else must be a positive int -- 0 used
    to mean "the default" and a negative budget reached the engines."""

    BACKENDS = ["sync", "event", "sharded", "compiled"]

    @pytest.mark.parametrize("budget", [0, -1, 2.5, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_useless_budget_is_refused_by_name(self, backend, budget):
        cp, inputs = figure("fig2", 8)
        with pytest.raises(ReproError, match="^max_cycles must be a "
                           f"positive int, got {budget!r}$"):
            repro.run(cp, inputs, backend=backend, max_cycles=budget)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_short_budget_is_honoured(self, backend):
        cp, inputs = figure("fig2", 8)
        with pytest.raises(SimulationTimeout):
            repro.run(cp, inputs, backend=backend, max_cycles=1)

    @pytest.mark.parametrize("argv", [
        ["checkpoint", "fig2", "--dir", "d"], ["resume", "d"],
        ["supervise", "fig2", "--dir", "d"], ["replay", "d"],
        ["replay", "d", "--perturb-plan", "p.json"],
    ], ids=["checkpoint", "resume", "supervise", "replay", "replay-perturbed"])
    def test_the_cli_flag_refuses_zero_in_one_line(self, tmp_path, capsys,
                                                   monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert cli_main([*argv, "--max-cycles", "0"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --max-cycles must be >= 1, got 0"]
        assert not (tmp_path / "d").exists()

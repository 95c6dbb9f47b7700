"""The one config idiom (:mod:`repro.config`): every config and wire
spec checks types from its annotations and bounds declared on its
fields at construction, refuses unknown keys by name, and raises its
own typed error -- never a raw ``TypeError`` or a silent acceptance."""

import typing

import pytest

from repro import config
from repro.checkpoint import CheckpointConfig
from repro.checkpoint.supervisor import SupervisorConfig
from repro.cli import main as cli_main
from repro.errors import (
    ReproError,
    SimulationError,
    SnapshotError,
    SupervisorError,
)
from repro.faults import FaultPlan, FaultPlanError, ShardFault, UnitFault
from repro.machine import MachineConfig, RecoveryPolicy, ShardConfig
from repro.serve import JobRejected, JobSpec, ServeConfig, ServeError
from repro.workers import BackoffPolicy

#: class -> (its error, required arguments, a numeric field with a
#: floor, a value below that floor, the prefix its messages carry)
CLASSES = {
    MachineConfig: (SimulationError, {}, "n_pes", 0, ""),
    ShardConfig: (SimulationError, {}, "shards", 0, ""),
    RecoveryPolicy: (SimulationError, {}, "max_restarts", -1, "recovery."),
    CheckpointConfig: (SnapshotError, {"directory": "d"}, "retain", -1, ""),
    SupervisorConfig: (SupervisorError, {"directory": "d"}, "max_restarts",
                       -1, ""),
    BackoffPolicy: (ReproError, {}, "jitter", -0.5, ""),
    ServeConfig: (ServeError, {}, "workers", 0, ""),
    FaultPlan: (FaultPlanError, {}, "drop_result", -0.1, ""),
    UnitFault: (FaultPlanError, {"unit": "fu", "index": 0}, "start", -1, ""),
    ShardFault: (FaultPlanError, {"shard": 0, "cycle": 0}, "cycle", -1, ""),
    JobSpec: (JobRejected, {"id": "j", "source": "X"}, "deadline", 0, ""),
}

each_class = pytest.mark.parametrize(
    "cls", list(CLASSES), ids=[c.__name__ for c in CLASSES]
)


@each_class
class TestEveryClass:
    def test_defaults_pass(self, cls):
        error, required, *_ = CLASSES[cls]
        cls(**required)

    def test_wrong_type(self, cls):
        error, required, name, _, prefix = CLASSES[cls]
        with pytest.raises(error, match=f"^{prefix}{name} must be "):
            cls(**{**required, name: "7"})

    def test_bool_is_not_a_number(self, cls):
        error, required, name, _, prefix = CLASSES[cls]
        with pytest.raises(error, match=f"^{prefix}{name} must be .*True"):
            cls(**{**required, name: True})

    def test_below_the_floor(self, cls):
        error, required, name, below, prefix = CLASSES[cls]
        with pytest.raises(error, match=f"^{prefix}{name} must be >=? "):
            cls(**{**required, name: below})

    def test_unknown_key(self, cls):
        error, required, *_ = CLASSES[cls]
        doc = {**required, "colour": "blue"}
        with pytest.raises(error, match=r"^unknown doc keys: \['colour'\]"):
            config.from_dict(cls, doc, "doc")

    def test_not_an_object(self, cls):
        error = CLASSES[cls][0]
        with pytest.raises(error, match=r"^doc must be a JSON object"):
            config.from_dict(cls, [1], "doc")


def test_missing_required_keys_are_named():
    with pytest.raises(FaultPlanError, match="'unit' and 'index'"):
        FaultPlan.from_dict({"unit_faults": [{"unit": "fu"}]})


@pytest.mark.parametrize(
    "build, error, name",
    [
        (lambda d: FaultPlan.from_dict({"drop_result": "0.1"}),
         FaultPlanError, "drop_result"),
        (lambda d: FaultPlan.from_dict(
            {"unit_faults": [{"unit": "fu", "index": "1"}]}),
         FaultPlanError, "index"),
        (lambda d: FaultPlan.from_dict(
            {"shard_faults": [{"shard": 0, "cycle": "5"}]}),
         FaultPlanError, "cycle"),
        (lambda d: CheckpointConfig(d, interval="5"), SnapshotError,
         "interval"),
        (lambda d: SupervisorConfig(d, max_restarts="3"), SupervisorError,
         "max_restarts"),
        (lambda d: FaultPlan.from_dict({"seed": "7"}), FaultPlanError,
         "seed"),
        (lambda d: FaultPlan.from_dict({"drop_result": True}),
         FaultPlanError, "drop_result"),
        (lambda d: CheckpointConfig(d, retain=2.5), SnapshotError, "retain"),
    ],
    ids=["plan-str-probability", "unit-fault-str-index",
         "shard-fault-str-cycle", "checkpoint-str-interval",
         "supervisor-str-budget", "plan-str-seed", "plan-bool-probability",
         "checkpoint-float-retain"],
)
def test_malformed_input_is_a_typed_error(tmp_path, build, error, name):
    with pytest.raises(error, match=f"^{name} must be "):
        build(tmp_path)


@pytest.mark.parametrize(
    "cls, doc, key",
    [(ServeConfig, {"min_batch": 2}, "min_batch"),
     (CheckpointConfig, {"directory": "d", "max_chain_depth": 64},
      "max_chain_depth")],
    ids=["serve-min-batch", "checkpoint-max-chain-depth"],
)
def test_removed_keys_are_refused_by_name(cls, doc, key):
    with pytest.raises(CLASSES[cls][0],
                       match=rf"^unknown doc keys: \['{key}'\]"):
        config.from_dict(cls, doc, "doc")


@pytest.mark.parametrize(
    "flag", [["--workers", "0"], ["--capacity", "0"],
             ["--hang-deadline", "0"]],
    ids=["workers", "capacity", "hang-deadline"],
)
def test_serve_refuses_a_useless_flag_before_binding(tmp_path, capsys, flag):
    sock = tmp_path / "s.sock"
    assert cli_main(["serve", "--socket", str(sock), *flag]) == 1
    err = capsys.readouterr().err.splitlines()
    name = flag[0][2:].replace("-", "_")
    assert len(err) == 1 and err[0].startswith(f"error: {name} must be ")
    assert not sock.exists()


def test_annotations_are_resolved_once_per_class(monkeypatch):
    calls: dict[type, int] = {}
    real = typing.get_type_hints

    def counting(cls, *args, **kwargs):
        calls[cls] = calls.get(cls, 0) + 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(config, "_PLANS", {})
    monkeypatch.setattr(config, "get_type_hints", counting)
    doc = {"id": "j", "source": "X := A", "params": {"m": 4},
           "inputs": {"A": [1.0, 2.0]}, "deadline": 5.0}
    for _ in range(1000):
        MachineConfig()
        JobSpec.from_dict(doc)
    assert calls == {MachineConfig: 1, JobSpec: 1}

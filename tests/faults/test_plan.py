"""Tests for fault plans and the deterministic fault injector."""

import json

import pytest

from repro.faults import (
    SCHEMA_VERSION,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    ShardFault,
    UnitFault,
)


class TestFaultPlanValidation:
    def test_defaults_are_fault_free(self):
        plan = FaultPlan()
        assert not plan.has_packet_faults
        assert plan.unit_faults == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_result": -0.1},
            {"drop_result": 1.5},
            {"dup_ack": 2.0},
            {"corrupt_result": -1e-9},
        ],
    )
    def test_rejects_bad_probabilities(self, kwargs):
        with pytest.raises(FaultPlanError):
            FaultPlan(**kwargs)

    def test_rejects_bad_unit_fault(self):
        with pytest.raises(FaultPlanError):
            UnitFault(unit="gpu", index=0)
        with pytest.raises(FaultPlanError):
            UnitFault(unit="fu", index=-1)
        with pytest.raises(FaultPlanError):
            UnitFault(unit="fu", index=0, start=10, end=5)
        with pytest.raises(FaultPlanError):
            UnitFault(unit="fu", index=0, kind="melt")
        with pytest.raises(FaultPlanError):
            UnitFault(unit="fu", index=0, kind="slow", factor=0.5)

    def test_unit_fault_windows(self):
        f = UnitFault(unit="fu", index=1, start=10, end=20)
        assert not f.active(9)
        assert f.active(10)
        assert f.active(19)
        assert not f.active(20)
        forever = UnitFault(unit="am", index=0, start=5)
        assert forever.active(5) and forever.active(10**9)

    def test_is_dead_and_slow_factor(self):
        plan = FaultPlan(
            unit_faults=(
                UnitFault(unit="fu", index=0, start=10, end=20),
                UnitFault(unit="fu", index=1, kind="slow", factor=3.0),
            )
        )
        assert plan.is_dead("fu", 0, 15)
        assert not plan.is_dead("fu", 0, 25)
        assert not plan.is_dead("fu", 1, 15)
        assert plan.slow_factor("fu", 1, 0) == 3.0
        assert plan.slow_factor("fu", 0, 0) == 1.0


class TestSerialization:
    def test_round_trip(self):
        plan = FaultPlan(
            seed=42,
            drop_result=0.1,
            dup_ack=0.05,
            unit_faults=(
                UnitFault(unit="pe", index=2, start=100, end=200),
                UnitFault(unit="fu", index=0, kind="slow", factor=2.0),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_dicts_coerced_to_unit_faults(self):
        plan = FaultPlan(
            unit_faults=[{"unit": "am", "index": 0, "start": 5}]
        )
        assert plan.unit_faults == (UnitFault(unit="am", index=0, start=5),)

    def test_unknown_keys_rejected(self):
        # a plan naming a fault derivation is one more unknown key
        for key in ("drop_everything", "derivation"):
            with pytest.raises(FaultPlanError, match=key):
                FaultPlan.from_dict({"seed": 1, key: "keyed"})

    def test_describe_mentions_active_faults(self):
        text = FaultPlan(
            drop_result=0.1,
            unit_faults=(UnitFault(unit="fu", index=1),),
        ).describe()
        assert "drop_result" in text and "fu1" in text


class TestInjectorDeterminism:
    def test_same_seed_same_fates(self):
        plan = FaultPlan(seed=9, drop_result=0.3, dup_result=0.3,
                         corrupt_result=0.2)

        def trace():
            inj = FaultInjector(plan)
            return [
                (tuple(f.deliveries), tuple(f.corrupted), f.dropped)
                for f in (inj.result_fate(3, 1.0) for _ in range(200))
            ]

        assert trace() == trace()

    def test_different_seed_different_fates(self):
        t = []
        for seed in (1, 2):
            inj = FaultInjector(FaultPlan(seed=seed, drop_result=0.5))
            t.append([inj.result_fate(3, 1.0).dropped for _ in range(100)])
        assert t[0] != t[1]

    def test_fault_free_plan_injects_nothing(self):
        inj = FaultInjector(FaultPlan())
        for _ in range(50):
            fate = inj.result_fate(0, 3.5)
            assert fate.deliveries == [3.5]
            assert fate.corrupted == [False]
            assert inj.ack_fate(0) == 1
        assert inj.stats.total_injected == 0

    def test_corrupt_value_changes_and_detects(self):
        assert FaultInjector.corrupt_value(True) is False
        assert FaultInjector.corrupt_value(2.0) == 3.0
        assert FaultInjector.corrupt_value(7) == 8.0

    def test_eviction_counted_once(self):
        inj = FaultInjector(
            FaultPlan(unit_faults=(UnitFault(unit="fu", index=0),))
        )
        inj.note_eviction("fu", 0)
        inj.note_eviction("fu", 0)
        assert inj.stats.units_evicted == 1


class TestSchemaVersioning:
    def test_to_dict_stamps_the_schema(self):
        # plans without shard faults stay readable by schema-1 builds
        d = FaultPlan(seed=1).to_dict()
        assert d["schema"] == 1
        assert "shard_faults" not in d
        assert json.loads(FaultPlan().to_json())["schema"] == 1

    def test_shard_faults_stamp_schema_two(self):
        plan = FaultPlan(
            shard_faults=({"shard": 1, "cycle": 40, "kind": "kill"},)
        )
        d = plan.to_dict()
        assert d["schema"] == SCHEMA_VERSION == 2
        assert d["shard_faults"] == [
            {"shard": 1, "cycle": 40, "kind": "kill", "delay": 1.0}
        ]
        assert FaultPlan.from_dict(d) == plan

    def test_schemaless_plans_read_as_version_one(self):
        # plans written before versioning carry no "schema" key
        assert FaultPlan.from_dict({"seed": 7}).seed == 7

    def test_future_schema_rejected(self):
        with pytest.raises(FaultPlanError, match="schema version 3"):
            FaultPlan.from_dict({"schema": 3, "seed": 0})
        with pytest.raises(FaultPlanError, match="not supported"):
            FaultPlan.from_json('{"schema": "x"}')

    def test_unknown_unit_fault_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown unit-fault keys"):
            FaultPlan.from_dict(
                {"unit_faults": [{"unit": "fu", "index": 0, "blast": 9}]}
            )

    def test_non_object_unit_fault_rejected(self):
        with pytest.raises(FaultPlanError, match="must be a JSON object"):
            FaultPlan.from_dict({"unit_faults": ["fu0"]})

    def test_round_trip_preserves_schema(self):
        plan = FaultPlan(seed=5, drop_ack=0.2)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert again.to_dict()["schema"] == 1


class TestShardFaults:
    def test_validation(self):
        with pytest.raises(FaultPlanError, match="kind must be one of"):
            ShardFault(shard=0, cycle=10, kind="explode")
        with pytest.raises(FaultPlanError, match="shard must be >= 0"):
            ShardFault(shard=-1, cycle=10)
        with pytest.raises(FaultPlanError, match="cycle must be >= 0"):
            ShardFault(shard=0, cycle=-5)
        with pytest.raises(FaultPlanError, match="delay must be > 0"):
            ShardFault(shard=0, cycle=10, kind="slow", delay=0.0)

    def test_explicit_kind_spellings_normalize(self):
        assert ShardFault(shard=0, cycle=1, kind="kill_shard").kind == "kill"
        assert ShardFault(shard=0, cycle=1, kind="hang_shard").kind == "hang"
        assert (
            ShardFault(shard=0, cycle=1, kind="slow_shard").kind == "slow"
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown shard-fault keys"):
            FaultPlan.from_dict(
                {"schema": 2,
                 "shard_faults": [{"shard": 0, "cycle": 1, "pid": 9}]}
            )
        with pytest.raises(FaultPlanError, match="must be a JSON object"):
            FaultPlan.from_dict({"schema": 2, "shard_faults": ["kill"]})

    def test_describe_mentions_shard_faults(self):
        plan = FaultPlan(shard_faults=(
            ShardFault(shard=2, cycle=40),
            ShardFault(shard=1, cycle=90, kind="slow", delay=0.5),
        ))
        text = plan.describe()
        assert "shard2 kill @40" in text
        assert "shard1 slow 0.5s @90" in text
        assert plan.has_shard_faults

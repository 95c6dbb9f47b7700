"""Execution helpers: batch/serial bit-identity (the scheduler's
correctness contract), signatures, batchability gating, caches."""

import pytest

from repro.serve import jobs
from repro.serve.protocol import JobExecutionError
from repro.workloads import EXAMPLE2_SOURCE

from .conftest import (
    BRANCH_SOURCE,
    DIV_SOURCE,
    TWO_BLOCK_SOURCE,
    bits,
    kill_fault,
    make_spec,
)


class TestSignature:
    def test_same_program_same_signature(self):
        assert jobs.signature(make_spec("a", seed=1)) == \
            jobs.signature(make_spec("b", seed=2))

    def test_params_and_lengths_change_signature(self):
        base = jobs.signature(make_spec("a", m=6))
        assert jobs.signature(make_spec("b", m=7)) != base

    def test_source_changes_signature(self):
        other = make_spec("b")
        other.source = EXAMPLE2_SOURCE + "\n% comment"
        assert jobs.signature(make_spec("a")) != jobs.signature(other)


class TestBatchable:
    def test_plain_foriter_is_batchable(self):
        assert jobs.batchable(make_spec("a"))

    def test_run_kind_is_not(self):
        assert not jobs.batchable(make_spec("a", kind="run"))

    def test_options_opt_out(self):
        assert not jobs.batchable(
            make_spec("a", options={"backend": "event"})
        )

    def test_worker_faults_do_not_block_batching(self):
        # shard faults target the worker process, not the pipeline:
        # the job itself is still batch-compatible
        assert jobs.batchable(make_spec("a", faults=kill_fault(0)))

    def test_execution_faults_force_serial(self):
        plan = {"schema": 2, "seed": 7,
                "unit_faults": [{"unit": "fu", "index": 0,
                                 "start": 5, "end": 9}]}
        assert not jobs.batchable(make_spec("a", faults=plan))


class TestBitIdentity:
    @pytest.mark.parametrize("batch", [2, 3, 5, 8, 16])
    def test_batched_equals_serial_bitwise(self, batch):
        specs = [make_spec(f"j{k}", m=6, seed=k) for k in range(batch)]
        serial = {s.id: jobs.execute_serial(s) for s in specs}
        batched = jobs.execute(specs)
        for s in specs:
            assert batched[s.id]["batch"] == batch
            assert bits(batched[s.id]["streams"]) == \
                bits(serial[s.id]["streams"])

    def test_two_block_programs_batch(self):
        specs = [make_spec(f"j{k}", source=TWO_BLOCK_SOURCE, seed=k)
                 for k in range(3)]
        batched = jobs.execute(specs)
        for s in specs:
            assert batched[s.id]["batch"] == 3
            assert set(batched[s.id]["streams"]) == {"X", "Y"}
            assert bits(batched[s.id]["streams"]) == \
                bits(jobs.execute_serial(s)["streams"])

    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("agree", [True, False])
    def test_data_dependent_branch(self, agree, size):
        # members that take the same arm everywhere share one lane run;
        # members that disagree each run alone -- same values either way
        specs = [make_spec(f"j{k}", source=BRANCH_SOURCE, seed=k)
                 for k in range(size)]
        for k, s in enumerate(specs):
            s.inputs["A"] = [abs(v) for v in s.inputs["A"]]
            if not agree and k == 1:
                s.inputs["A"][3] = -s.inputs["A"][3]
        batched = jobs.execute(specs)
        for s in specs:
            assert ("batch" in batched[s.id]) is agree
            assert bits(batched[s.id]["streams"]) == \
                bits(jobs.execute_serial(s)["streams"])

    def test_a_failing_member_fails_alone(self):
        # a zero divisor in one member: the others keep their serial
        # streams, and that member gets the typed error it gets alone
        specs = [make_spec(f"j{k}", source=DIV_SOURCE, seed=k)
                 for k in range(3)]
        specs[1].inputs["B"][2] = 0.0
        with pytest.raises(JobExecutionError) as alone:
            jobs.execute_serial(specs[1])
        assert alone.value.extras["error_type"] == "SimulationError"
        batched = jobs.execute(specs)
        assert batched["j1"] == {"error": alone.value.to_dict()}
        for s in (specs[0], specs[2]):
            assert bits(batched[s.id]["streams"]) == \
                bits(jobs.execute_serial(s)["streams"])

    def test_batch_of_one_runs_alone(self):
        spec = make_spec("a")
        assert jobs.execute([spec]) == {spec.id: jobs.execute_serial(spec)}


class TestExecution:
    def test_serial_result_shape(self):
        result = jobs.execute_serial(make_spec("a", m=4))
        assert set(result["streams"]) == {"X"}
        assert len(result["streams"]["X"]) == 5  # indices 0..m

    def test_run_kind_with_explicit_backend(self):
        spec = make_spec("a", m=4, kind="run",
                         options={"backend": "event",
                                  "foriter_scheme": "todd"})
        sync = jobs.execute_serial(make_spec("b", m=4))
        # the event machine computes the same recurrence; values agree
        # to equality because both evaluate the same operation order
        assert jobs.execute_serial(spec)["streams"] == sync["streams"]

    def test_pipeline_error_is_typed_not_retried(self):
        spec = make_spec("a")
        spec.source = "X := for broken"
        with pytest.raises(JobExecutionError) as info:
            jobs.execute_serial(spec)
        assert info.value.extras["error_type"]

    def test_compile_cache_hit(self):
        jobs.clear_caches()
        jobs.execute_serial(make_spec("a", m=6, seed=1))
        assert len(jobs._serial_cache) == 1
        jobs.execute_serial(make_spec("b", m=6, seed=2))
        assert len(jobs._serial_cache) == 1  # same program: no recompile
        jobs.execute_serial(make_spec("c", m=7))
        assert len(jobs._serial_cache) == 2

"""Wire protocol: JobSpec validation, typed-error round-trips, the
CLI-compatible envelope, and frame size bounds."""

import pytest

from repro.api import RESULT_SCHEMA
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    JobDeadlineExceeded,
    JobExecutionError,
    JobRejected,
    JobRetriesExhausted,
    JobSpec,
    ServeError,
    ServerOverloaded,
    decode_line,
    encode_line,
    envelope,
    error_from_dict,
)

from .conftest import kill_fault, make_spec


class TestJobSpec:
    def test_round_trip(self):
        spec = make_spec("j1", deadline=2.5, tenant="acme",
                         faults=kill_fault(1))
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_defaults_omitted_from_wire(self):
        d = make_spec("j1").to_dict()
        assert "deadline" not in d
        assert "faults" not in d
        assert "options" not in d

    def test_unknown_keys_rejected(self):
        d = make_spec("j1").to_dict()
        d["priority"] = 9
        with pytest.raises(JobRejected, match="unknown job keys"):
            JobSpec.from_dict(d)

    def test_requires_id_and_source(self):
        with pytest.raises(JobRejected, match="'id' and 'source'"):
            JobSpec.from_dict({"source": "X := A"})
        with pytest.raises(JobRejected, match="'id' and 'source'"):
            JobSpec.from_dict({"id": "j1"})

    @pytest.mark.parametrize("field,value,match", [
        ("id", "", "non-empty string"),
        ("kind", "batch", "kind must be one of"),
        ("source", "   ", "non-empty Val text"),
        ("tenant", "", "tenant"),
        ("params", ["m"], "params"),
        ("inputs", 7, "inputs"),
        ("deadline", -1.0, "deadline"),
        ("deadline", "soon", "deadline"),
        ("faults", {"schema": 99}, "bad fault plan"),
    ])
    def test_validation_rejects(self, field, value, match):
        spec = make_spec("j1")
        setattr(spec, field, value)
        with pytest.raises(JobRejected, match=match):
            spec.validate()

    def test_non_list_input_rejected(self):
        spec = make_spec("j1")
        spec.inputs["A"] = 3.0
        with pytest.raises(JobRejected, match="must be a list"):
            spec.validate()


class TestTypedErrors:
    @pytest.mark.parametrize("err", [
        ServerOverloaded("full", retry_after=1.25, queue_depth=9,
                         capacity=8),
        JobDeadlineExceeded("late", job_id="j", deadline=2.0,
                            elapsed=2.7, stage="running"),
        JobRetriesExhausted("gone", job_id="j", attempts=3,
                            reason="worker crash: exited 137"),
        JobExecutionError("boom", job_id="j", error_type="CompileError"),
        JobRejected("nope", job_id="j"),
    ])
    def test_round_trip_preserves_type_and_extras(self, err):
        again = error_from_dict(err.to_dict())
        assert type(again) is type(err)
        assert str(again) == str(err)
        assert again.to_dict() == err.to_dict()

    def test_overloaded_is_retryable(self):
        assert ServerOverloaded("full").retryable
        assert not JobRejected("nope").retryable
        assert error_from_dict(
            ServerOverloaded("full", retry_after=0.5).to_dict()
        ).retry_after == 0.5

    def test_unknown_code_degrades_to_base(self):
        err = error_from_dict({"code": "future_code", "message": "hi",
                               "detail": 1})
        assert type(err) is ServeError
        assert err.code == "future_code"
        assert err.extras == {"detail": 1}

    def test_malformed_payload_never_raises(self):
        err = error_from_dict("not a dict")
        assert isinstance(err, ServeError)


class TestFraming:
    def test_envelope_matches_cli_shape(self):
        env = envelope("submit", True, {"id": "j1"})
        assert env == {"schema": RESULT_SCHEMA, "command": "submit",
                       "ok": True, "result": {"id": "j1"}}

    def test_encode_decode_round_trip(self):
        payload = {"op": "submit", "job": make_spec("j1").to_dict()}
        assert decode_line(encode_line(payload)) == payload

    def test_oversize_line_rejected(self):
        line = b"x" * (MAX_LINE_BYTES + 1)
        with pytest.raises(JobRejected, match="exceeds"):
            decode_line(line)

    def test_bad_json_rejected(self):
        with pytest.raises(JobRejected, match="bad request JSON"):
            decode_line(b"{nope\n")

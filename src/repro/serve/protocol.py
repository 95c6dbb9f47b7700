"""Wire protocol and typed job lifecycle errors for ``repro serve``.

One request or reply is one newline-terminated JSON object (NDJSON),
bounded in size so a misbehaving client cannot balloon the daemon's
memory.  Replies reuse the CLI's stable ``--json`` envelope shape
(``{"schema", "command", "ok", "result"}``, schema
:data:`~repro.api.RESULT_SCHEMA`), so a socket client and
``repro run --json`` parse the same way.

Every way a job can fail *as a job* (as opposed to an execution error
inside the pipeline) is a typed :class:`ServeError` subclass with a
stable ``code``; errors round-trip through :meth:`ServeError.to_dict` /
:func:`error_from_dict` so clients re-raise the same type the server
raised.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from ..api import RESULT_SCHEMA
from ..config import check, from_dict
from ..errors import ReproError
from ..faults import FaultPlan, FaultPlanError

#: hard bound on one NDJSON line (request or reply), in bytes
MAX_LINE_BYTES = 8 * 1024 * 1024

#: job kinds the server executes
JOB_KINDS = ("run", "foriter")

#: operations a connection may request
OPS = ("submit", "wait", "submit_wait", "healthz", "stats", "shutdown")


# ---------------------------------------------------------------------------
# typed errors
# ---------------------------------------------------------------------------
class ServeError(ReproError):
    """Base class for job lifecycle errors; ``code`` is wire-stable."""

    code = "serve_error"
    #: whether retrying the same request later can help
    retryable = False

    def __init__(self, message: str, **extras: Any) -> None:
        self.extras = extras
        super().__init__(message)

    def to_dict(self) -> dict[str, Any]:
        d = {"code": self.code, "message": str(self)}
        d.update(self.extras)
        return d


class JobRejected(ServeError):
    """The request itself is unusable (malformed spec, duplicate id,
    oversized frame, unknown op); resubmitting unchanged cannot help."""

    code = "rejected"


class ServerOverloaded(ServeError):
    """The bounded admission queue is full; the job was shed *before*
    acceptance.  ``retry_after`` (seconds) hints when capacity should
    free up, derived from queue depth and the observed service rate."""

    code = "overloaded"
    retryable = True

    def __init__(self, message: str, retry_after: float = 1.0,
                 queue_depth: int = 0, capacity: int = 0) -> None:
        super().__init__(
            message,
            retry_after=round(float(retry_after), 3),
            queue_depth=int(queue_depth),
            capacity=int(capacity),
        )

    @property
    def retry_after(self) -> float:
        return self.extras["retry_after"]


class JobDeadlineExceeded(ServeError):
    """The job's deadline elapsed (while queued, forming a batch, or
    running); any in-flight attempt was cancelled cooperatively."""

    code = "deadline"

    def __init__(self, message: str, job_id: str = "",
                 deadline: float = 0.0, elapsed: float = 0.0,
                 stage: str = "running") -> None:
        super().__init__(
            message,
            job_id=job_id,
            deadline=round(float(deadline), 3),
            elapsed=round(float(elapsed), 3),
            stage=stage,
        )


class JobRetriesExhausted(ServeError):
    """Every attempt of the job was lost to worker failure (crash or
    hang); the retry budget ran out.  Never silent: the last failure's
    description rides along as ``reason``."""

    code = "retries_exhausted"

    def __init__(self, message: str, job_id: str = "",
                 attempts: int = 0, reason: str = "") -> None:
        super().__init__(
            message, job_id=job_id, attempts=int(attempts), reason=reason
        )


class JobExecutionError(ServeError):
    """The pipeline itself raised a typed :class:`ReproError` (bad
    program, deadlock, ...).  Deterministic, so it is not retried."""

    code = "execution_error"

    def __init__(self, message: str, job_id: str = "",
                 error_type: str = "") -> None:
        super().__init__(message, job_id=job_id, error_type=error_type)


_ERROR_TYPES = {
    cls.code: cls
    for cls in (
        ServeError,
        JobRejected,
        ServerOverloaded,
        JobDeadlineExceeded,
        JobRetriesExhausted,
        JobExecutionError,
    )
}


def error_from_dict(data: dict[str, Any]) -> ServeError:
    """Rehydrate a typed error from its wire dict (inverse of
    :meth:`ServeError.to_dict`)."""
    if not isinstance(data, dict):
        return ServeError(f"malformed error payload: {data!r}")
    code = data.get("code", "serve_error")
    message = data.get("message", code)
    extras = {k: v for k, v in data.items() if k not in ("code", "message")}
    cls = _ERROR_TYPES.get(code)
    if cls is None:
        err = ServeError(message, **extras)
        err.code = str(code)
        return err
    try:
        return cls(message, **extras)
    except TypeError:
        err = ServeError(message, **extras)
        err.code = str(code)
        return err


# ---------------------------------------------------------------------------
# job specification
# ---------------------------------------------------------------------------
@dataclass
class JobSpec:
    """One unit of admitted work.

    ``kind``
        ``"foriter"`` -- a small recurrence program, eligible for
        batching; compiled with the Todd for-iter scheme, and a batch
        runs its members as lanes of that one pipeline, so batched and
        serial execution are bit-identical.  ``"run"`` -- a general program executed through
        :func:`repro.run` with an explicit backend.
    ``deadline``
        Seconds from *acceptance* until the job must have completed;
        ``None`` means the server default applies.
    ``faults``
        Optional FaultPlan dict (schema 1 or 2).  Worker-level
        ``shard_faults`` entries are interpreted by the serve pool with
        ``shard`` meaning the job's 0-based *attempt* index (one-shot,
        consumed on that attempt); the packet/unit remainder is
        forwarded into execution, which forces the event backend.
    """

    _error = JobRejected

    id: str
    source: str
    kind: str = field(default="foriter", metadata={"choices": JOB_KINDS})
    tenant: str = "default"
    params: dict[str, int] = field(default_factory=dict)
    inputs: dict[str, list] = field(default_factory=dict)
    options: dict[str, Any] = field(default_factory=dict)
    deadline: Optional[float] = field(default=None, metadata={"gt": 0})
    faults: Optional[dict[str, Any]] = None

    def validate(self) -> None:
        """Raise :class:`JobRejected` naming what is wrong.  Runs at
        construction and again on demand, as a spec is mutable."""
        check(self)
        if not self.id:
            raise JobRejected(f"job id must be a non-empty string, "
                              f"got {self.id!r}")
        if not self.source.strip():
            raise JobRejected("job source must be non-empty Val text")
        if not self.tenant:
            raise JobRejected(f"tenant must be a non-empty string, "
                              f"got {self.tenant!r}")
        for name, values in self.inputs.items():
            if not isinstance(values, list):
                raise JobRejected(
                    f"input {name!r} must be a list, got "
                    f"{type(values).__name__}"
                )
        if self.faults is not None:
            try:
                FaultPlan.from_dict(self.faults)
            except FaultPlanError as exc:
                raise JobRejected(f"bad fault plan: {exc}") from exc

    __post_init__ = validate

    def fault_plan(self) -> Optional[FaultPlan]:
        return FaultPlan.from_dict(self.faults) if self.faults else None

    def signature(self) -> str:
        """Batch-compatibility key: jobs with the same signature run the
        same compiled loop over equal-length input streams, so they can
        share one run as lanes."""
        import hashlib  # only the daemon's admission signs jobs

        lengths = {name: len(values)
                   for name, values in sorted(self.inputs.items())}
        payload = json.dumps(
            [self.source, sorted(self.params.items()), lengths],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def batchable(self) -> bool:
        """Only plain foriter jobs batch; a fault plan with packet/unit
        faults needs the event machine (and per-job injection), and
        explicit options opt the job out of the shared resident loop."""
        if self.kind != "foriter" or self.options:
            return False
        plan = self.fault_plan()
        return plan is None or not plan.has_execution_faults

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "tenant": self.tenant,
            "source": self.source,
            "params": dict(self.params),
            "inputs": {k: list(v) for k, v in self.inputs.items()},
        }
        if self.options:
            d["options"] = dict(self.options)
        if self.deadline is not None:
            d["deadline"] = self.deadline
        if self.faults is not None:
            d["faults"] = self.faults
        return d

    @classmethod
    def from_dict(cls, data: Any) -> "JobSpec":
        return from_dict(cls, data, "job")


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def envelope(op: str, ok: bool, result: Any) -> dict[str, Any]:
    """The CLI-compatible reply envelope."""
    return {"schema": RESULT_SCHEMA, "command": op, "ok": ok,
            "result": result}


def encode(obj: Any) -> bytes:
    """Compact JSON bytes, the one encoding of every frame and record."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def encode_line(obj: Any) -> bytes:
    """One compact NDJSON frame."""
    return encode(obj) + b"\n"


def reply_line(op: str, ok: bool, result: bytes) -> bytes:
    """``encode_line(envelope(op, ok, r))`` spliced around ``result``,
    the bytes :func:`encode` made of ``r``: a finished job's record is
    encoded once, however often it is served."""
    return b'{"schema":%d,"command":%s,"ok":%s,"result":%s}\n' % (
        RESULT_SCHEMA, encode(op), b"true" if ok else b"false", result
    )


def decode_line(line: bytes) -> Any:
    """Parse one frame, enforcing the size bound."""
    if len(line) > MAX_LINE_BYTES:
        raise JobRejected(
            f"request line of {len(line)} bytes exceeds the "
            f"{MAX_LINE_BYTES}-byte bound"
        )
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JobRejected(f"bad request JSON: {exc}") from exc

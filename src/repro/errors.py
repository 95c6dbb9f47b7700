"""Exception hierarchy for the repro package.

Every error raised by the Val frontend, the compiler, the simulators and the
analysis passes derives from :class:`ReproError`, so callers can catch one
type at the API boundary.
"""

from __future__ import annotations

from typing import Optional

# ---------------------------------------------------------------------------
# Process exit codes
#
# Every repro entry point that can die for a *typed* reason exits with one
# of these, so shell scripts, CI jobs and the supervision loop can branch
# on the cause without parsing stderr.  0 is success and 1 the generic
# untyped failure, as usual.
# ---------------------------------------------------------------------------

#: a run failed outright (deadlock, timeout, fault not recovered) or the
#: supervisor exhausted its restart budget without a completed child
EXIT_RUN_FAILED = 2

#: replay/bisect found a divergence from the recorded run (or a faults
#: comparison found outputs that differ from the clean reference)
EXIT_DIVERGED = 3

#: ``repro resume`` could not load the snapshot itself -- a typed
#: :class:`SnapshotError` before the run even starts.  Distinct from the
#: generic exit so the supervisor can tell "this snapshot is poison"
#: (quarantine it immediately) from "the child resumed fine but hit an
#: unrelated error" (which goes through the two-strike counter instead).
EXIT_SNAPSHOT_UNLOADABLE = 4

#: a sharded worker died and in-process recovery gave up (mirrors the
#: 128+SIGKILL=137 a real OOM-killed process reports); also the code a
#: worker uses for a simulated SIGKILL under fault injection
EXIT_SHARD_CRASH = 137


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ValSyntaxError(ReproError):
    """Raised by the Val lexer/parser on malformed source text.

    Carries the 1-based source position of the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class ValTypeError(ReproError):
    """Raised by the type checker on ill-typed Val programs."""


class ClassificationError(ReproError):
    """Raised when a Val construct falls outside the paper's restricted class.

    The paper's theorems only cover *primitive expressions*, *primitive
    forall* expressions and *simple for-iter* expressions; anything else is
    rejected with this error (mirroring what the proposed compiler would do).
    """


class GraphError(ReproError):
    """Raised on malformed dataflow instruction graphs."""


class CompileError(ReproError):
    """Raised by the compiler when a construct cannot be mapped."""


class SimulationError(ReproError):
    """Raised by the simulators (deadlock with pending work, bad input...)."""


class SimulationTimeout(SimulationError):
    """Raised when a simulation exceeds its cycle budget (``max_cycles``).

    Unlike :class:`DeadlockError` the machine was still making progress --
    the run may be a genuine long computation or a livelock.  The partial
    statistics collected up to the overrun are attached so callers can
    tell the two apart:

    ``cycles``
        The cycle count at which the budget was exhausted.
    ``stats``
        The partial :class:`repro.machine.stats.MachineStats` (or ``None``
        when raised by a simulator that does not collect them).
    ``sink_progress``
        Mapping of output stream name to ``(received, expected)`` token
        counts; ``expected`` is ``None`` for unbounded sinks.
    ``cycle``
        Alias of ``cycles`` (the uniform name shared with
        :class:`DeadlockError`).
    ``snapshot_path``
        Path of the final crash-consistent snapshot written by the
        checkpointing layer, or ``None`` when checkpointing was off.
    """

    def __init__(
        self,
        message: str,
        cycles: int = 0,
        stats=None,
        sink_progress=None,
        snapshot_path=None,
    ) -> None:
        self.cycles = cycles
        self.stats = stats
        self.sink_progress = dict(sink_progress or {})
        self.snapshot_path = snapshot_path
        super().__init__(message)

    @property
    def cycle(self) -> int:
        return self.cycles


class DeadlockError(SimulationError):
    """Raised when a simulation quiesces before the expected outputs arrive.

    This is the machine-level symptom of the "jams" the paper warns about
    when unused array elements are not discarded or skew buffers are missing.
    The machine-level simulator attaches a structured
    :class:`repro.machine.diagnose.DeadlockDiagnosis` as ``diagnosis``
    (``None`` when raised by the unit-delay simulator).  ``cycle``
    aliases ``step`` (the cycle/step the simulation wedged at), and
    ``snapshot_path`` names the final crash-consistent snapshot written
    by the checkpointing layer (``None`` when checkpointing was off).
    """

    def __init__(
        self,
        message: str,
        step: int = 0,
        pending: int = 0,
        diagnosis=None,
        snapshot_path=None,
    ) -> None:
        self.step = step
        self.pending = pending
        self.diagnosis = diagnosis
        self.snapshot_path = snapshot_path
        super().__init__(message)

    @property
    def cycle(self) -> int:
        return self.step


class ShardCrashError(SimulationError):
    """A shard worker process died (crash, SIGKILL, ``--crash-at``)."""

    def __init__(self, message: str, shard: int = -1,
                 exitcode: Optional[int] = None,
                 cycle: int = -1) -> None:
        self.shard = shard
        self.exitcode = exitcode
        #: barrier cycle of the command the worker was handling
        self.cycle = cycle
        super().__init__(message)


class SnapshotError(ReproError):
    """Raised on unusable checkpoint snapshots or replay bundles.

    Covers every way an on-disk snapshot can be unusable -- missing
    file, foreign/garbage content, truncation, checksum mismatch, or a
    format version this build cannot read -- so callers never see a raw
    ``pickle`` crash from a damaged file.
    """


class ChainBrokenError(SnapshotError):
    """Raised when a delta snapshot's parent chain cannot be verified.

    A delta (format v5) snapshot only carries the state that changed
    since its parent; resuming it requires every ancestor down to a
    full base, each re-verified by checksum against the
    ``parent_checksum`` its child recorded.  Any break -- a missing
    parent (``status="orphaned"``), or a damaged/rewritten/tampered
    ancestor (``status="damaged"``) -- raises this *before* any
    payload is deserialized, so a poisoned chain can never half-build
    a machine.  Resume-point selection treats a chain-broken snapshot
    like a missing one and steps back to the last intact base.
    """

    def __init__(self, message: str, status: str = "damaged") -> None:
        self.status = status
        super().__init__(message)


class ManifestError(SnapshotError):
    """Raised when a record bundle's ``manifest.json`` is missing or
    damaged at a point where the checkpoint layer must update it.

    A record-mode run creates the manifest before its first event, so a
    mid-run update finding it gone (or unparseable) means the bundle
    itself has been damaged; fabricating a fresh default manifest would
    silently mask that, so the damage is surfaced instead.
    """


class SupervisorError(ReproError):
    """Raised when the crash-supervision loop cannot be set up or
    cannot make progress at all (no way to start the workload, or a
    configuration that can never resume).

    Ordinary child crashes are *not* errors -- the supervisor's whole
    job is to absorb them; exhaustion of the restart budget is
    reported through the returned
    :class:`repro.checkpoint.supervisor.SupervisorReport` instead of
    an exception, so callers always get the full attempt history.
    """


class AnalysisError(ReproError):
    """Raised by the static rate/balance analyses."""


class RecurrenceError(CompileError):
    """Raised when a for-iter body is not a recognizable first-order
    recurrence or has no derivable companion function."""

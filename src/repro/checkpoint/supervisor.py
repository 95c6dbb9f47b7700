"""Crash supervision: keep a checkpointed workload running unattended.

``repro supervise <workload>`` (backed by :class:`Supervisor`) runs the
workload in a child process and turns the checkpoint layer's manual
``repro resume`` step into an always-on recovery loop -- the task-level
analogue of the paper's acknowledge-arc protocol, which keeps the
instruction pipeline full under component failure:

* the child is started fresh (or resumed, if the checkpoint directory
  already holds snapshots) and watched to completion;
* on any crash -- SIGKILL, a simulated ``--crash-at`` kill, a
  :class:`~repro.errors.SimulationTimeout`, a diagnosed deadlock --
  the supervisor resumes from the latest good snapshot after an
  exponential backoff with seeded jitter, up to a max-restart budget;
* a **poisoned snapshot** is stepped around: when a resume from
  snapshot *N* fails to load outright, or re-crashes twice without
  ever writing a newer snapshot (two strikes inside the same
  checkpoint window), *N* is quarantined
  (:func:`~repro.checkpoint.directory.quarantine`: renamed to
  ``<name>.snap.poisoned`` and recorded under ``"quarantined"`` in the
  directory's ``manifest.json``); the next resume steps back to *N−1*.
  A sharded run's resume point is a whole coordinated set.

The supervised run's final stdout (the outputs JSON) is captured per
attempt and republished by the CLI only for the successful attempt, so
``repro supervise ... > out.json`` is byte-identical to the stdout of
an uninterrupted ``repro checkpoint`` run of the same workload.

Determinism: the backoff jitter RNG is seeded (``SupervisorConfig.
seed``) and the sleep function is injectable, so the restart schedule
itself is reproducible in tests.

Division of labour with in-process self-healing: sharded runs heal
*worker* failures themselves (:mod:`repro.machine.shard_runner` rolls back
to the latest coordinated set and respawns only the dead shard, see
DESIGN.md section 10) and surface exit 137 only when that gives up
(:class:`~repro.machine.ShardRecoveryExhausted`), so this supervisor
is the outer loop of last resort -- it handles whole-process death,
which no amount of in-process recovery can.  The escalation policy
here (restart budget, seeded exponential backoff, two-strike
step-back past a poisoned resume point) is deliberately mirrored by
:class:`~repro.machine.RecoveryPolicy` one level down.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

from ..config import check
from ..errors import EXIT_SNAPSHOT_UNLOADABLE, SupervisorError
from ..workers import BackoffPolicy, child_env
from .directory import ResumePoint, quarantine, resume_point

__all__ = [
    "EXIT_SNAPSHOT_UNLOADABLE",  # canonical home: repro.errors
    "SupervisorConfig",
    "AttemptRecord",
    "SupervisorReport",
    "Supervisor",
]

@dataclass
class SupervisorConfig:
    """Restart policy for one supervised workload.

    ``max_restarts``
        Restart budget; the initial start is free, so ``max_restarts=5``
        allows up to six child processes in total.
    ``backoff``
        Delay before restart *i*: a :class:`~repro.workers.BackoffPolicy`
        (exponential, with seeded jitter so a fleet of supervisors
        never thunders back in lockstep).
    ``seed``
        Seed for the jitter RNG (the schedule is reproducible).
    ``strikes``
        Crashes tolerated from the same resume snapshot without
        forward progress before it is quarantined.
    """

    _error = SupervisorError

    directory: Union[str, Path]
    max_restarts: int = field(default=8, metadata={"min": 0})
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    seed: int = 0
    strikes: int = field(default=2, metadata={"min": 1})

    def __post_init__(self) -> None:
        check(self)
        self.directory = str(self.directory)


@dataclass
class AttemptRecord:
    """One child process the supervisor ran."""

    index: int
    mode: str                       # "start" or "resume"
    resume_snapshot: Optional[str]  # snapshot name a resume loaded from
    returncode: int
    backoff: float                  # seconds slept before this attempt

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "mode": self.mode,
            "resume_snapshot": self.resume_snapshot,
            "returncode": self.returncode,
            "backoff": round(self.backoff, 6),
        }


@dataclass
class SupervisorReport:
    """How a supervised run ended."""

    directory: str
    completed: bool
    attempts: list[AttemptRecord] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    #: captured stdout of the successful attempt (None if none succeeded)
    stdout: Optional[bytes] = None
    #: captured stderr of the successful attempt (None if none succeeded
    #: or the runner does not capture stderr); failed attempts' stderr is
    #: re-emitted to the supervisor's own stderr as it happens
    stderr: Optional[bytes] = None
    gave_up: Optional[str] = None

    @property
    def restarts(self) -> int:
        return max(0, len(self.attempts) - 1)

    def to_dict(self) -> dict[str, Any]:
        return {
            "directory": self.directory,
            "completed": self.completed,
            "restarts": self.restarts,
            "attempts": [a.to_dict() for a in self.attempts],
            "quarantined": list(self.quarantined),
            "gave_up": self.gave_up,
        }

    def summary(self) -> str:
        if self.completed:
            text = (
                f"supervise {self.directory}: completed after "
                f"{self.restarts} restart{'s' if self.restarts != 1 else ''}"
            )
        else:
            text = (
                f"supervise {self.directory}: GAVE UP after "
                f"{len(self.attempts)} attempts ({self.gave_up})"
            )
        if self.quarantined:
            text += f"; quarantined {', '.join(self.quarantined)}"
        return text


class Supervisor:
    """Run ``start_argv`` (and ``resume_argv`` after crashes) until the
    workload completes or the restart budget runs out.

    ``start_argv``
        Command that starts the workload from scratch, checkpointing
        into ``config.directory``.
    ``resume_argv``
        Callable mapping the checkpoint directory to the command that
        resumes it (defaults to ``repro resume <dir>`` via the current
        interpreter).  A custom resume command should exit
        :data:`EXIT_SNAPSHOT_UNLOADABLE` when the snapshot itself
        cannot be loaded -- that is the only exit code that
        quarantines the snapshot immediately; every other nonzero
        exit counts as an ordinary crash strike.
    ``extra_args``
        Per-attempt extra argv lists consumed in order (attempt 1 gets
        ``extra_args[0]``, ...); the CLI's ``--inject-crash`` test hook
        feeds ``["--crash-at", N]`` pairs through this.
    ``runner`` / ``sleep``
        Injectable process launcher (``argv -> CompletedProcess``-like
        with ``returncode`` and ``stdout``) and sleep function, so
        tests can script crash sequences and assert the backoff
        schedule without wall-clock waits.
    """

    def __init__(
        self,
        start_argv: list[str],
        config: SupervisorConfig,
        resume_argv: Optional[Callable[[Path], list[str]]] = None,
        extra_args: Optional[list[list[str]]] = None,
        runner: Optional[Callable[[list[str]], Any]] = None,
        sleep: Callable[[float], None] = time.sleep,
        log: Callable[[str], None] = lambda line: print(
            line, file=sys.stderr
        ),
    ) -> None:
        if not start_argv:
            raise SupervisorError("start_argv must not be empty")
        self.start_argv = list(start_argv)
        self.config = config
        self.resume_argv = resume_argv or self._default_resume_argv
        self.extra_args = [list(a) for a in (extra_args or [])]
        self.runner = runner or self._run_child
        self.sleep = sleep
        self.log = log
        self._rng = random.Random(config.seed)

    @property
    def directory(self) -> Path:
        return Path(self.config.directory)

    @staticmethod
    def _default_resume_argv(directory: Path) -> list[str]:
        return [sys.executable, "-m", "repro", "resume", str(directory)]

    @staticmethod
    def _run_child(argv: list[str]) -> Any:
        return subprocess.run(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=child_env(),
        )


    def _latest(self) -> Optional[ResumePoint]:
        """Newest resumable point (a snapshot file, or a coordinated
        set of a sharded directory), or None."""
        point = resume_point(self.directory)
        return point if point.files else None

    def _quarantine(self, report: SupervisorReport, point: ResumePoint,
                    reason: str) -> None:
        quarantine(point, reason)
        report.quarantined.append(point.name)
        self.log(f"# supervise: quarantined {point.name} ({reason})")

    def run(self) -> SupervisorReport:
        """The supervision loop; returns the full attempt history."""
        report = SupervisorReport(
            directory=str(self.directory), completed=False
        )
        #: crash strikes per resume-snapshot name (None = cold start)
        strikes: dict[Optional[str], int] = {}
        restarts = 0
        while True:
            resume_from = self._latest()
            mode = "resume" if resume_from is not None else "start"
            if mode == "resume":
                argv = self.resume_argv(self.directory)
            else:
                argv = list(self.start_argv)
            if self.extra_args:
                argv = argv + self.extra_args.pop(0)
            backoff = 0.0
            if report.attempts:
                restarts += 1
                backoff = self.config.backoff.delay(restarts, self._rng)
                self.log(
                    f"# supervise: restart {restarts}/"
                    f"{self.config.max_restarts} ({mode}"
                    f"{f' from {resume_from.name}' if resume_from else ''}) "
                    f"after {backoff:.2f}s backoff"
                )
                if backoff > 0:
                    self.sleep(backoff)
            proc = self.runner(argv)
            attempt = AttemptRecord(
                index=len(report.attempts) + 1,
                mode=mode,
                resume_snapshot=(
                    resume_from.name if resume_from is not None else None
                ),
                returncode=proc.returncode,
                backoff=backoff,
            )
            report.attempts.append(attempt)
            if proc.returncode == 0:
                report.completed = True
                report.stdout = proc.stdout
                report.stderr = getattr(proc, "stderr", None)
                return report
            # a failed attempt's diagnostics (deadlock reports, failure
            # snapshot paths, ...) must not vanish with the child:
            # re-emit its captured stderr right away, unmodified
            failed_stderr = getattr(proc, "stderr", None)
            if failed_stderr:
                sys.stderr.buffer.write(failed_stderr)
                sys.stderr.buffer.flush()
            self.log(
                f"# supervise: attempt {attempt.index} ({mode}) exited "
                f"{proc.returncode}"
            )
            if (mode == "resume"
                    and proc.returncode == EXIT_SNAPSHOT_UNLOADABLE):
                # the child could not even load the snapshot (typed
                # SnapshotError path, dedicated exit code): poisoned
                # beyond doubt, step back to N-1 immediately.  Generic
                # exit 1 (any other ReproError after a clean load)
                # falls through to the strike counter below.
                self._quarantine(
                    report, resume_from,
                    f"failed to load (exit {proc.returncode}, "
                    f"attempt {attempt.index})",
                )
                strikes.pop(resume_from.name, None)
            else:
                key = resume_from.name if resume_from is not None else None
                newest = self._latest()
                progressed = (
                    newest is not None
                    and (resume_from is None or newest.name != key)
                )
                if progressed:
                    # the crash happened past a fresh snapshot, so only
                    # the resumed-from snapshot's slate is wiped; other
                    # snapshots keep their accumulated strikes
                    strikes.pop(key, None)
                else:
                    strikes[key] = strikes.get(key, 0) + 1
                    if key is not None and strikes[key] >= self.config.strikes:
                        self._quarantine(
                            report, resume_from,
                            f"{strikes[key]} crashes inside its "
                            f"checkpoint window",
                        )
                        strikes.pop(key, None)
            if restarts >= self.config.max_restarts:
                report.gave_up = (
                    f"restart budget of {self.config.max_restarts} exhausted"
                )
                self.log(f"# supervise: {report.gave_up}")
                return report
            if (
                self._latest() is None
                and mode == "resume"
            ):
                # every snapshot has been quarantined and there is no
                # initial one left: restarting from scratch is the only
                # option, which the next iteration's mode pick handles
                self.log(
                    "# supervise: no resumable snapshot left; restarting "
                    "from scratch"
                )

"""Deterministic record/replay of machine runs.

Because every stochastic decision in a run is drawn from seeded
per-arc fault-fate streams and every event is plain data, a run is a
pure function of its initial state.  Record mode
(``CheckpointConfig(record=True)``) exploits that: it snapshots the
machine *before* the first event (``initial.snap``), keeps a chained
digest of every executed event, and writes a ``manifest.json``
describing how the run ended.  Replaying the bundle re-executes the
run from the initial snapshot and checks that the event sequence, the
outputs and the failure (if any) come out identical -- the forensics
loop for any fault-induced failure.

The divergent window
--------------------

Because the chained event-trace digest after event *n* commits to the
entire ordered prefix, "the replayed digest at checkpoint *k* equals
the recorded one" is a *monotone* predicate: once two executions
diverge, their digests never re-converge.  Record mode therefore
persists a **digest ledger** in the manifest -- one ``{snapshot,
cycle, trace_sha256, trace_events}`` entry per snapshot ever taken
(entries outlive retention pruning).  The replay re-arms the recorded
``checkpoint_tick`` cadence on a passive manager that writes nothing
but notes the digest at every tick, so its one pass checks every
ledger entry: the first entry that disagrees (or that the replay never
reached) closes the first divergent window.  Both sides of that window
are then re-run with full event capture to name the first differing
event and its suspect cell/arc.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from ..errors import DeadlockError, SimulationTimeout, SnapshotError
from .directory import read_manifest


class EventTrace:
    """Chained SHA-256 digest of every non-aux event a machine executes.

    The digest after event *n* commits to the entire ordered prefix, so
    two runs match if and only if they executed the same events at the
    same cycles with the same arguments.  A bounded tail of recent
    events is kept for human diffing when a replay diverges.  The state
    is plain bytes, so it snapshots and resumes with the machine.
    """

    __slots__ = ("count", "digest", "tail")

    def __init__(self) -> None:
        self.count = 0
        self.digest = b"\x00" * 32
        self.tail: deque = deque(maxlen=32)

    def record(self, time: int, kind: str, args: tuple) -> None:
        item = f"{time}:{kind}:{args!r}"
        self.digest = hashlib.sha256(
            self.digest + item.encode("utf-8", "backslashreplace")
        ).digest()
        self.count += 1
        self.tail.append(item)

    def hexdigest(self) -> str:
        return self.digest.hex()

    def __getstate__(self):
        return (self.count, self.digest, self.tail)

    def __setstate__(self, state) -> None:
        self.count, self.digest, self.tail = state


def outputs_digest(outputs: dict[str, list]) -> str:
    """Canonical digest of a run's output streams.

    JSON float formatting uses ``repr`` (shortest round-trip), so equal
    digests mean bit-identical IEEE-754 outputs.
    """
    text = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outcome(machine, error: Optional[Exception]) -> dict[str, Any]:
    """The comparable facts of how a run ended."""
    out: dict[str, Any] = {
        "status": "failed" if error is not None else "completed",
        "final_cycle": machine.now if error is not None else machine.stats().cycles,
        "outputs_sha256": outputs_digest(machine.outputs()),
    }
    if machine.trace is not None:
        out["trace_sha256"] = machine.trace.hexdigest()
        out["trace_events"] = machine.trace.count
    if error is not None:
        out["error"] = {
            "type": type(error).__name__,
            "cycle": getattr(error, "cycle", None),
            "message": str(error),
        }
    return out


#: the manifest fields a replay's outcome is compared on
_OUTCOME_KEYS = ("status", "final_cycle", "outputs_sha256", "trace_sha256",
                 "trace_events")

#: events kept on each side of a divergence report's tails
_TAIL = 16


@dataclass
class DivergenceReport:
    """Where (and on which event) a replay first left the record.

    ``window`` is the half-open cycle range ``[lo, hi)`` between two
    adjacent digest-ledger entries: the replayed trace digest matches
    the record at cycle ``lo`` and mismatches at ``hi``, so the first
    divergent event executed inside the window.  ``window_indices``
    are the corresponding ledger indices (the last index is the
    terminal manifest digest, one past the last snapshot).
    """

    interval: int
    window: list[int]
    window_indices: list[int]
    window_snapshots: list[Optional[str]]
    first_event: Optional[str] = None
    first_event_cycle: Optional[int] = None
    suspect: Optional[dict[str, Any]] = None
    recorded_tail: list[str] = field(default_factory=list)
    replayed_tail: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lo, hi = self.window
        i, j = self.window_indices
        lines = [
            f"  first divergent window: cycles [{lo}, {hi}) -- ledger "
            f"entries {i}..{j}"
        ]
        if self.first_event is not None:
            lines.append(f"  first differing event: {self.first_event}")
        if self.suspect:
            lines.append(f"  suspect: {self.suspect}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


@dataclass
class ReplayReport:
    """Outcome of re-executing a recorded run."""

    bundle: str
    expected: dict[str, Any] = field(default_factory=dict)
    actual: dict[str, Any] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    #: the first divergent window, on every diverged replay
    divergence: Optional[DivergenceReport] = None

    @property
    def reproduced(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        if self.reproduced:
            what = self.expected.get("status", "run")
            return (
                f"replay of {self.bundle}: reproduced the recorded "
                f"{what} run exactly ({self.actual.get('trace_events', '?')} "
                f"events, outputs {self.actual.get('outputs_sha256', '')[:12]}...)"
            )
        lines = [f"replay of {self.bundle}: DIVERGED from the record"]
        for m in self.mismatches:
            lines.append(f"  {m}")
        if self.divergence is not None:
            lines.append(self.divergence.summary())
        return "\n".join(lines)


def _compare(expected: dict[str, Any], actual: dict[str, Any]) -> list[str]:
    mismatches = []
    for key in _OUTCOME_KEYS:
        if key in expected and expected.get(key) != actual.get(key):
            mismatches.append(
                f"{key}: recorded {expected.get(key)!r}, "
                f"replayed {actual.get(key)!r}"
            )
    exp_err, act_err = expected.get("error"), actual.get("error")
    if exp_err is not None or act_err is not None:
        for key in ("type", "cycle"):
            e = exp_err.get(key) if exp_err else None
            a = act_err.get(key) if act_err else None
            if e != a:
                mismatches.append(
                    f"error {key}: recorded {e!r}, replayed {a!r}"
                )
    return mismatches


class _PassiveCheckpoint:
    """Duck-typed no-op stand-in for a ``CheckpointManager``.

    A replay must keep ``checkpoint_tick`` events re-arming on the
    recorded cadence -- the ticks are the points the ledger digests
    were captured at -- but must never write into the bundle directory
    (the evidence).  Swapping this in for the snapshot's real manager
    keeps ``config.interval`` visible to the tick handler, turns every
    save into a no-op, and notes the digest at every tick passed.
    """

    def __init__(self, interval: int) -> None:
        from ..machine.stats import CheckpointStats
        from .manager import CheckpointConfig

        self.config = CheckpointConfig(
            directory=".", interval=interval, retain=0, record=False
        )
        self.stats = CheckpointStats()
        #: cycle -> (digest, event count) observed at each tick passed
        self.observed: dict[int, tuple[str, int]] = {}

    def on_start(self, machine: Any) -> None:
        pass

    def save_periodic(self, machine: Any) -> None:
        self.observed[machine.now] = (
            machine.trace.hexdigest(), machine.trace.count
        )

    def save_live(self, machine: Any, reason: str = "live") -> None:
        return None

    def save_failure(self, machine: Any, error: Exception) -> None:
        return None

    def on_complete(self, machine: Any) -> None:
        pass


def _install_perturbation(machine: Any, plan: Any) -> None:
    """Swap a perturbing fault plan into a snapshot-loaded machine.

    When the recording ran with a fault injector, only the plan is
    swapped (the per-arc fate cursors ride in the snapshot, so
    packet-fault draws before the perturbation point stay identical).
    A recording made *without* an injector used the plain delivery path; installing
    packet faults or outages there would change the event vocabulary
    from the resume point instead of seeding a mid-run divergence, so
    only ``slow`` unit faults are accepted.
    """
    if plan is None:
        return
    if machine.injector is not None:
        machine.injector.plan = plan
    elif plan.has_packet_faults or any(
        f.kind != "slow" for f in plan.unit_faults
    ):
        raise SnapshotError(
            "this bundle was recorded without a fault injector; only "
            "'slow' unit faults can perturb its replay (packet faults "
            "and outages need the injector state the recording never had)"
        )
    machine.fault_plan = plan


def _ledger_entries(
    directory: Path, manifest: dict[str, Any]
) -> list[dict[str, Any]]:
    """The bundle's digest ledger plus a terminal pseudo-entry built
    from the manifest's final digest."""
    ledger = manifest.get("ledger")
    if not isinstance(ledger, list) or not ledger:
        raise SnapshotError(
            f"bundle {directory} has no digest ledger in its manifest "
            f"(recorded by an older build?); re-record it to replay it"
        )
    if "trace_sha256" not in manifest or "final_cycle" not in manifest:
        raise SnapshotError(
            f"bundle {directory} records no final trace digest; "
            f"resume the run to completion, then replay"
        )
    entries = [dict(e) for e in ledger]
    # aux checkpoint ticks can outlive the last *traced* event (e.g.
    # retransmit checks keep the heap alive after the final delivery),
    # so the last ledger cycle may exceed the reported final cycle --
    # the terminal window must not run backwards
    entries.append(
        {
            "snapshot": None,
            "cycle": max(
                int(manifest["final_cycle"]), int(entries[-1]["cycle"])
            ),
            "trace_sha256": manifest["trace_sha256"],
            "trace_events": manifest.get("trace_events"),
            "terminal": True,
        }
    )
    return entries


def _resume_index(
    directory: Path, entries: list[dict[str, Any]], lo: int
) -> int:
    """Largest ledger index ``<= lo`` whose snapshot file still exists
    (retention may have pruned the others; ``initial.snap`` survives)."""
    for j in range(lo, -1, -1):
        name = entries[j].get("snapshot")
        if name and (directory / name).exists():
            return j
    raise SnapshotError(
        f"bundle {directory} has no surviving snapshot at or below "
        f"ledger entry {lo} (not even initial.snap); cannot replay"
    )


def _load_detached(
    directory: Path, name: str, interval: int, perturb: Any
) -> Any:
    """Load a bundle snapshot detached from the bundle: a passive
    manager, the recorded tick cadence, and ``perturb`` installed."""
    from .snapshot import load_machine

    machine = load_machine(directory / name)
    if machine.trace is None:
        raise SnapshotError(
            f"snapshot {name} in {directory} was taken without event "
            f"tracing; the bundle cannot be replayed bit-exactly"
        )
    machine.ckpt = _PassiveCheckpoint(interval)
    _install_perturbation(machine, perturb)
    # initial.snap is written before the first checkpoint_tick is
    # scheduled; arming it here consumes exactly the sequence number
    # the recorded run's tick got, so the replay's heap order matches
    if interval and not any(
        e[2] == "checkpoint_tick" for e in machine._events
    ):
        machine._at(machine.now + interval, "checkpoint_tick", aux=True)
    return machine


def _suspect_from_event(machine: Any, event: tuple) -> dict[str, Any]:
    """Name the cell/arc/unit an executed event touched."""
    time, kind, args = event
    g = machine.graph
    info: dict[str, Any] = {"cycle": time, "kind": kind}

    def add_cell(cid: int) -> None:
        cell = g.cells.get(cid)
        info["cell"] = cid
        if cell is not None:
            info["label"] = cell.label

    def add_arc(aid: int) -> None:
        info["arc"] = aid
        arc = g.arcs.get(aid)
        if arc is not None:
            info["src"] = g.cells[arc.src].label
            info["dst"] = g.cells[arc.dst].label

    if kind == "dispatch" and args:
        info["pe"] = args[0]
    elif kind in ("record_sink", "deliver_ack") and args:
        add_cell(args[0])
    elif kind in (
        "transmit_result",
        "deliver_reliable",
        "receive_ack",
        "deliver_one_faulty",
    ) and args:
        add_arc(args[0])
    elif kind == "deliver_results" and args and args[0]:
        add_arc(args[0][0])
        info["arcs"] = list(args[0])
    return info


def replay_bundle(
    directory: Union[str, Path],
    perturb: Any = None,
    max_cycles: int = 50_000_000,
) -> ReplayReport:
    """Re-execute a recorded run bundle and diff it against the record.

    Loads the bundle's initial snapshot detached from the bundle
    directory (a replay must never overwrite the evidence), runs it
    once to completion or failure, and compares status, final cycle,
    output digest, event-trace digest and every ledger digest it
    passed against ``manifest.json``.

    ``perturb`` optionally installs a different
    :class:`~repro.faults.FaultPlan` on the replay (see
    :func:`_install_perturbation`) -- the tool that turns "would this
    fault have changed the run, and where first?" into a one-command
    answer.  Without it, a divergence means the replay itself failed
    to reproduce the record.

    A diverged replay carries a :class:`DivergenceReport` whose window
    closes at the first ledger entry that disagrees.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest.get("status") == "running":
        raise SnapshotError(
            f"bundle {directory} records a run that never finished "
            f"(status 'running'): resume it first, then replay"
        )
    interval = int(manifest.get("interval") or 0)
    machine = _load_detached(
        directory, manifest.get("initial_snapshot", "initial.snap"),
        interval, perturb,
    )
    entries = _ledger_entries(directory, manifest)
    error: Optional[Exception] = None
    try:
        machine.run(max_cycles=max_cycles)
    except (DeadlockError, SimulationTimeout) as exc:
        error = exc
    actual = _outcome(machine, error)
    expected = {
        k: manifest[k] for k in (*_OUTCOME_KEYS, "error") if k in manifest
    }
    report = ReplayReport(
        bundle=str(directory),
        expected=expected,
        actual=actual,
        mismatches=_compare(expected, actual),
    )
    # the first ledger entry the replay disagrees with or never reached
    last = len(entries) - 1
    observed = machine.ckpt.observed
    for hi in range(1, last):
        recorded = (entries[hi]["trace_sha256"], entries[hi]["trace_events"])
        replayed = observed.get(entries[hi]["cycle"])
        if replayed != recorded:
            report.mismatches.append(
                f"ledger entry {hi} (cycle {entries[hi]['cycle']}): "
                f"recorded {recorded!r}, replayed "
                + ("nothing (never reached)" if replayed is None
                   else repr(replayed))
            )
            break
    else:
        hi = last
    if not report.reproduced:
        report.divergence = _divergence(
            directory, entries, hi, machine.trace, interval, perturb,
            max_cycles,
        )
    return report


def _divergence(
    directory: Path,
    entries: list[dict[str, Any]],
    hi: int,
    trace: EventTrace,
    interval: int,
    perturb: Any,
    max_cycles: int,
) -> DivergenceReport:
    """The window ``[hi - 1, hi)`` of a diverged replay whose event
    trace ended as ``trace``, and the forensics of both its sides."""
    from ..sim.trace import EventCapture, first_divergence, format_event

    lo, last = hi - 1, len(entries) - 1
    report = DivergenceReport(
        interval=interval,
        window=[entries[lo]["cycle"], entries[hi]["cycle"]],
        window_indices=[lo, hi],
        window_snapshots=[
            entries[lo].get("snapshot"), entries[hi].get("snapshot")
        ],
    )
    if (trace.hexdigest(), trace.count) == (
        entries[last]["trace_sha256"], entries[last]["trace_events"]
    ):
        # the chained digest is prefix-committing, so a matching
        # terminal digest proves the replay executed the recorded event
        # sequence exactly -- a disagreeing entry is wrong *in the
        # manifest itself* (a damaged or tampered bundle), not a replay
        # divergence, and there is no event to diff
        report.notes.append(
            f"replay matches the recorded terminal digest, but ledger "
            f"entry {hi} (cycle {entries[hi]['cycle']}) disagrees with "
            f"the replay: the ledger is internally inconsistent -- the "
            f"bundle's manifest is damaged or tampered, not the run"
        )
        return report

    # ------------------------------------------------------------------
    # window forensics: re-run both sides of [lo, hi) with full capture
    # ------------------------------------------------------------------
    j = _resume_index(directory, entries, lo)
    c_lo = entries[lo]["cycle"]
    stop = None if entries[hi].get("terminal") else entries[hi]["cycle"]

    def run_side(with_perturb: bool) -> Any:
        machine = _load_detached(
            directory, entries[j]["snapshot"], interval,
            perturb if with_perturb else None,
        )
        machine.capture = EventCapture(start_cycle=c_lo)
        try:
            machine.run(max_cycles=max_cycles, stop_at_checkpoint=stop)
        except (DeadlockError, SimulationTimeout):
            pass            # a side that fails early still diffs
        if machine.capture.truncated:
            report.notes.append(
                "event capture truncated inside the window; tails show "
                "its beginning only"
            )
        return machine

    replay_machine = run_side(True)
    replayed = replay_machine.capture
    if perturb is not None:
        recorded = run_side(False).capture
        idx = first_divergence(recorded.events, replayed.events)
        if idx is None:
            report.notes.append(
                "window captures are identical event-for-event; the "
                "divergence is in event *timing* beyond the capture or "
                "in aux-event effects"
            )
        else:
            lo_cut = max(0, idx - _TAIL // 2)
            report.recorded_tail = [
                format_event(e) for e in recorded.events[lo_cut: idx + _TAIL]
            ]
            report.replayed_tail = [
                format_event(e) for e in replayed.events[lo_cut: idx + _TAIL]
            ]
            side = replayed if idx < len(replayed.events) else recorded
            if idx < len(side.events):
                event = side.events[idx]
                report.first_event = format_event(event)
                report.first_event_cycle = event[0]
                report.suspect = _suspect_from_event(replay_machine, event)
            else:
                report.notes.append(
                    "one side's capture is a strict prefix of the "
                    "other's: the shorter run quiesced early"
                )
    else:
        # without a perturbation both re-runs replay identically, so
        # the recorded side of the window only survives in the hi
        # snapshot's embedded trace tail (if retention kept the file)
        report.replayed_tail = replayed.formatted()[-_TAIL:]
        hi_snap = entries[hi].get("snapshot")
        if hi_snap and (directory / hi_snap).exists():
            from .snapshot import read_snapshot

            recorded = read_snapshot(directory / hi_snap)["machine"].trace
            if recorded is not None:
                report.recorded_tail = list(recorded.tail)[-_TAIL:]
                report.notes.append(
                    f"recorded tail taken from {hi_snap}'s embedded "
                    f"trace (last {len(report.recorded_tail)} events "
                    f"before the window's end); tails are unaligned"
                )
        else:
            report.notes.append(
                "the window's closing snapshot was pruned by retention; "
                "no recorded-side events survive to diff against"
            )
    return report

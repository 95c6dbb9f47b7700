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

Divergence bisection
--------------------

Because the chained event-trace digest after event *n* commits to the
entire ordered prefix, "the replayed digest at checkpoint *k* equals
the recorded one" is a *monotone* predicate: once two executions
diverge, their digests never re-converge.  Record mode therefore
persists a **digest ledger** in the manifest -- one ``{snapshot,
cycle, trace_sha256, trace_events}`` entry per snapshot ever taken
(entries outlive retention pruning).  :func:`bisect_divergence`
binary-searches that ledger: each probe resumes from the newest
surviving snapshot at or below the last known-good entry, re-executes
to the probed entry's cycle (pausing exactly at the ``checkpoint_tick``
heap point where the recorded digest was captured), and compares
digests.  The search converges on one adjacent ledger pair -- the
first divergent checkpoint window -- and then re-runs both sides of
that window with full event capture to name the first differing event
and its suspect cell/arc.
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


@dataclass
class ReplayReport:
    """Outcome of re-executing a recorded run."""

    bundle: str
    expected: dict[str, Any] = field(default_factory=dict)
    actual: dict[str, Any] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    #: filled by ``replay_bundle(..., bisect=True)`` on a diverged replay
    divergence: Optional["DivergenceReport"] = None

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
    for key in ("status", "final_cycle", "outputs_sha256", "trace_sha256",
                "trace_events"):
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


def replay_bundle(
    directory: Union[str, Path],
    max_cycles: int = 50_000_000,
    bisect: bool = False,
) -> ReplayReport:
    """Re-execute a recorded run bundle and diff it against the record.

    Loads the bundle's initial snapshot, detaches it from the bundle
    directory (a replay must never overwrite the evidence), runs to
    completion or failure, and compares status, final cycle, output
    digest and event-trace digest against ``manifest.json``.

    With ``bisect=True`` a diverged replay is handed to
    :func:`bisect_divergence`, and the resulting
    :class:`DivergenceReport` is attached to the returned report.
    """
    from .snapshot import load_machine

    directory = Path(directory)
    manifest = read_manifest(directory)
    initial = directory / manifest.get("initial_snapshot", "initial.snap")
    machine = load_machine(initial)
    machine.ckpt = None
    if machine.trace is None:
        raise SnapshotError(
            f"initial snapshot {initial} was taken without event tracing; "
            f"the bundle cannot be replayed bit-exactly"
        )
    error: Optional[Exception] = None
    try:
        machine.run(max_cycles=max_cycles)
    except (DeadlockError, SimulationTimeout) as exc:
        error = exc
    actual = _outcome(machine, error)
    expected = {
        k: manifest[k]
        for k in ("status", "final_cycle", "outputs_sha256", "trace_sha256",
                  "trace_events", "error")
        if k in manifest
    }
    if manifest.get("status") == "running":
        raise SnapshotError(
            f"bundle {directory} records a run that never finished "
            f"(status 'running'): resume it first, then replay"
        )
    report = ReplayReport(
        bundle=str(directory),
        expected=expected,
        actual=actual,
        mismatches=_compare(expected, actual),
    )
    if bisect and not report.reproduced:
        report.divergence = bisect_divergence(
            directory, max_cycles=max_cycles
        )
    return report


# ----------------------------------------------------------------------
# divergence bisection
# ----------------------------------------------------------------------
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

    bundle: str
    diverged: bool
    interval: int = 0
    probes: int = 0
    window: Optional[list[int]] = None
    window_indices: Optional[list[int]] = None
    window_snapshots: Optional[list[Optional[str]]] = None
    first_event: Optional[str] = None
    first_event_cycle: Optional[int] = None
    suspect: Optional[dict[str, Any]] = None
    recorded_tail: list[str] = field(default_factory=list)
    replayed_tail: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def summary(self) -> str:
        if not self.diverged:
            return (
                f"bisect of {self.bundle}: CLEAN -- replay matches the "
                f"recorded digest at every checkpoint and at the end "
                f"({self.probes} probe{'s' if self.probes != 1 else ''})"
            )
        lines = [
            f"bisect of {self.bundle}: DIVERGED in cycle window "
            f"[{self.window[0]}, {self.window[1]}) -- ledger entries "
            f"{self.window_indices[0]}..{self.window_indices[1]}, "
            f"{self.probes} probe{'s' if self.probes != 1 else ''}"
        ]
        if self.first_event is not None:
            lines.append(f"  first differing event: {self.first_event}")
        if self.suspect:
            lines.append(f"  suspect: {self.suspect}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class _PassiveCheckpoint:
    """Duck-typed no-op stand-in for a ``CheckpointManager``.

    Replay probes must keep ``checkpoint_tick`` events re-arming on the
    recorded cadence -- the ticks are the pause points the ledger
    digests were captured at -- but must never write into the bundle
    directory (the evidence).  Swapping this in for the snapshot's real
    manager keeps ``config.interval`` visible to the tick handler and
    turns every save into a no-op.
    """

    def __init__(self, interval: int) -> None:
        from ..machine.stats import CheckpointStats
        from .manager import CheckpointConfig

        self.config = CheckpointConfig(
            directory=".", interval=interval, retain=0, record=False
        )
        self.stats = CheckpointStats()
        #: cycle -> (digest, event count) observed at each tick passed
        #: through -- lets a full probe cross-check every ledger entry
        self.observed: dict[int, tuple[str, int]] = {}

    def on_start(self, machine: Any) -> None:
        pass

    def save_periodic(self, machine: Any) -> None:
        self.observed[machine.now] = (
            machine.trace.hexdigest(), machine.trace.count
        )
        return None

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
            f"(recorded by an older build?); re-record it to enable "
            f"divergence bisection"
        )
    if "trace_sha256" not in manifest or "final_cycle" not in manifest:
        raise SnapshotError(
            f"bundle {directory} records no final trace digest; "
            f"resume the run to completion, then bisect"
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
        f"ledger entry {lo} (not even initial.snap); cannot probe"
    )


def _load_probe(
    directory: Path,
    entries: list[dict[str, Any]],
    j: int,
    interval: int,
    perturb: Any,
) -> Any:
    """Load the snapshot at ledger index ``j`` as a detached probe."""
    from .snapshot import load_machine

    machine = load_machine(directory / entries[j]["snapshot"])
    if machine.trace is None:
        raise SnapshotError(
            f"snapshot {entries[j]['snapshot']} in {directory} carries "
            f"no event trace; the bundle cannot be bisected"
        )
    machine.ckpt = _PassiveCheckpoint(interval)
    _install_perturbation(machine, perturb)
    # initial.snap is written before the first checkpoint_tick is
    # scheduled; arming it here consumes exactly the sequence number
    # the recorded run's tick got, so the probe's heap order matches
    if interval and not any(
        e[2] == "checkpoint_tick" for e in machine._events
    ):
        machine._at(machine.now + interval, "checkpoint_tick", aux=True)
    return machine


def _run_to(machine: Any, entry: dict[str, Any], max_cycles: int) -> None:
    """Advance a probe to a ledger entry's capture point (or to the
    end, for the terminal entry), swallowing run failures -- a probe
    that fails early simply won't match the entry's digest."""
    target = None if entry.get("terminal") else entry["cycle"]
    try:
        machine.run(max_cycles=max_cycles, stop_at_checkpoint=target)
    except (DeadlockError, SimulationTimeout):
        pass


def _digest_matches(machine: Any, entry: dict[str, Any]) -> bool:
    return (
        machine.trace.hexdigest() == entry["trace_sha256"]
        and machine.trace.count == entry.get("trace_events")
    )


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


def bisect_divergence(
    directory: Union[str, Path],
    perturb: Any = None,
    max_cycles: int = 50_000_000,
    tail: int = 16,
) -> DivergenceReport:
    """Binary-search a bundle's digest ledger for the first divergent
    checkpoint window, then capture both sides of that window.

    ``perturb`` optionally installs a different
    :class:`~repro.faults.FaultPlan` on the replay side (see
    :func:`_install_perturbation`) -- the tool that turns "would this
    fault have changed the run, and where first?" into a one-command
    answer.  Without it, a divergence means the replay itself failed
    to reproduce the record.

    Each probe resumes from the newest surviving snapshot at or below
    the last known-good ledger entry and re-executes to the probed
    entry's cycle; matched probes are kept paused and continued in
    place, so the matched side of the search costs one forward pass in
    total.  Returns a :class:`DivergenceReport`; ``diverged=False``
    means every ledger digest and the terminal digest matched.
    """
    from ..sim.trace import EventCapture, first_divergence, format_event

    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest.get("status") == "running":
        raise SnapshotError(
            f"bundle {directory} records a run that never finished "
            f"(status 'running'): resume it first, then bisect"
        )
    interval = int(manifest.get("interval") or 0)
    entries = _ledger_entries(directory, manifest)
    report = DivergenceReport(
        bundle=str(directory), diverged=False, interval=interval
    )

    #: (ledger index, machine paused at that entry's capture point) of
    #: the highest matched probe -- continued in place when possible
    paused: Optional[tuple[int, Any]] = None
    #: replayed digests observed at every tick any probe passed through
    observed: dict[int, tuple[str, int]] = {}

    def probe(i: int, lo: int) -> bool:
        nonlocal paused
        report.probes += 1
        if paused is not None and paused[0] < i:
            machine = paused[1]
        else:
            j = _resume_index(directory, entries, lo)
            machine = _load_probe(directory, entries, j, interval, perturb)
        _run_to(machine, entries[i], max_cycles)
        observed.update(machine.ckpt.observed)
        if _digest_matches(machine, entries[i]):
            paused = None if entries[i].get("terminal") else (i, machine)
            return True
        paused = None
        return False

    last = len(entries) - 1
    if probe(last, 0):
        # the chained digest is prefix-committing, so a matching
        # terminal digest proves the replay executed the recorded event
        # sequence exactly -- any mid-ledger entry that disagrees with
        # the digests observed along the way is therefore wrong *in the
        # ledger itself* (a damaged or tampered bundle), not a replay
        # divergence, and is pinned without any further probing
        bad = next(
            (
                i
                for i in range(1, last)
                if entries[i]["cycle"] in observed
                and observed[entries[i]["cycle"]]
                != (
                    entries[i]["trace_sha256"],
                    entries[i].get("trace_events"),
                )
            ),
            None,
        )
        if bad is None:
            return report         # CLEAN: every digest matches
        report.diverged = True
        report.window = [entries[bad - 1]["cycle"], entries[bad]["cycle"]]
        report.window_indices = [bad - 1, bad]
        report.window_snapshots = [
            entries[bad - 1].get("snapshot"),
            entries[bad].get("snapshot"),
        ]
        report.notes.append(
            f"replay matches the recorded terminal digest, but ledger "
            f"entry {bad} (cycle {entries[bad]['cycle']}) disagrees with "
            f"the digest the replay passed through: the ledger is "
            f"internally inconsistent -- the bundle's manifest is "
            f"damaged or tampered, not the run"
        )
        return report

    lo, hi = 0, last              # invariant: match at lo, mismatch at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid, lo):
            lo = mid
        else:
            hi = mid

    report.diverged = True
    report.window = [entries[lo]["cycle"], entries[hi]["cycle"]]
    report.window_indices = [lo, hi]
    report.window_snapshots = [
        entries[lo].get("snapshot"),
        entries[hi].get("snapshot"),
    ]

    # ------------------------------------------------------------------
    # window forensics: re-run both sides of [lo, hi) with full capture
    # ------------------------------------------------------------------
    j = _resume_index(directory, entries, lo)
    c_lo = entries[lo]["cycle"]

    def run_side(with_perturb: bool) -> Any:
        machine = _load_probe(
            directory, entries, j, interval, perturb if with_perturb else None
        )
        machine.capture = EventCapture(start_cycle=c_lo)
        _run_to(machine, entries[hi], max_cycles)
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
            lo_cut = max(0, idx - tail // 2)
            report.recorded_tail = [
                format_event(e) for e in recorded.events[lo_cut: idx + tail]
            ]
            report.replayed_tail = [
                format_event(e) for e in replayed.events[lo_cut: idx + tail]
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
        report.replayed_tail = replayed.formatted()[-tail:]
        hi_snap = entries[hi].get("snapshot")
        if hi_snap and (directory / hi_snap).exists():
            from .snapshot import read_snapshot

            recorded_machine = read_snapshot(directory / hi_snap)["machine"]
            if recorded_machine.trace is not None:
                report.recorded_tail = list(recorded_machine.trace.tail)[-tail:]
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

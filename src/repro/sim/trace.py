"""Trace formatting, event capture and utilization reporting.

These helpers turn raw simulator state into human-readable reports; the
examples use them to show the pipeline filling and draining the way
Figure 2 of the paper describes.  :class:`EventCapture` and
:func:`first_divergence` are the shared forensics primitives: the
machine-level simulator records executed events into a capture during a
replay's first divergent window, and the diff pinpoints the first event
where two executions drifted apart.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..graph.graph import DataflowGraph
from .sync import SimStats, SyncSimulator


class EventCapture:
    """Bounded capture of executed simulator events.

    Attached to :attr:`repro.machine.Machine.capture` while re-running
    one divergence window, it records every executed non-auxiliary
    event ``(time, kind, args)`` from ``start_cycle`` on, up to
    ``limit`` events (``truncated`` flags an overflowing window).
    Unlike :class:`repro.checkpoint.EventTrace` -- which compresses the
    whole run into one chained digest plus a short tail -- a capture
    keeps the events themselves, so two captures of the same window can
    be diffed event by event.
    """

    __slots__ = ("start_cycle", "limit", "events", "truncated")

    def __init__(self, start_cycle: int = 0, limit: int = 200_000) -> None:
        self.start_cycle = start_cycle
        self.limit = limit
        self.events: list[tuple[int, str, tuple]] = []
        self.truncated = False

    def record(self, time: int, kind: str, args: tuple) -> None:
        if time < self.start_cycle:
            return
        if len(self.events) >= self.limit:
            self.truncated = True
            return
        self.events.append((time, kind, args))

    def formatted(self) -> list[str]:
        """The captured events in the ``time:kind:args`` text form the
        :class:`~repro.checkpoint.EventTrace` tail uses."""
        return [format_event(e) for e in self.events]


def format_event(event: tuple[int, str, tuple]) -> str:
    time, kind, args = event
    return f"{time}:{kind}:{args!r}"


def first_divergence(
    a: Sequence[Any], b: Sequence[Any]
) -> Optional[int]:
    """Index of the first position where two event sequences differ.

    Returns the length of the shorter sequence when one is a strict
    prefix of the other, and ``None`` when they are identical.
    """
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n if len(a) != len(b) else None


def format_trace(
    sim: SyncSimulator,
    first: int = 0,
    last: Optional[int] = None,
    width: int = 72,
) -> str:
    """Render the firing trace as one line per step (needs
    ``record_trace=True`` on the simulator)."""
    if sim.trace is None:
        raise ValueError("simulator was not created with record_trace=True")
    g = sim.graph
    lines = []
    window = sim.trace[first:last]
    for offset, fired in enumerate(window):
        labels = ", ".join(g.cells[cid].label for cid in fired)
        if len(labels) > width:
            labels = labels[: width - 3] + "..."
        lines.append(f"t={first + offset:5d}  {labels or '-'}")
    return "\n".join(lines)


def utilization_report(graph: DataflowGraph, stats: SimStats, top: int = 0) -> str:
    """Tabulate per-cell firing counts and utilization.

    Utilization is the fraction of the maximum rate (one firing per two
    instruction times); a fully pipelined graph shows ~1.0 on every cell
    of the steady-state path.
    """
    rows = []
    for cell in graph:
        fires = stats.fire_counts.get(cell.cid, 0)
        rows.append((stats.utilization(cell.cid), fires, cell))
    rows.sort(key=lambda r: (-r[0], r[2].cid))
    if top:
        rows = rows[:top]
    lines = [f"{'cell':<24}{'op':<10}{'fires':>8}{'util':>8}"]
    for util, fires, cell in rows:
        lines.append(
            f"{cell.label:<24}{cell.op.value:<10}{fires:>8}{util:>8.2f}"
        )
    return "\n".join(lines)


def occupancy_snapshot(sim: SyncSimulator) -> dict[str, int]:
    """Current token population by region (arcs vs FIFO interiors)."""
    from ..graph.cell import _NO_TOKEN

    on_arcs = sum(1 for v in sim.arc_value.values() if v is not _NO_TOKEN)
    in_fifos = sum(st.occupancy for st in sim.fifo_state.values())
    return {"arcs": on_arcs, "fifos": in_fifos, "total": on_arcs + in_fifos}

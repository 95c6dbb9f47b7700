"""Steady-state fast-forward for :meth:`Machine.run`.

The event machine spends almost all of a long run re-deriving the same
periodic steady state the paper proves exists (Theorems 1-4): after a
prologue, every ``II``-cycle period fires the same cells in the same
order, advancing each stream by a fixed element count.
``Machine.run(fast_forward=True)`` (``backend="compiled"``) executes
the *same machine model* but recognizes the period and skips over it:

1. **Detect** -- at every firing of the anchor source cell, take a
   structural signature of the whole machine state (operand occupancy,
   pending acknowledges, PE queues, in-flight events with
   time-relative stamps, unit pipelines, round-robin cursors) with
   data values abstracted away.  Three equally spaced identical
   signatures with identical counter deltas establish the period:
   ``r`` anchor elements every ``dt`` cycles.

2. **Validate** -- a period may be replayed ``J`` times only if
   nothing value-dependent changes across the replay.
   :func:`analyze_schedule` guarantees all control operands are fed
   verbatim from source streams, so the *future* control sequence is
   checked for periodicity, ``C[i] == C[i - w]``, over the whole replay
   span plus the control tokens in flight (exact: each one sits on the
   plain ID chain from its source), and ``J`` is capped so no source
   exhausts and ``max_cycles`` behavior is preserved.

3. **Jump** -- shift every pending event, unit pipeline and the clock
   forward by ``J * dt``; scale every additive counter by ``J`` window
   deltas; extend each sink's arrival times by ``J`` shifted copies of
   the window's arrival pattern.  The machine then continues concrete
   execution (epilogue included) from a state bit-identical to the one
   a plain run would have reached.

Output *values* for the skipped elements come from the
:class:`~repro.compiler.schedule.StreamEvaluator`, whose Kahn-network
evaluation is schedule-independent and therefore bit-identical to the
machine's own arithmetic; the values the machine did compute before
the first jump are cross-checked against it before any jump is taken,
and :meth:`FastForward.finalize` splices the rest in when the run ends.

This module alone decides what makes a run replayable.  A graph the
analysis cannot prove replayable (computed controls, DIV, array-memory
writes), a run with machinery whose side effects a jump would skip
(faults, checkpoints, tracing, the reliability layer), and a run whose
schedule never settles (data-dependent merges, tiny streams) simply
executes concretely with the detector disarmed, so bit-identity with a
plain run holds trivially.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..compiler.schedule import ScheduleError, StreamEvaluator, truth_mask
from ..errors import SimulationError
from ..graph.cell import GATE_PORT
from ..graph.graph import DataflowGraph
from ..graph.opcodes import MERGE_CONTROL_PORT, Op
from .machine import _TICKERS

#: fewer periods than this are not worth a jump's bookkeeping
_MIN_JUMP = 8
#: anchor firings examined before period detection gives up, keeping
#: never-periodic runs within a constant factor of plain event cost
_CALIBRATION_BUDGET = 4096
#: an armed run's ``fallback_reason`` until its detector finds a period
_NO_PERIOD = "no recurring machine state before the streams ran out"


@dataclass
class SteadySchedule:
    """What the period detector observed in one fast-forwarded run
    (attached to the machine as ``machine.schedule``)."""

    #: cell id whose firings anchored period detection
    anchor: Optional[int] = None
    #: cycles of concrete prologue execution before the first jump
    prologue_cycles: Optional[int] = None
    #: detected period length, in cycles (the steady-state II times
    #: the elements advanced per period)
    period_cycles: Optional[int] = None
    #: stream elements consumed by the anchor per period
    period_elements: Optional[int] = None
    #: (at_cycle, periods_skipped, cycles_skipped) per applied jump
    jumps: list[tuple[int, int, int]] = field(default_factory=list)
    #: why the run stayed concrete; empty exactly when jumps were
    #: applied
    fallback_reason: str = ""

    @property
    def cycles_skipped(self) -> int:
        return sum(j[2] for j in self.jumps)


def _values_equal(a: list, b: list) -> bool:
    """Elementwise equality where NaN matches NaN (both engines produce
    the identical NaN through the identical operation sequence)."""
    return len(a) == len(b) and all(
        x == y or (x != x and y != y) for x, y in zip(a, b)
    )


# ----------------------------------------------------------------------
# static analysis
# ----------------------------------------------------------------------
def _trace_control_source(
    graph: DataflowGraph, arc: Any
) -> Optional[int]:
    """Walk a control arc back through plain ID cells to its source.

    Returns the SOURCE/AM_READ cell id when every hop is an untagged,
    initial-token-free arc and every intermediate cell is an ungated ID
    (a lowered FIFO stage) -- the conditions under which the control
    port consumes exactly the source's stream, in order.  ``None``
    means the control is computed at run time.
    """
    seen: set[int] = set()
    while True:
        if arc.tag is not None or arc.has_initial:
            return None
        cell = graph.cells[arc.src]
        if cell.cid in seen:
            return None
        seen.add(cell.cid)
        if cell.op in (Op.SOURCE, Op.AM_READ):
            return None if cell.gated else cell.cid
        if cell.op is Op.ID and not cell.gated and 0 not in cell.consts:
            arc = graph.in_arc.get((cell.cid, 0))
            if arc is None:
                return None
            continue
        return None


def analyze_schedule(
    graph: DataflowGraph, inputs: dict[str, list[Any]]
) -> tuple[int, list[int], list[tuple[int, int]]]:
    """Decide, from the lowered graph alone, whether its steady state is
    statically replayable: every control token (gate operands, MERGE
    control operands) must trace back through plain untagged ID chains
    to a SOURCE/AM_READ cell, so the full control decision sequence is
    known before the run starts; and no opcode may fault on operand
    *values* (DIV).  Then nothing inside a detected period depends on
    which window of elements is flowing through, and it can be replayed
    by pure time-shifting.

    Returns ``(anchor, sources, controls)``: the source with the
    longest stream (whose firings anchor period detection), every
    SOURCE/AM_READ cell id, and one ``(consumer, source)`` cell-id
    pair per control operand.  Raises :class:`ScheduleError` naming
    the reason when the graph is not replayable.
    """
    sources: list[int] = []
    controls: list[tuple[int, int]] = []
    for cell in graph:
        op = cell.op
        if op is Op.DIV:
            # a replayed period routes stale placeholder operands into
            # the divider, which could fault on a value the real run
            # never sees
            raise ScheduleError("graph contains DIV cells")
        if op is Op.CONST:
            raise ScheduleError("graph contains free-running CONST cells")
        if op is Op.AM_WRITE:
            raise ScheduleError("graph writes array memory")
        if op in (Op.SOURCE, Op.AM_READ):
            sources.append(cell.cid)
        ctl_ports = []
        if cell.gated and GATE_PORT not in cell.consts:
            ctl_ports.append(GATE_PORT)
        if op is Op.MERGE and MERGE_CONTROL_PORT not in cell.consts:
            ctl_ports.append(MERGE_CONTROL_PORT)
        for port in ctl_ports:
            in_arc = graph.in_arc.get((cell.cid, port))
            if in_arc is None:
                continue        # the cell can never fire; harmless
            src = _trace_control_source(graph, in_arc)
            if src is None:
                raise ScheduleError(
                    f"control operand of cell {cell.cid} is computed "
                    f"at run time"
                )
            controls.append((cell.cid, src))
    if not sources:
        raise ScheduleError("graph has no stream sources")

    def seq_len(cid: int) -> int:
        cell = graph.cells[cid]
        if "values" in cell.params:
            return len(cell.params["values"])
        return len(inputs.get(cell.params["stream"], ()))

    anchor = max(sources, key=seq_len)
    if seq_len(anchor) == 0:
        raise ScheduleError("all source streams are empty")
    return anchor, sources, controls


# ----------------------------------------------------------------------
# the detector, validator and jump of one run
# ----------------------------------------------------------------------
class FastForward:
    """Steady-state period detection and fast-forward over one
    :meth:`Machine.run`.

    Constructing it decides whether the run is replayable and, if so,
    arms it as ``machine._ff``: ``Machine._fire`` then calls
    :meth:`on_anchor` before every firing of :attr:`anchor`.
    Disarming removes the hook again, so the rest of the run costs
    exactly a plain run.  :attr:`schedule` reports what happened.
    """

    def __init__(self, machine: Any, max_cycles: int) -> None:
        self.machine = machine
        self.max_cycles = max_cycles
        self.schedule = SteadySchedule()
        self._jumped = False
        self._eval_values: Optional[dict[int, list[Any]]] = None
        try:
            anchor, sources, controls = analyze_schedule(
                machine.graph, machine.inputs
            )
        except ScheduleError as exc:
            self.schedule.fallback_reason = str(exc)
            return
        # any machinery with observable side effects during the skipped
        # window (fault injection, snapshots, event traces, the
        # retransmission layer) makes a jump unsound -- run concretely
        if (
            machine.injector is not None
            or machine.ckpt is not None
            or machine.trace is not None
            or machine._reliable
        ):
            self.schedule.fallback_reason = (
                "fault injection, checkpointing, tracing or the "
                "reliability layer is active"
            )
            return
        self.anchor = anchor
        self.schedule.anchor = anchor
        self.schedule.fallback_reason = _NO_PERIOD
        self._cid_list = sorted(machine.graph.cells)
        self._cid_index = {c: i for i, c in enumerate(self._cid_list)}
        self._sink_cids = sorted(machine.sink_times)
        self._src_cids = sorted(sources)
        src_index = {c: i for i, c in enumerate(self._src_cids)}
        #: (consumer index in ``_cid_list``, source index in
        #: ``_src_cids``, control truth values) per control arc
        self._controls = [
            (self._cid_index[dst], src_index[src],
             truth_mask(machine._source_seq(machine.graph.cells[src])))
            for dst, src in controls
        ]
        #: (control index, period w) -> every i >= w where the control
        #: sequence breaks period w (``C[i] != C[i - w]``), ascending
        self._breaks: dict[tuple[int, int], list[int]] = {}
        self._occ: dict[Any, list[tuple]] = {}
        self._anchor_fires = 0
        machine._ff = self

    # ------------------------------------------------------------------
    # period detection
    # ------------------------------------------------------------------
    def _disarm(self, reason: str) -> None:
        vars(self.machine).pop("_ff", None)
        self._occ.clear()
        if not self.schedule.jumps:
            self.schedule.fallback_reason = reason

    def on_anchor(self) -> None:
        self._anchor_fires += 1
        if self._anchor_fires > _CALIBRATION_BUDGET:
            self._disarm(
                "no steady-state recurrence within the calibration "
                "budget"
            )
            return
        sig = self._signature()
        if sig is None:
            self._disarm("unexpected event kind in flight")
            return
        snaps = self._occ.setdefault(sig, [])
        snaps.append(self._snapshot())
        if len(snaps) > 3:
            snaps.pop(0)
        if len(snaps) == 3:
            self._maybe_jump(*snaps)

    def _signature(self) -> Optional[tuple]:
        """Structural machine state with values abstracted and times
        made clock-relative; two firings with equal signatures evolve
        through identical event schedules as long as their future
        control decisions agree."""
        m = self.machine
        T = m.now
        cells = []
        for cid in self._cid_list:
            st = m.cell_state[cid]
            cells.append(
                (tuple(sorted(st.operands)), st.acks_pending, st.queued)
            )
        heap = []
        for t, _seq, kind, args, _aux in sorted(m._events):
            if kind in _TICKERS:
                continue            # self-re-arming, state-independent
            if kind in ("dispatch", "deliver_ack"):
                a = args
            elif kind in ("record_sink", "deliver_results"):
                a = (args[0],)      # drop the data value
            else:
                return None
            heap.append((t - T, kind, a))
        return (
            tuple(cells),
            tuple(heap),
            tuple(tuple(q) for q in m._pe_queues),
            tuple(m._dispatch_pending),
            tuple(max(0, u.next_free - T) for u in m.pes),
            tuple(max(0, u.next_free - T) for u in m.fus),
            tuple(max(0, u.next_free - T) for u in m.ams),
            max(0, m._rn_next_free - T),
            m._fu_rr,
            m._am_rr,
        )

    def _snapshot(self) -> tuple:
        """Every additive counter plus stream cursors, for window-delta
        scaling.  Index layout is relied on by ``_maybe_jump`` /
        ``_apply_jump``: 0 anchor-fires, 1 clock, 2 packets, 3/4 PE
        busy/ops, 5/6 FU, 7/8 AM, 9 fire counts, 10 progress, 11 sink
        lengths, 12 source positions."""
        m = self.machine
        pk = m.packets
        return (
            self._anchor_fires,
            m.now,
            (pk.op_local, pk.op_fu, pk.op_am, pk.results, pk.acks),
            tuple(u.busy_cycles for u in m.pes),
            tuple(u.ops for u in m.pes),
            tuple(u.busy_cycles for u in m.fus),
            tuple(u.ops for u in m.fus),
            tuple(u.busy_cycles for u in m.ams),
            tuple(u.ops for u in m.ams),
            tuple(m.cell_state[c].fire_count for c in self._cid_list),
            m._progress,
            tuple(len(m.sink_times[c]) for c in self._sink_cids),
            tuple(m.cell_state[c].source_pos for c in self._src_cids),
        )

    @staticmethod
    def _window_delta(a: tuple, b: tuple) -> tuple:
        def diff(x, y):
            if isinstance(x, tuple):
                return tuple(diff(i, j) for i, j in zip(x, y))
            return y - x
        return tuple(diff(x, y) for x, y in zip(a[2:], b[2:]))

    # ------------------------------------------------------------------
    # jump validation
    # ------------------------------------------------------------------
    def _maybe_jump(self, s1: tuple, s2: tuple, s3: tuple) -> None:
        r = s3[0] - s2[0]
        dt = s3[1] - s2[1]
        if r <= 0 or dt <= 0:
            return
        if s2[0] - s1[0] != r or s2[1] - s1[1] != dt:
            return              # occurrences not equally spaced (yet)
        if self._window_delta(s1, s2) != self._window_delta(s2, s3):
            return
        J = self._max_jump(s2, s3, dt)
        if J < _MIN_JUMP:
            if self.schedule.fallback_reason == _NO_PERIOD:
                self.schedule.fallback_reason = (
                    f"period of {r} elements / {dt} cycles found at "
                    f"cycle {self.machine.now} with {max(J, 0)} "
                    f"replayable periods left; a jump takes {_MIN_JUMP}"
                )
            return
        if not self._values_ready():
            return              # evaluator refused; detector disarmed
        self._apply_jump(s2, s3, r, dt, J)

    def _max_jump(self, s2: tuple, s3: tuple, dt: int) -> int:
        """Largest period count the current state provably replays."""
        m = self.machine
        J = 1 << 60
        # no source may exhaust mid-replay (the drain runs concretely)
        for i, cid in enumerate(self._src_cids):
            dpos = s3[12][i] - s2[12][i]
            if dpos <= 0:
                continue
            n = len(m._source_seq(m.graph.cells[cid]))
            J = min(J, (n - 1 - s3[12][i]) // dpos)
        # every control sequence must repeat with the period over the
        # whole replay span and over the tokens the source has already
        # sent down the (plain ID) chain but the consumer has not yet
        # taken: those keep their pre-jump values across the jump
        for ci, (di, si, trace) in enumerate(self._controls):
            w = s3[9][di] - s2[9][di]
            if w <= 0:
                continue
            b = s3[9][di]
            # i: the first index >= b that breaks the period (the
            # sequence's end when none does); b >= w, as b counts w
            # firings of the last window
            breaks = self._breaks.get((ci, w))
            if breaks is None:
                breaks = self._breaks[ci, w] = (
                    np.flatnonzero(trace[w:] != trace[:-w]) + w
                ).tolist()
            k = bisect_left(breaks, b)
            i = breaks[k] if k < len(breaks) else max(b, len(trace))
            in_flight = s3[12][si] - b
            J = min(J, (i - b - in_flight) // w)
        # a run a plain machine would time out must still time out at
        # the same cycle, so never jump past the budget
        return min(J, (self.max_cycles - m.now) // dt)

    def _values_ready(self) -> bool:
        """Run the stream evaluator (once) and cross-check it against
        every value the machine has computed so far; jumps are only
        taken when the two engines agree bit for bit on the prefix."""
        if self._eval_values is not None:
            return True
        m = self.machine
        try:
            values = StreamEvaluator(m.graph, m.inputs).run()
        except ScheduleError as exc:
            self._disarm(f"stream evaluation failed: {exc}")
            return False
        for cid in self._sink_cids:
            got = m.sink_values[cid]
            want = values[cid]
            if len(want) < len(got) or not _values_equal(
                got, want[: len(got)]
            ):
                self._disarm(
                    "stream evaluator disagrees with the machine's "
                    "value prefix"
                )
                return False
        self._eval_values = values
        return True

    # ------------------------------------------------------------------
    # the jump itself
    # ------------------------------------------------------------------
    def _apply_jump(
        self, s2: tuple, s3: tuple, r: int, dt: int, J: int
    ) -> None:
        m = self.machine
        T = m.now
        S = J * dt
        # shift every pending event; watchdog ticks instead advance to
        # their next cadence point at or after the new clock (they are
        # scheduled absolutely and must stay on multiples of the
        # interval, exactly as in the un-jumped run)
        I = m._wd_interval
        shifted = []
        for t, seq, kind, args, aux in m._events:
            if kind in _TICKERS:
                if t < T + S:
                    t += ((T + S - t + I - 1) // I) * I
            else:
                t += S
            shifted.append((t, seq, kind, args, aux))
        heapq.heapify(shifted)
        m._events = shifted
        m.now = T + S
        for pool in (m.pes, m.fus, m.ams):
            for u in pool:
                u.next_free += S
        if m.config.rn_bandwidth:
            m._rn_next_free += S
        # replay J windows' worth of every additive counter
        pk = m.packets
        pk2, pk3 = s2[2], s3[2]
        pk.op_local += J * (pk3[0] - pk2[0])
        pk.op_fu += J * (pk3[1] - pk2[1])
        pk.op_am += J * (pk3[2] - pk2[2])
        pk.results += J * (pk3[3] - pk2[3])
        pk.acks += J * (pk3[4] - pk2[4])
        for pool, bi, oi in ((m.pes, 3, 4), (m.fus, 5, 6), (m.ams, 7, 8)):
            for u, b2, b3, o2, o3 in zip(
                pool, s2[bi], s3[bi], s2[oi], s3[oi]
            ):
                u.busy_cycles += J * (b3 - b2)
                u.ops += J * (o3 - o2)
        for cid, f2, f3 in zip(self._cid_list, s2[9], s3[9]):
            m.cell_state[cid].fire_count += J * (f3 - f2)
        m._progress += J * (s3[10] - s2[10])
        for cid, p2, p3 in zip(self._src_cids, s2[12], s3[12]):
            m.cell_state[cid].source_pos += J * (p3 - p2)
        # sink arrivals: J shifted copies of the window's pattern, with
        # value placeholders finalize() replaces
        for cid, L2, L3 in zip(self._sink_cids, s2[11], s3[11]):
            times = m.sink_times[cid]
            L = L3 - L2
            # copy j of the window (j = 1..J) is the window shifted by
            # j * dt: window element k's copies are one range
            splice = [0] * (J * L)
            for k, t in enumerate(times[L2:L3]):
                splice[k::L] = range(t + dt, t + S + 1, dt)
            times.extend(splice)
            m.sink_values[cid].extend([None] * (J * L))
        m._wd_last = -1
        m._wd_stalls = 0
        self._jumped = True
        sch = self.schedule
        if sch.prologue_cycles is None:
            sch.prologue_cycles = T
            sch.period_cycles = dt
            sch.period_elements = r
        sch.jumps.append((T, J, S))
        sch.fallback_reason = ""
        # keep detecting: the drain may still expose another long
        # stretch (e.g. after a control-pattern change)
        self._occ.clear()
        self._anchor_fires = 0

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Replace post-jump placeholder sink values with the stream
        evaluator's results once the run has completed.  A length
        mismatch means replay and evaluation diverged and is a loud
        internal error, never silent corruption."""
        if not self._jumped:
            return
        assert self._eval_values is not None
        m = self.machine
        for cid in self._sink_cids:
            vals = m.sink_values[cid]
            want = self._eval_values[cid]
            if len(want) != len(vals):
                raise SimulationError(
                    f"fast-forward internal error: sink cell {cid} "
                    f"timed {len(vals)} arrivals but evaluated "
                    f"{len(want)} values"
                )
            vals[:] = want

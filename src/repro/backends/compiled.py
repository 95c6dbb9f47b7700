"""Compiled steady-state "turbo" backend.

The event machine spends almost all of a long run re-deriving the same
periodic steady state the paper proves exists (Theorems 1-4): after a
prologue, every ``II``-cycle period fires the same cells in the same
order, advancing each stream by a fixed element count.  This backend
executes the *same machine model* but recognizes the period and
fast-forwards over it:

1. **Detect** -- at every firing of the anchor source cell, take a
   structural signature of the whole machine state (operand occupancy,
   pending acknowledges, PE queues, in-flight events with
   time-relative stamps, unit pipelines, round-robin cursors) with
   data values abstracted away.  Three equally spaced identical
   signatures with identical counter deltas establish the period:
   ``r`` anchor elements every ``dt`` cycles.

2. **Validate** -- a period may be replayed ``J`` times only if
   nothing value-dependent changes across the replay.
   :func:`~repro.compiler.schedule.analyze_schedule` guarantees all
   control operands are fed verbatim from source streams, so the
   *future* control sequence is checked directly against
   ``C[i] == C[i - w]`` over the whole replay span (plus a margin
   covering in-flight tokens), and ``J`` is capped so no source
   exhausts and ``max_cycles`` behavior is preserved.

3. **Jump** -- shift every pending event, unit pipeline and the clock
   forward by ``J * dt``; scale every additive counter by ``J`` window
   deltas; extend each sink's arrival times by ``J`` shifted copies of
   the window's arrival pattern.  The machine then continues concrete
   execution (epilogue included) from a state bit-identical to the one
   the event machine would have reached.

Output *values* for the skipped elements come from the
:class:`~repro.compiler.schedule.StreamEvaluator`, whose Kahn-network
evaluation is schedule-independent and therefore bit-identical to the
machine's own arithmetic; the values the machine did compute before
the first jump are cross-checked against it before any jump is taken.

Any graph the analysis cannot prove replayable (computed controls,
DIV, array-memory writes), and any run whose schedule never settles
(data-dependent merges, tiny streams), simply executes concretely --
the backend is then the event machine with a disarmed detector, so
bit-identity holds trivially.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

from ..compiler.schedule import (
    ScheduleError,
    SteadySchedule,
    StreamEvaluator,
    analyze_schedule,
)
from ..errors import SimulationError
from ..graph.cell import Cell
from ..machine.machine import Machine

#: fewer periods than this are not worth a jump's bookkeeping
_MIN_JUMP = 8
#: anchor firings examined before period detection gives up, keeping
#: never-periodic runs within a constant factor of plain event cost
_CALIBRATION_BUDGET = 4096
#: event kinds a clean (fault-free, checkpoint-free) run can have in
#: flight, with the argument positions that carry data values
_TICKERS = ("watchdog_tick", "checkpoint_tick")
#: an armed run's ``fallback_reason`` until its detector finds a period
_NO_PERIOD = "no recurring machine state before the streams ran out"


def _values_equal(a: list, b: list) -> bool:
    """Elementwise equality where NaN matches NaN (both engines produce
    the identical NaN through the identical operation sequence)."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x == y or (x != x and y != y):
            continue
        return False
    return True


class TurboMachine(Machine):
    """The event machine plus steady-state period detection and
    fast-forward.  Constructed exactly like :class:`Machine`; after
    :meth:`run`, :attr:`schedule` reports what the detector did and
    :meth:`finalize_values` must be called before reading outputs."""

    def __init__(self, graph, **kwargs) -> None:
        super().__init__(graph, **kwargs)
        self.schedule = SteadySchedule()
        self._cid_list = sorted(self.graph.cells)
        self._cid_index = {c: i for i, c in enumerate(self._cid_list)}
        self._sink_cids = sorted(self.sink_times)
        self._occ: dict[Any, list[tuple]] = {}
        self._anchor_fires = 0
        self._jumped = False
        self._eval_values: Optional[dict[int, list[Any]]] = None
        self._max_cycles_cap: Optional[int] = None
        analysis = analyze_schedule(self.graph, self.inputs)
        # any machinery with observable side effects during the skipped
        # window (fault injection, snapshots, event traces, the
        # retransmission layer) makes a jump unsound -- run concretely
        self._armed = (
            analysis.replayable
            and self.injector is None
            and self.ckpt is None
            and self.trace is None
            and not self._reliable
        )
        if not self._armed:
            self.schedule.fallback_reason = analysis.reason or (
                "fault injection, checkpointing, tracing or the "
                "reliability layer is active"
            )
            self._anchor = None
            self._src_cids: list[int] = []
            self._controls: list[tuple[int, list[bool]]] = []
            return
        self._anchor = analysis.anchor
        self.schedule.anchor = analysis.anchor
        self.schedule.fallback_reason = _NO_PERIOD
        self._src_cids = sorted(analysis.source_cids)
        #: (consumer cell id, boolean control sequence) per control arc
        self._controls = [
            (
                ca.dst,
                [
                    bool(v)
                    for v in self._source_seq(self.graph.cells[ca.source])
                ],
            )
            for ca in analysis.control_arcs
        ]

    # ------------------------------------------------------------------
    # hooks into the event machine
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 50_000_000, **kwargs):
        self._max_cycles_cap = max_cycles
        return super().run(max_cycles=max_cycles, **kwargs)

    def _fire(self, cell: Cell) -> None:
        if self._armed and cell.cid == self._anchor:
            self._on_anchor()
        super()._fire(cell)

    # ------------------------------------------------------------------
    # period detection
    # ------------------------------------------------------------------
    def _disarm(self, reason: str) -> None:
        self._armed = False
        self._occ.clear()
        if not self.schedule.jumps:
            self.schedule.fallback_reason = reason

    def _on_anchor(self) -> None:
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
        T = self.now
        cells = []
        for cid in self._cid_list:
            st = self.cell_state[cid]
            cells.append(
                (tuple(sorted(st.operands)), st.acks_pending, st.queued)
            )
        heap = []
        for t, _seq, kind, args, _aux in sorted(self._events):
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
            tuple(tuple(q) for q in self._pe_queues),
            tuple(self._dispatch_pending),
            tuple(max(0, u.next_free - T) for u in self.pes),
            tuple(max(0, u.next_free - T) for u in self.fus),
            tuple(max(0, u.next_free - T) for u in self.ams),
            max(0, self._rn_next_free - T),
            self._fu_rr,
            self._am_rr,
        )

    def _snapshot(self) -> tuple:
        """Every additive counter plus stream cursors, for window-delta
        scaling.  Index layout is relied on by ``_maybe_jump`` /
        ``_apply_jump``: 0 anchor-fires, 1 clock, 2 packets, 3/4 PE
        busy/ops, 5/6 FU, 7/8 AM, 9 fire counts, 10 progress, 11 sink
        lengths, 12 source positions."""
        pk = self.packets
        return (
            self._anchor_fires,
            self.now,
            (pk.op_local, pk.op_fu, pk.op_am, pk.results, pk.acks),
            tuple(u.busy_cycles for u in self.pes),
            tuple(u.ops for u in self.pes),
            tuple(u.busy_cycles for u in self.fus),
            tuple(u.ops for u in self.fus),
            tuple(u.busy_cycles for u in self.ams),
            tuple(u.ops for u in self.ams),
            tuple(
                self.cell_state[c].fire_count for c in self._cid_list
            ),
            self._progress,
            tuple(len(self.sink_times[c]) for c in self._sink_cids),
            tuple(
                self.cell_state[c].source_pos for c in self._src_cids
            ),
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
                    f"cycle {self.now} with {max(J, 0)} replayable "
                    f"periods left; a jump takes {_MIN_JUMP}"
                )
            return
        if not self._values_ready():
            return              # evaluator refused; detector disarmed
        self._apply_jump(s2, s3, r, dt, J)

    def _max_jump(self, s2: tuple, s3: tuple, dt: int) -> int:
        """Largest period count the current state provably replays."""
        J = 1 << 60
        # no source may exhaust mid-replay (the drain runs concretely)
        for i, cid in enumerate(self._src_cids):
            dpos = s3[12][i] - s2[12][i]
            if dpos <= 0:
                continue
            remaining = (
                len(self._source_seq(self.graph.cells[cid]))
                - 1
                - s3[12][i]
            )
            J = min(J, remaining // dpos)
        # every control sequence must repeat with the period over the
        # whole replay span; the margin covers control tokens already
        # in flight (bounded by two per cell of the delivery chain)
        margin = 2 * len(self._cid_list) + 8
        for dst, trace in self._controls:
            di = self._cid_index[dst]
            w = s3[9][di] - s2[9][di]
            if w <= 0:
                continue
            b = s3[9][di]
            lim = len(trace)
            i = b
            while i < lim and trace[i] == trace[i - w]:
                i += 1
            J = min(J, ((i - b) - margin) // w)
        # a run the event machine would time out must still time out at
        # the same cycle, so never jump past the budget
        if self._max_cycles_cap is not None:
            J = min(J, (self._max_cycles_cap - self.now) // dt)
        return J

    def _values_ready(self) -> bool:
        """Run the stream evaluator (once) and cross-check it against
        every value the machine has computed so far; jumps are only
        taken when the two engines agree bit for bit on the prefix."""
        if self._eval_values is not None:
            return True
        try:
            values = StreamEvaluator(self.graph, self.inputs).run()
        except ScheduleError as exc:
            self._disarm(f"stream evaluation failed: {exc}")
            return False
        for cid in self._sink_cids:
            got = self.sink_values[cid]
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
        T = self.now
        S = J * dt
        # shift every pending event; watchdog ticks instead advance to
        # their next cadence point at or after the new clock (they are
        # scheduled absolutely and must stay on multiples of the
        # interval, exactly as in the un-jumped run)
        I = self._wd_interval
        shifted = []
        for t, seq, kind, args, aux in self._events:
            if kind in _TICKERS:
                if t < T + S:
                    t += ((T + S - t + I - 1) // I) * I
            else:
                t += S
            shifted.append((t, seq, kind, args, aux))
        heapq.heapify(shifted)
        self._events = shifted
        self.now = T + S
        for pool in (self.pes, self.fus, self.ams):
            for u in pool:
                u.next_free += S
        if self.config.rn_bandwidth:
            self._rn_next_free += S
        # replay J windows' worth of every additive counter
        pk = self.packets
        pk2, pk3 = s2[2], s3[2]
        pk.op_local += J * (pk3[0] - pk2[0])
        pk.op_fu += J * (pk3[1] - pk2[1])
        pk.op_am += J * (pk3[2] - pk2[2])
        pk.results += J * (pk3[3] - pk2[3])
        pk.acks += J * (pk3[4] - pk2[4])
        for pool, bi, oi in (
            (self.pes, 3, 4), (self.fus, 5, 6), (self.ams, 7, 8)
        ):
            for u, b2, b3, o2, o3 in zip(
                pool, s2[bi], s3[bi], s2[oi], s3[oi]
            ):
                u.busy_cycles += J * (b3 - b2)
                u.ops += J * (o3 - o2)
        for cid, f2, f3 in zip(self._cid_list, s2[9], s3[9]):
            self.cell_state[cid].fire_count += J * (f3 - f2)
        self._progress += J * (s3[10] - s2[10])
        for cid, p2, p3 in zip(self._src_cids, s2[12], s3[12]):
            self.cell_state[cid].source_pos += J * (p3 - p2)
        # sink arrivals: J shifted copies of the window's pattern, with
        # value placeholders finalize_values() replaces
        for cid, L2, L3 in zip(self._sink_cids, s2[11], s3[11]):
            times = self.sink_times[cid]
            window = times[L2:L3]
            for j in range(1, J + 1):
                off = j * dt
                times.extend(t + off for t in window)
            self.sink_values[cid].extend([None] * (J * len(window)))
        self._wd_last = -1
        self._wd_stalls = 0
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
    def finalize_values(self) -> None:
        """Replace post-jump placeholder sink values with the stream
        evaluator's results.  Must be called after :meth:`run`; a
        length mismatch means replay and evaluation diverged and is a
        loud internal error, never silent corruption."""
        if not self._jumped:
            return
        assert self._eval_values is not None
        for cid in self._sink_cids:
            vals = self.sink_values[cid]
            want = self._eval_values[cid]
            if len(want) != len(vals):
                raise SimulationError(
                    f"compiled backend internal error: sink cell {cid} "
                    f"timed {len(vals)} arrivals but evaluated "
                    f"{len(want)} values"
                )
            vals[:] = want


class CompiledBackend:
    """Steady-state schedule replay backend (``backend="compiled"``).

    Bit-identical to ``backend="event"`` -- values, sink times, cycle
    counts and statistics -- while skipping almost all steady-state
    event processing on periodic workloads.  Rejects every option it
    cannot honor exactly (faults, checkpoints, sharding, reliability,
    tracing)."""

    name = "compiled"

    def execute(self, request) -> Any:
        from ..api import RunResult

        request.reject(
            self.name, "shards", "faults", "checkpoint", "shard_config",
        )
        machine = TurboMachine(
            request.graph,
            config=request.config,
            inputs=request.inputs,
            recovery=request.recovery,
            **request.options,
        )
        if request.workload_id is not None:
            machine.workload_id = request.workload_id
        stats = machine.run(max_cycles=request.max_cycles or 50_000_000)
        machine.finalize_values()
        return RunResult.from_engine(self.name, machine, stats)

"""Runtime fault injection driven by a :class:`FaultPlan`.

The :class:`FaultInjector` is consulted by the machine simulator once
per packet transmission (and per unit decision).  A packet's fate is
drawn from a seeded stream of its own arc and direction, so a plan
injects the same faults on every run of the same workload, and a
sharded run whose times are exact injects the single machine's.

Shard-level faults (``kill_shard`` / ``hang_shard`` / ``slow_shard``,
schema 2) are *not* handled here: they target the worker process, not
the modeled machine, so the sharded coordinator and worker transport
execute them and the self-healing layer (DESIGN.md section 10) repairs
the damage.  The injector only ever sees the packet- and unit-level
entries of a plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .plan import FaultPlan


@dataclass
class FaultStats:
    """What the injector actually did during one run."""

    results_dropped: int = 0
    results_duplicated: int = 0
    results_corrupted: int = 0
    acks_dropped: int = 0
    acks_duplicated: int = 0
    ops_lost_to_outage: int = 0
    units_evicted: int = 0
    cells_rerouted: int = 0

    @property
    def total_injected(self) -> int:
        return (
            self.results_dropped
            + self.results_duplicated
            + self.results_corrupted
            + self.acks_dropped
            + self.acks_duplicated
            + self.ops_lost_to_outage
        )

    def summary(self) -> str:
        return (
            f"faults injected: {self.results_dropped} results dropped, "
            f"{self.results_duplicated} duplicated, "
            f"{self.results_corrupted} corrupted; "
            f"{self.acks_dropped} acks dropped, "
            f"{self.acks_duplicated} duplicated; "
            f"{self.ops_lost_to_outage} ops lost to outages; "
            f"{self.units_evicted} units evicted, "
            f"{self.cells_rerouted} cells rerouted"
        )


@dataclass
class PacketFate:
    """What happens to one logical packet on the network.

    ``deliveries`` holds the values that actually arrive (0, 1 or 2
    copies); ``corrupted`` flags per-copy transit corruption so the
    receiver's checksum layer (when enabled) can discard them instead.
    """

    deliveries: list = field(default_factory=list)
    corrupted: list = field(default_factory=list)
    dropped: int = 0


class FaultInjector:
    """Stateful, deterministic fault source for one machine run.

    Every packet fate is drawn from one stream per arc and direction,
    ``random.Random(f"{seed}:{res|ack}:{aid}")``, seeded on first use:
    the producer draws an arc's result fates in its send order and the
    consumer its ack fates in its acknowledge order, a retransmission
    taking the stream's next draw.  Each fate takes a fixed number of
    draws (:data:`DRAWS`), so a stream's position is its count of
    fates: snapshots carry those counts, never a generator's state, and
    a loaded injector rebuilds a stream by seeding it and skipping.
    """

    #: draws per fate: a result's duplication roll, then a drop and a
    #: corruption roll per copy; an ack's duplication roll, then a drop
    #: roll per copy -- taken whether or not a probability is zero
    DRAWS = {"res": 5, "ack": 3}

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self._evicted: set[tuple[str, int]] = set()
        #: ``(direction, arc id)`` -> fates drawn from its stream
        self._cursors: dict[tuple[str, int], int] = {}
        #: the live streams; rebuilt from the cursors after a load
        self._streams: dict[tuple[str, int], Callable[[], float]] = {}

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        del state["_streams"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._streams = {}

    # ------------------------------------------------------------------
    # packet fates
    # ------------------------------------------------------------------
    def _draw(self, kind: str, aid: int) -> Callable[[], float]:
        """The ``random`` method of arc ``aid``'s ``kind`` stream,
        counting one more fate on its cursor."""
        key = (kind, aid)
        fates = self._cursors.get(key, 0)
        self._cursors[key] = fates + 1
        draw = self._streams.get(key)
        if draw is None:
            draw = random.Random(f"{self.plan.seed}:{kind}:{aid}").random
            for _ in range(fates * self.DRAWS[kind]):
                draw()
            self._streams[key] = draw
        return draw

    def result_fate(self, aid: int, value: Any) -> PacketFate:
        """Decide drop/duplication/corruption for one result packet on
        arc ``aid``."""
        draw = self._draw("res", aid)
        dup, drop, bad, drop2, bad2 = draw(), draw(), draw(), draw(), draw()
        plan, stats = self.plan, self.stats
        copies = [(drop, bad)]
        if dup < plan.dup_result:
            copies.append((drop2, bad2))
            stats.results_duplicated += 1
        fate = PacketFate()
        for drop, bad in copies:
            if drop < plan.drop_result:
                stats.results_dropped += 1
                fate.dropped += 1
                continue
            corrupted = bad < plan.corrupt_result
            if corrupted:
                stats.results_corrupted += 1
            fate.deliveries.append(
                self.corrupt_value(value) if corrupted else value
            )
            fate.corrupted.append(corrupted)
        return fate

    def ack_fate(self, aid: int) -> int:
        """Number of copies of one ack packet on arc ``aid`` that
        actually arrive."""
        draw = self._draw("ack", aid)
        dup, drop, drop2 = draw(), draw(), draw()
        plan, stats = self.plan, self.stats
        drops = [drop]
        if dup < plan.dup_ack:
            drops.append(drop2)
            stats.acks_duplicated += 1
        arriving = 0
        for drop in drops:
            if drop < plan.drop_ack:
                stats.acks_dropped += 1
            else:
                arriving += 1
        return arriving

    @staticmethod
    def corrupt_value(value: Any) -> Any:
        """A deterministic transient corruption of an in-flight value."""
        if isinstance(value, bool):
            return not value
        if isinstance(value, (int, float)):
            return value + 1.0
        return value

    # ------------------------------------------------------------------
    # unit-level faults
    # ------------------------------------------------------------------
    def note_eviction(self, unit: str, index: int) -> None:
        """Count the first time a dead unit is skipped by a scheduler."""
        if (unit, index) not in self._evicted:
            self._evicted.add((unit, index))
            self.stats.units_evicted += 1

    def note_reroute(self, n_cells: int = 1) -> None:
        self.stats.cells_rerouted += n_cells

    def note_op_lost(self) -> None:
        self.stats.ops_lost_to_outage += 1

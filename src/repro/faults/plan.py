"""Deterministic, seeded fault plans for the machine simulator.

A :class:`FaultPlan` describes *what goes wrong* during a run of
:class:`repro.machine.Machine`: packet-level faults on the routing and
distribution networks (result/acknowledge packet drops, duplications
and transient value corruption) and unit-level faults (slowdowns and
outages of function units, array memories and processing elements).

Plans are plain data: they can be serialized to/from JSON (the schema
used by ``python -m repro faults --plan plan.json``, documented in
DESIGN.md and checked by :mod:`repro.config`) and they are
**deterministic** -- the injector draws every random decision from
``random.Random(seed)`` in simulation-event order, so the same plan on
the same workload always injects the same faults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Iterable, Optional

from ..config import as_object, check, from_dict
from ..errors import ReproError


class FaultPlanError(ReproError):
    """Raised on malformed fault plans (bad probabilities, units...)."""


#: Version of the ``--plan`` JSON schema this build writes and reads.
#: Version 2 added worker-level ``shard_faults``; plans without them
#: are still written as version 1 so older readers keep working.
SCHEMA_VERSION = 2

#: Schema versions :meth:`FaultPlan.from_dict` accepts.
READABLE_SCHEMAS = (1, 2)

#: Unit kinds a :class:`UnitFault` can target.
UNIT_KINDS = ("fu", "am", "pe")

#: Fault kinds a :class:`UnitFault` can describe.
FAULT_KINDS = ("outage", "slow")

#: Fault kinds a :class:`ShardFault` can describe.
SHARD_FAULT_KINDS = ("kill", "hang", "slow")

#: accepted spellings for shard-fault kinds (the plan schema also
#: takes the explicit ``kill_shard``/``hang_shard``/``slow_shard``)
_SHARD_KIND_ALIASES = {
    "kill_shard": "kill",
    "hang_shard": "hang",
    "slow_shard": "slow",
}

#: bounds of a per-packet fault probability
_PROBABILITY = {"min": 0, "max": 1}


@dataclass(frozen=True)
class UnitFault:
    """One unit-level fault: an outage or a slowdown window.

    ``unit``
        ``"fu"``, ``"am"`` or ``"pe"``.
    ``index``
        Which unit of that kind (0-based).
    ``start`` / ``end``
        The cycle window during which the fault is active; ``end=None``
        means the fault persists to the end of the run.
    ``kind``
        ``"outage"`` -- the unit accepts no work (operation packets sent
        to it are lost); ``"slow"`` -- latencies (or the PE's issue
        interval) are multiplied by ``factor``.
    """

    _error = FaultPlanError

    unit: str = field(metadata={"choices": UNIT_KINDS})
    index: int = field(metadata={"min": 0})
    start: int = field(default=0, metadata={"min": 0})
    end: Optional[int] = None
    kind: str = field(default="outage", metadata={"choices": FAULT_KINDS})
    factor: float = 4.0

    def __post_init__(self) -> None:
        check(self)
        if self.end is not None and self.end <= self.start:
            raise FaultPlanError(
                f"fault window [{self.start},{self.end}) is empty"
            )
        if self.kind == "slow" and self.factor <= 1.0:
            raise FaultPlanError(
                f"slowdown factor must be > 1, got {self.factor}"
            )

    def active(self, t: int) -> bool:
        """Whether this fault is active at cycle ``t``."""
        return t >= self.start and (self.end is None or t < self.end)


@dataclass(frozen=True)
class ShardFault:
    """One worker-level fault on a sharded run.

    ``shard``
        Which shard worker (0-based) the fault targets.
    ``cycle``
        The fault fires at the first lockstep barrier whose horizon
        reaches this simulated cycle.  Firing is one-shot: after a
        rollback the coordinator does not re-arm the fault, so replay
        converges.
    ``kind``
        ``"kill"`` -- the worker dies with ``os._exit(137)`` (a
        SIGKILL stand-in) before touching its machine; ``"hang"`` --
        the worker stops responding forever (detected by the reply
        deadline); ``"slow"`` -- the worker sleeps ``delay`` seconds
        before handling the command (crosses the detection threshold
        only when ``delay`` exceeds the policy deadline).
    """

    _error = FaultPlanError

    shard: int = field(metadata={"min": 0})
    cycle: int = field(metadata={"min": 0})
    kind: str = field(default="kill", metadata={
        "choices": SHARD_FAULT_KINDS + tuple(_SHARD_KIND_ALIASES)})
    delay: float = 1.0

    def __post_init__(self) -> None:
        check(self)
        object.__setattr__(
            self, "kind", _SHARD_KIND_ALIASES.get(self.kind, self.kind)
        )
        if self.kind == "slow" and self.delay <= 0:
            raise FaultPlanError(
                f"slow-shard delay must be > 0 seconds, got {self.delay}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded description of every fault injected into one run.

    Packet probabilities are per *packet copy* traversing a network:

    ``drop_result`` / ``dup_result`` / ``corrupt_result``
        Result packets (FU/AM/PE output values travelling the
        distribution network to their destination cells).
    ``drop_ack`` / ``dup_ack``
        Acknowledge packets (consumers releasing producers).
    ``unit_faults``
        Unit outage/slowdown windows (:class:`UnitFault`).
    ``shard_faults``
        Worker-level faults (:class:`ShardFault`): kill, hang or slow
        one shard worker of a sharded run at a given cycle.  Consumed
        by the :class:`~repro.machine.sharded.ShardedRunner`
        coordinator (the injector never sees them) and only honored
        over real worker processes.
    ``derivation``
        How the injector draws packet fates.  ``"sequence"`` (default)
        draws from one ``random.Random(seed)`` stream in
        simulation-event order; ``"keyed"`` derives each fate from a
        per-packet key ``(kind, arc, seq, cycle)`` hashed with the
        seed, so the fate of a given packet copy does not depend on
        the global order of unrelated draws.  Keyed derivation is what
        lets the sharded backend inject the *same* faults as a
        single-process run even though each shard draws independently.
    """

    _error = FaultPlanError

    seed: int = 0
    drop_result: float = field(default=0.0, metadata=_PROBABILITY)
    dup_result: float = field(default=0.0, metadata=_PROBABILITY)
    corrupt_result: float = field(default=0.0, metadata=_PROBABILITY)
    drop_ack: float = field(default=0.0, metadata=_PROBABILITY)
    dup_ack: float = field(default=0.0, metadata=_PROBABILITY)
    unit_faults: tuple = field(default_factory=tuple)
    derivation: str = field(
        default="sequence", metadata={"choices": ("sequence", "keyed")}
    )
    shard_faults: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # fault entries may arrive as JSON objects, in a list
        for name, kind, what in (("unit_faults", UnitFault, "unit-fault"),
                                 ("shard_faults", ShardFault, "shard-fault")):
            faults = getattr(self, name)
            if isinstance(faults, (list, tuple)):
                object.__setattr__(self, name, tuple(
                    f if isinstance(f, kind) else from_dict(kind, f, what)
                    for f in faults
                ))
        check(self)

    def __setstate__(self, state: dict[str, Any]) -> None:
        # plans pickled inside snapshots written by older builds
        # predate shard_faults; backfill so they resume cleanly
        state.setdefault("shard_faults", ())
        for key, value in state.items():
            object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # queries used by the machine
    # ------------------------------------------------------------------
    @property
    def has_shard_faults(self) -> bool:
        return bool(self.shard_faults)

    @property
    def has_execution_faults(self) -> bool:
        """Whether anything remains once worker-level faults are split
        off -- i.e. the plan still perturbs the simulation itself."""
        return self.has_packet_faults or bool(self.unit_faults)

    def without_shard_faults(self) -> "FaultPlan":
        """A copy with the worker-level faults stripped.

        Layers that consume ``shard_faults`` themselves (the sharded
        coordinator, the serve worker pool -- which maps ``shard`` to a
        job's *attempt* index) use this to forward only the packet/unit
        remainder into the actual execution.
        """
        if not self.shard_faults:
            return self
        return replace(self, shard_faults=())

    @property
    def has_packet_faults(self) -> bool:
        return any(
            (
                self.drop_result,
                self.dup_result,
                self.corrupt_result,
                self.drop_ack,
                self.dup_ack,
            )
        )

    def faults_for(self, unit: str, index: int) -> Iterable[UnitFault]:
        return (
            f for f in self.unit_faults
            if f.unit == unit and f.index == index
        )

    def is_dead(self, unit: str, index: int, t: int) -> bool:
        """Whether unit ``index`` of kind ``unit`` is out at cycle ``t``."""
        return any(
            f.kind == "outage" and f.active(t)
            for f in self.faults_for(unit, index)
        )

    def slow_factor(self, unit: str, index: int, t: int) -> float:
        """Combined slowdown multiplier for a unit at cycle ``t``."""
        factor = 1.0
        for f in self.faults_for(unit, index):
            if f.kind == "slow" and f.active(t):
                factor *= f.factor
        return factor

    # ------------------------------------------------------------------
    # serialization (the --plan JSON schema)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        # plans without shard faults stay on schema 1 so builds that
        # predate worker-level faults keep reading them
        d["schema"] = SCHEMA_VERSION if self.shard_faults else 1
        d["unit_faults"] = [asdict(f) for f in self.unit_faults]
        d["shard_faults"] = [asdict(f) for f in self.shard_faults]
        if not self.shard_faults:
            del d["shard_faults"]
        return d

    @classmethod
    def from_dict(cls, data: Any) -> "FaultPlan":
        """Read the ``--plan`` schema from a JSON object or its text."""
        data = dict(as_object(data, "fault-plan", FaultPlanError))
        # schema-less plans predate versioning and read as version 1
        schema = data.pop("schema", 1)
        if schema not in READABLE_SCHEMAS:
            raise FaultPlanError(
                f"fault-plan schema version {schema!r} is not supported; "
                f"this build reads versions {READABLE_SCHEMAS}"
            )
        return from_dict(cls, data, "fault-plan")

    from_json = from_dict

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        if self.derivation != "sequence":
            parts.append(f"derivation={self.derivation}")
        for name in ("drop_result", "dup_result", "corrupt_result",
                     "drop_ack", "dup_ack"):
            p = getattr(self, name)
            if p:
                parts.append(f"{name}={p:g}")
        for f in self.unit_faults:
            window = f"[{f.start},{'inf' if f.end is None else f.end})"
            detail = "" if f.kind == "outage" else f" x{f.factor:g}"
            parts.append(f"{f.unit}{f.index} {f.kind}{detail} {window}")
        for f in self.shard_faults:
            detail = f" {f.delay:g}s" if f.kind == "slow" else ""
            parts.append(f"shard{f.shard} {f.kind}{detail} @{f.cycle}")
        return "FaultPlan(" + ", ".join(parts) + ")"

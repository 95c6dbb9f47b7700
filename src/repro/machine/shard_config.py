"""Validated configuration objects for the sharded backend.

One :class:`ShardConfig` dataclass holds everything a caller may set
on a sharded run -- the facade, the CLI and
:class:`~repro.machine.sharded.ShardedRunner` all take it and nothing
else: the shard count, the partition scheme, whether shards are real
worker processes, and a nested :class:`RecoveryPolicy` (the
self-healing knobs plus an ``enabled`` switch, "auto / force on /
force off").  How cut packets travel, how long a lockstep window is
and whether workers stay warm are not settable: the runner has one
transport, derives the window rule from the
:class:`~repro.machine.MachineConfig` and always pools.

``ShardConfig.from_json`` accepts the CLI's ``--shard-config`` JSON
document; every value is type-checked, so a mistyped document fails
with a :class:`~repro.errors.SimulationError` naming the key.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Optional,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from ..errors import SimulationError

__all__ = [
    "RecoveryPolicy",
    "ShardConfig",
]


def _check_field_types(obj: Any, prefix: str = "") -> None:
    """Raise unless every dataclass field of ``obj`` holds a value of
    its annotated type (``Optional`` admits None, ``float`` admits
    int, and a bool is never a number).  Fields annotated with
    something that is not a plain class (the ``sleep`` hook) are
    skipped."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        hint = hints[f.name]
        options = get_args(hint) if get_origin(hint) is Union else (hint,)
        allowed = tuple(t for t in options if isinstance(t, type))
        if not allowed:
            continue
        if float in allowed:
            allowed += (int,)
        value = getattr(obj, f.name)
        if not isinstance(value, allowed) or (
            isinstance(value, bool) and bool not in allowed
        ):
            names = " or ".join(
                "None" if t is type(None) else t.__name__ for t in allowed
            )
            raise SimulationError(
                f"{prefix}{f.name} must be {names}, got {value!r}"
            )


@dataclass
class RecoveryPolicy:
    """Knobs of the in-process self-healing loop.

    Mirrors the supervisor's escalation policy one level down: per
    shard restart budgets, exponential backoff with seeded jitter, and
    two-strike same-window step-back -- but rollback happens inside
    the running coordinator, from the latest complete coordinated set,
    without tearing the process tree down.
    """

    #: seconds a worker may take to answer one command before it
    #: counts as hung
    deadline: float = 60.0
    #: respawns allowed per shard before escalating
    max_restarts: int = 3
    #: delay before each respawn: a :class:`repro.workers.BackoffPolicy`
    #: with these four values, drawn from an RNG seeded with ``seed``
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    #: failures inside the same replay window before the resume set is
    #: barred and recovery steps back one set (supervisor parity)
    strikes: int = 2
    #: on budget exhaustion, fold the shard into the coordinator
    #: process (K-1 worker processes) instead of raising
    degrade: bool = False
    #: injectable for tests; the backoff delays go through this
    sleep: Callable[[float], None] = time.sleep
    #: ``None`` heals whenever the run has worker processes *and*
    #: coordinated checkpoints; ``True`` / ``False`` force it
    enabled: Optional[bool] = None

    def validate(self) -> None:
        _check_field_types(self, "recovery.")
        if self.deadline <= 0:
            raise SimulationError(
                f"recovery.deadline must be > 0, got {self.deadline}"
            )
        if self.max_restarts < 0:
            raise SimulationError(
                "recovery.max_restarts must be >= 0, "
                f"got {self.max_restarts}"
            )
        if self.strikes < 1:
            raise SimulationError(
                f"recovery.strikes must be >= 1, got {self.strikes}"
            )


_PARTITION_SCHEMES = ("auto", "levels", "round_robin")


@dataclass
class ShardConfig:
    """Everything the sharded backend needs, in one validated object.

    Construct directly, from a dict, or from the CLI's
    ``--shard-config`` JSON via :meth:`from_json`.
    """

    #: number of shards (K)
    shards: int = 2
    #: partition scheme name, as accepted by
    #: :func:`repro.analysis.partition.partition_graph`
    partition: str = "auto"
    #: real worker processes?  None = auto (processes iff K > 1)
    processes: Optional[bool] = None
    #: self-healing policy; None = runner's auto rule
    recovery: Optional[RecoveryPolicy] = None

    def validate(self) -> "ShardConfig":
        _check_field_types(self)
        if self.shards < 1:
            raise SimulationError(
                f"shard count must be >= 1, got {self.shards}"
            )
        if self.partition not in _PARTITION_SCHEMES:
            raise SimulationError(
                f"partition must be one of {_PARTITION_SCHEMES}, "
                f"got {self.partition!r}"
            )
        if self.recovery is not None:
            self.recovery.validate()
        return self

    @classmethod
    def from_json(cls, doc: Union[str, dict]) -> "ShardConfig":
        """Build from a JSON document / dict; unknown keys are errors
        so a typoed knob never silently does nothing."""
        if isinstance(doc, str):
            doc = _json_object(doc)
        if not isinstance(doc, dict):
            raise SimulationError(
                "shard config must be a ShardConfig, a JSON object or "
                f"its text, got {type(doc).__name__}"
            )
        doc = dict(doc)
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise SimulationError(
                f"unknown shard config keys: {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        if "recovery" in doc:
            doc["recovery"] = _coerce_recovery(doc["recovery"])
        return cls(**doc).validate()

    @classmethod
    def coerce(
        cls,
        value: Union[None, "ShardConfig", dict, str],
        shards: Optional[int] = None,
    ) -> Optional["ShardConfig"]:
        """Accept a ShardConfig, a dict, or a JSON string (None stays
        None unless ``shards`` is given).

        ``shards`` is a count the caller was given separately (the
        facade's ``shards=``, the CLI's ``--shards``): it fills in when
        ``value`` names none, and must agree when it does (a
        ShardConfig object always names one)."""
        if value is None and shards is None:
            return None
        if isinstance(value, str):
            value = _json_object(value)
        if shards is not None and (value is None or isinstance(value, dict)):
            value = {"shards": shards, **(value or {})}
        if not isinstance(value, cls):
            value = cls.from_json(value)
        if shards is not None and shards != value.shards:
            raise SimulationError(
                f"shards={shards} disagrees with the shard config's "
                f"shards={value.shards}; give the count once"
            )
        return value.validate()


def _json_object(doc: str) -> Any:
    try:
        return json.loads(doc)
    except json.JSONDecodeError as exc:
        raise SimulationError(
            f"invalid --shard-config JSON: {exc}"
        ) from None


def _coerce_recovery(
    value: Union[None, bool, dict, RecoveryPolicy],
) -> Optional[RecoveryPolicy]:
    """The ``recovery`` forms a ``--shard-config`` document accepts."""
    if value is None or isinstance(value, RecoveryPolicy):
        return value
    if isinstance(value, bool):
        return RecoveryPolicy(enabled=value)
    if isinstance(value, dict):
        known = {f.name for f in fields(RecoveryPolicy)} - {"sleep"}
        bad = set(value) - known
        if bad:
            raise SimulationError(
                f"unknown recovery keys: {sorted(bad)}"
            )
        return RecoveryPolicy(**value)
    raise SimulationError(
        "recovery must be a RecoveryPolicy, bool, dict or None, "
        f"got {type(value).__name__}"
    )

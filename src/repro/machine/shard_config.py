"""Validated configuration objects for the sharded backend.

One :class:`ShardConfig` dataclass holds everything a caller may set
on a sharded run -- the facade, the CLI and
:class:`~repro.machine.shard_runner.ShardedRunner` all take it and nothing
else: the shard count, the partition scheme, whether shards are real
worker processes, and a nested :class:`RecoveryPolicy` (the
self-healing knobs plus an ``enabled`` switch, "auto / force on /
force off").  How cut packets travel, how long a lockstep window is
and whether workers stay warm are not settable: the runner has one
transport, derives the window rule from the
:class:`~repro.machine.MachineConfig` and always pools.

``ShardConfig.from_json`` accepts the CLI's ``--shard-config`` JSON
document (``recovery`` may be a bool, short for ``{"enabled": ...}``);
:mod:`repro.config` checks it, so a mistyped document fails with a
:class:`~repro.errors.SimulationError` naming the key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..config import as_object, check, from_dict
from ..errors import SimulationError
from ..workers import BackoffPolicy

__all__ = [
    "RecoveryPolicy",
    "ShardConfig",
]


@dataclass
class RecoveryPolicy:
    """Knobs of the in-process self-healing loop.

    Mirrors the supervisor's escalation policy one level down: per
    shard restart budgets, exponential backoff with seeded jitter, and
    two-strike same-window step-back -- but rollback happens inside
    the running coordinator, from the latest complete coordinated set,
    without tearing the process tree down.
    """

    _error = SimulationError

    #: seconds a worker may take to answer one command before it
    #: counts as hung
    deadline: float = field(default=60.0, metadata={"gt": 0})
    #: respawns allowed per shard before escalating
    max_restarts: int = field(default=3, metadata={"min": 0})
    #: delay before each respawn, its jitter drawn from an RNG seeded
    #: with ``seed``
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(base=0.1, max_delay=2.0)
    )
    seed: int = 0
    #: injectable for tests; the backoff delays go through this
    sleep: Callable[[float], None] = time.sleep
    #: ``None`` heals whenever the run has worker processes *and*
    #: coordinated checkpoints; ``True`` / ``False`` force it
    enabled: Optional[bool] = None

    def __post_init__(self) -> None:
        check(self, "recovery.")


_PARTITION_SCHEMES = ("auto", "round_robin")


@dataclass
class ShardConfig:
    """Everything the sharded backend needs, in one validated object.

    Construct directly, from a dict, or from the CLI's
    ``--shard-config`` JSON via :meth:`from_json`.
    """

    _error = SimulationError

    #: number of shards (K)
    shards: int = field(default=2, metadata={"min": 1})
    #: partition scheme name, as accepted by
    #: :func:`repro.analysis.partition.partition_graph`
    partition: str = field(
        default="auto", metadata={"choices": _PARTITION_SCHEMES}
    )
    #: real worker processes?  None = auto (processes iff K > 1)
    processes: Optional[bool] = None
    #: self-healing policy; None = runner's auto rule
    recovery: Optional[RecoveryPolicy] = None

    def validate(self) -> "ShardConfig":
        """Check the config (again: it is mutable) and return it."""
        if isinstance(self.recovery, bool):
            self.recovery = RecoveryPolicy(enabled=self.recovery)
        check(self)
        return self

    __post_init__ = validate

    @classmethod
    def from_json(cls, doc: Union[str, dict]) -> "ShardConfig":
        """Build from a JSON document or its text; unknown keys are
        errors so a typoed knob never silently does nothing."""
        doc = as_object(doc, "shard config", SimulationError)
        return from_dict(cls, doc, "shard config")

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
            value = as_object(value, "shard config", SimulationError)
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

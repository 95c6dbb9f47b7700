"""The one stats shape: counter dataclasses with host-timing series.

Every stats object -- :mod:`repro.machine.stats` for a run,
:mod:`repro.serve.stats` for the service -- is a dataclass of plain
counter fields plus :class:`Samples` series, turned into its JSON view
by :func:`fields_dict`.  Both layers import it from here, so neither
loads the other.
"""

from __future__ import annotations

import math
import random
from dataclasses import fields
from typing import Any, Iterator

#: bound on the values one :class:`Samples` series retains
SAMPLE_CAP = 512


class Samples:
    """A host-timing series in seconds: the count and total of every
    value, plus a uniform reservoir of at most :data:`SAMPLE_CAP` of
    them (Vitter's algorithm R, seeded, so a deterministic sequence
    keeps a deterministic sample).

    Host timings measure one process, never the modeled machine, so no
    snapshot carries a ``Samples``: a pickled stats object leaves it
    out of its state.
    """

    __slots__ = ("count", "total", "_kept", "_rng")

    def __init__(self, seed: int = 0) -> None:
        self.count = 0
        self.total = 0.0
        self._kept: list[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self._kept) < SAMPLE_CAP:
            self._kept.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < SAMPLE_CAP:
            self._kept[slot] = value

    def __len__(self) -> int:
        return len(self._kept)

    def __iter__(self) -> Iterator[float]:
        return iter(self._kept)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the retained values, ``q`` in
        (0, 1]; NaN when empty."""
        if not self._kept:
            return math.nan
        ordered = sorted(self._kept)
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(q * len(ordered)) - 1))
        return ordered[rank]

    def to_dict(self, prefix: str) -> dict[str, Any]:
        """``<prefix>_samples``, ``_p50`` and ``_p99`` (None when empty)."""
        out: dict[str, Any] = {f"{prefix}_samples": self.count}
        for name, q in (("p50", 0.50), ("p99", 0.99)):
            value = self.percentile(q)
            out[f"{prefix}_{name}"] = (
                None if math.isnan(value) else round(value, 6)
            )
        return out


def fields_dict(stats) -> dict[str, Any]:
    """The JSON view of a stats dataclass, built from its fields: a
    :class:`Samples` field ``x`` becomes ``x_samples`` / ``x_p50`` /
    ``x_p99`` and a list is copied."""
    out: dict[str, Any] = {}
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, Samples):
            out.update(value.to_dict(f.name))
        else:
            out[f.name] = list(value) if isinstance(value, list) else value
    return out

"""Packet accounting of the packet-communication architecture (Section 2).

The machine counts two packet kinds flowing through the routing
networks, plus the acknowledge packets that implement the
single-token-per-arc discipline:

* **operation packets** -- an enabled instruction plus its operand
  values, sent from a processing element to a function unit or array
  memory (local moves/gates execute inside the PE);
* **result packets** -- a value plus the destination instruction's
  address;
* **acknowledge packets** -- a consumer telling a producer that its
  previous result has been absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class UnitClass(Enum):
    """Where an operation packet executes."""

    LOCAL = "pe"
    FUNCTION_UNIT = "fu"
    ARRAY_MEMORY = "am"


@dataclass
class PacketCounters:
    """Counts by packet kind, for the Section 2 traffic claim."""

    op_local: int = 0
    op_fu: int = 0
    op_am: int = 0
    results: int = 0
    acks: int = 0

    @property
    def op_total(self) -> int:
        return self.op_local + self.op_fu + self.op_am

    @property
    def am_fraction(self) -> float:
        """Fraction of operation packets sent to array memories."""
        return self.op_am / self.op_total if self.op_total else 0.0

    def summary(self) -> str:
        return (
            f"op packets: {self.op_total} "
            f"(local {self.op_local}, FU {self.op_fu}, AM {self.op_am}; "
            f"AM fraction {self.am_fraction:.1%}); "
            f"results {self.results}, acks {self.acks}"
        )


def classify_unit(op_name: str) -> UnitClass:
    """Destination unit class of an opcode (by name, to avoid import
    cycles with the graph package)."""
    from ..graph.opcodes import ARRAY_MEMORY_OPS, FUNCTION_UNIT_OPS, Op

    op = Op(op_name)
    if op in ARRAY_MEMORY_OPS:
        return UnitClass.ARRAY_MEMORY
    if op in FUNCTION_UNIT_OPS:
        return UnitClass.FUNCTION_UNIT
    return UnitClass.LOCAL


"""Configuration of the static dataflow machine model (Figure 1).

The machine is built from processing elements (PE) holding instruction
cells, pipelined function units (FU) for arithmetic, array memory units
(AM), and packet-switched routing networks (RN) carrying operation,
result and acknowledge packets.  All times are in machine cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import check
from ..errors import SimulationError
from ..graph.opcodes import Op

#: Default function-unit latencies per opcode (cycles), loosely modeled
#: on early-1980s pipelined floating-point units.
DEFAULT_FU_LATENCY: dict[Op, int] = {
    Op.ADD: 2,
    Op.SUB: 2,
    Op.MUL: 3,
    Op.DIV: 8,
    Op.NEG: 1,
    Op.ABS: 1,
    Op.MIN: 2,
    Op.MAX: 2,
    Op.LT: 1,
    Op.LE: 1,
    Op.GT: 1,
    Op.GE: 1,
    Op.EQ: 1,
    Op.NE: 1,
    Op.AND: 1,
    Op.OR: 1,
    Op.NOT: 1,
}


@dataclass
class MachineConfig:
    """Sizing and timing of one machine instance.

    The ``unit_time()`` preset reproduces the abstract "instruction
    time" model of the unit-delay simulator: every operation takes one
    cycle, packets are delivered in zero extra time, and dispatch is
    unlimited -- used by the fidelity cross-check tests.
    """

    _error = SimulationError

    n_pes: int = field(default=4, metadata={"min": 1})
    n_fus: int = field(default=4, metadata={"min": 0})
    n_ams: int = field(default=1, metadata={"min": 0})
    #: cycles for a packet to cross a routing network
    rn_delay: int = field(default=2, metadata={"min": 0})
    #: cycles a PE needs to dispatch one enabled instruction (its issue
    #: interval; 0 = unlimited dispatch bandwidth)
    pe_issue_interval: int = field(default=1, metadata={"min": 0})
    #: cycles to execute a local (ID/MERGE/gate) instruction in the PE
    local_latency: int = field(default=1, metadata={"min": 0})
    #: per-opcode FU latencies; FUs accept one operation per cycle
    fu_latency: dict[Op, int] = field(
        default_factory=lambda: dict(DEFAULT_FU_LATENCY),
        metadata={"min": 0},
    )
    #: array memory access latency
    am_latency: int = field(default=4, metadata={"min": 0})
    #: FU issue interval (pipelined FUs accept one op per cycle)
    fu_issue_interval: int = field(default=1, metadata={"min": 0})
    #: routing network bandwidth in packets/cycle (0 = unlimited)
    rn_bandwidth: int = field(default=0, metadata={"min": 0})

    # -- reliability layer (active when a FaultPlan is given) ----------
    #: cycles a producer waits for an acknowledge before retransmitting
    #: a result packet (0 = derive from the round-trip and unit
    #: latencies; see :meth:`retransmit_timeout_for`)
    retransmit_timeout: int = field(default=0, metadata={"min": 0})
    #: per-packet retransmission budget before the reliability layer
    #: gives up on a destination (0 = retry forever)
    max_retransmits: int = field(default=64, metadata={"min": 0})

    # -- progress watchdog ---------------------------------------------
    #: whether the stall watchdog runs (detects quiesced pipelines and
    #: livelocks long before ``max_cycles``)
    watchdog: bool = True
    #: cycles between watchdog progress checks (0 = derive from the
    #: retransmit timeout)
    watchdog_interval: int = field(default=0, metadata={"min": 0})
    #: consecutive no-progress checks before the watchdog declares a
    #: stall
    watchdog_patience: int = field(default=3, metadata={"min": 1})

    @staticmethod
    def unit_time() -> "MachineConfig":
        return MachineConfig(
            n_pes=1,
            n_fus=1,
            n_ams=1,
            rn_delay=0,
            pe_issue_interval=0,
            local_latency=1,
            fu_latency={op: 1 for op in DEFAULT_FU_LATENCY},
            am_latency=1,
            fu_issue_interval=0,
            rn_bandwidth=0,
        )

    def validate(self) -> "MachineConfig":
        """Raise :class:`SimulationError` naming the first field the
        machine could not honor (see :mod:`repro.config`).  Runs at
        construction and again before linking, as the config is
        mutable."""
        check(self)
        return self

    __post_init__ = validate

    def latency_of(self, op: Op) -> int:
        return self.fu_latency.get(op, 1)

    def retransmit_timeout_for(self) -> int:
        """The effective retransmission timeout in cycles.

        The automatic value covers a full round trip (result out, ack
        back) plus the worst unit latency and a dispatch slot, with a
        4x safety margin so a merely *slow* consumer does not trigger
        spurious retransmissions.
        """
        if self.retransmit_timeout:
            return self.retransmit_timeout
        round_trip = 2 * max(1, self.rn_delay)
        worst = max(
            max(self.fu_latency.values(), default=1),
            self.am_latency,
            self.local_latency,
        )
        return 4 * (round_trip + worst + max(1, self.pe_issue_interval))

    def watchdog_interval_for(self) -> int:
        """The effective watchdog check interval in cycles."""
        if self.watchdog_interval:
            return self.watchdog_interval
        return max(256, 8 * self.retransmit_timeout_for())

"""Experiment fidelity -- validating the cheap model against the
machine-level one (our substitution for the paper's hardware).

The rate arguments are made in abstract "instruction times"; the
event-driven machine model adds dispatch bandwidth, function-unit
latencies and routing delays.  Measured:

* unit-latency machine == unit-delay simulator (identical schedules up
  to one constant offset);
* realistic latencies stretch the cycle per "instruction time" but keep
  the *relative* Todd-vs-companion shape (who wins, by what factor);
* PE count sweep: dispatch bandwidth matters until the pipeline's
  parallelism is covered.
"""

import repro
from repro.compiler import compile_program
from repro.machine import MachineConfig
from repro.workloads import EXAMPLE1_SOURCE, EXAMPLE2_SOURCE

from _common import axis, constant_inputs, record_claim

M = 80
PES = [1, 2, 4, 8]


def test_fidelity():
    cp = compile_program(EXAMPLE1_SOURCE, params={"m": M})
    inputs = constant_inputs(cp)
    sync = repro.run(cp.graph, inputs, backend="sync")
    unit = repro.run(cp.graph, inputs, config=MachineConfig.unit_time())
    offsets = {m - s for s, m in zip(sync.sink_times["A"],
                                     unit.engine.sink_arrival_times("A"))}

    cycles = {}
    for scheme in ("todd", "companion"):
        cp2 = compile_program(
            EXAMPLE2_SOURCE, params={"m": M}, foriter_scheme=scheme
        )
        cycles[scheme] = repro.run(
            cp2.graph, constant_inputs(cp2, 0.5),
            config=MachineConfig(n_pes=8, n_fus=8),
        ).stats.cycles
    ratio = cycles["todd"] / cycles["companion"]

    pe_cycles = [
        repro.run(cp.graph, inputs,
                  config=MachineConfig(n_pes=n, n_fus=8)).stats.cycles
        for n in PES
    ]
    record_claim(
        "fidelity",
        "(substitution check) unit-latency machine model ≡ abstract "
        "instruction-time model; shape survives real FU/RN latencies; "
        "Example 1 PE sweep (m = 80)",
        "—",
        {"distinct schedule offsets, unit-time machine vs simulator":
             len(offsets),
         "Todd cycles": cycles["todd"],
         "companion cycles": cycles["companion"], "speedup": ratio,
         f"cycles on {axis(PES)} PEs": pe_cycles},
        unit.outputs["A"] == sync.outputs["A"]
        and len(offsets) == 1
        and ratio > 1.15  # the winner does not flip under real latencies
        and pe_cycles[-1] <= pe_cycles[0],
    )

"""Experiment traffic -- the Section 2 array-memory traffic claim.

"The array memories are used only for data that must be held for a long
time interval ... In the case of application codes we have analyzed,
one eighth or less of the operation packets would be sent to the array
memories."

The weather-like time-step program (four pipe-structured blocks; state
read from AM at the start of a step, written back at the end) is run on
the event-driven machine model and the operation-packet breakdown
recorded.  The anti-pattern ablation stores *every* inter-block array
in AM instead of streaming it, pushing the fraction far above 1/8.
"""

import repro
from repro.compiler.foriter import _mark_feedback
from repro.graph.opcodes import Op
from repro.machine import MachineConfig
from repro.workloads import (
    am_backed,
    compile_weather_step,
    initial_weather_state,
    run_timesteps,
    weather_state_map,
)

from _common import record_claim

M = 48


def _memory_centric_fraction(cp) -> float:
    """The conventional style the paper argues against: run each block
    separately, every block reading its inputs from AM and storing its
    result array back to AM."""
    produced = {"U": (0, initial_weather_state(M)["U"])}
    op_am = op_total = 0
    for name, art in cp.artifacts.items():
        g = art.graph.copy()
        _mark_feedback(g)
        for cell in g.cells.values():
            if cell.op is Op.SOURCE and "stream" in cell.params:
                cell.op = Op.AM_READ
            elif cell.op is Op.SINK:
                cell.op = Op.AM_WRITE
        inputs = {}
        for iname, spec in art.inputs.items():
            src_lo, values = produced[iname]
            start = spec.lo - src_lo
            inputs[iname] = values[start: start + spec.length]
        res = repro.run(g, inputs, config=MachineConfig())
        produced[name] = (art.out_lo, res.outputs[name])
        op_am += res.stats.packets.op_am
        op_total += res.stats.packets.op_total
    return op_am / op_total


def test_traffic():
    cp = compile_weather_step(M)
    _, steps = run_timesteps(
        cp, initial_weather_state(M), weather_state_map(), n_steps=2,
        config=MachineConfig(n_pes=8, n_fus=8, n_ams=2),
    )
    per_step = [s.packets.am_fraction for s in steps]
    streamed = repro.run(
        am_backed(cp), initial_weather_state(M), config=MachineConfig(),
    ).stats.packets.am_fraction
    memory_centric = _memory_centric_fraction(cp)
    record_claim(
        "traffic",
        "§2: arrays stream between blocks; \"one eighth or less of the "
        "operation packets would be sent to the array memories\"; "
        "weather-like 4-block time step vs a memory-centric ablation "
        "(every array through AM)",
        "≤ 12.5%",
        {"streamed: % of op packets to AM": round(100 * streamed, 1),
         "per time step": [round(100 * f, 1) for f in per_step],
         "memory-centric ablation": round(100 * memory_centric, 1)},
        streamed <= 1 / 8
        and all(f <= 1 / 8 for f in per_step)
        and all(s.packets.op_am > 0 for s in steps)
        and memory_centric > 2 * streamed,
    )

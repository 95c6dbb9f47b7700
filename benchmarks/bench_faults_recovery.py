"""Experiment faults -- pipeline robustness under injected faults.

The paper's machine keeps its pipelines full with acknowledge packets
and a single token per arc; this experiment measures what that
discipline costs when the networks misbehave.  Every paper-figure
workload runs under a seeded fault plan (result-packet drops,
duplications and corruption) with the reliability layer on; the run
must finish with outputs bit-identical to the fault-free run.  Then
fig2 sweeps the result-drop probability: more loss means more
retransmissions and more cycles, monotonically.
"""

import repro
from repro.faults import FaultPlan
from repro.workloads.figures import FIGURES

from _common import axis, record_claim

PLAN = FaultPlan(
    seed=99,
    drop_result=0.05,
    dup_result=0.05,
    corrupt_result=0.01,
    drop_ack=0.03,
)
DROPS = [0.0, 0.02, 0.05, 0.10, 0.20]
M = 40


def _compiled(figure):
    workload = FIGURES[figure]
    cp = workload.compile(m=M)
    return cp, workload.make_inputs(cp, seed=0)


def test_faults():
    figures = sorted(FIGURES)
    clean_cycles, faulty_cycles, ok = [], [], True
    for figure in figures:
        cp, inputs = _compiled(figure)
        clean = repro.run(cp.graph, inputs)
        faulty = repro.run(cp.graph, inputs, faults=PLAN)
        rel = faulty.stats.reliability
        ok = (ok and faulty.outputs == clean.outputs
              and rel.retransmissions > 0 and rel.duplicates_suppressed > 0)
        clean_cycles.append(clean.stats.cycles)
        faulty_cycles.append(faulty.stats.cycles)

    cp, inputs = _compiled("fig2")
    sweep = [repro.run(cp.graph, inputs,
                       faults=FaultPlan(seed=7, drop_result=p)).stats.cycles
             for p in DROPS]
    record_claim(
        "faults",
        "(robustness, not in paper) acknowledge discipline + reliability "
        f"layer under {PLAN.describe()}: outputs bit-identical to the "
        "fault-free run on every figure (m = 40); fig2 result-drop sweep",
        "(not in paper)",
        {f"clean cycles of {axis(figures)}": clean_cycles,
         "faulty cycles": faulty_cycles,
         f"fig2 cycles at drop p = {axis(DROPS)}": sweep},
        ok and sweep == sorted(sweep),
    )

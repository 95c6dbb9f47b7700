#!/usr/bin/env python3
"""Signal smoothing with the paper's Example 1 (a primitive forall).

The block computes, for a noisy signal C with fixed boundary values,

    A[i] = B[i] * P^2,   P = 0.25*(C[i-1] + 2 C[i] + C[i+1])  (interior)
           B[i] * C[i]^2                                      (boundary)

-- the paper's boundary-guarded three-point smoothing stencil.  The
example shows the compiled machine code (Figure 6's shape: window
selection gates with T/F control sequences, a merge combining the
boundary and interior rules, FIFO skew buffers), checks the result
against the reference interpreter, and measures full pipelining.

Run:  python examples/smoothing_filter.py
"""

import math
import random

from repro import compile_program, run_program, parse_program
from repro.analysis import static_traffic_estimate
from repro.graph import Op
from repro.sim import SyncSimulator, utilization_report
from repro.workloads import EXAMPLE1_SOURCE

M = 400


def noisy_signal(n: int, seed: int = 7) -> list[float]:
    rng = random.Random(seed)
    return [
        math.sin(2 * math.pi * k / 60) + rng.gauss(0, 0.15) for k in range(n)
    ]


def main() -> None:
    cp = compile_program(EXAMPLE1_SOURCE, params={"m": M})
    print(cp.describe())

    print("\ncontrol sequences in the compiled code (paper notation):")
    for cell in cp.graph.cells_by_op(Op.SOURCE):
        values = cell.params.get("values")
        if values is not None and all(isinstance(v, bool) for v in values):
            text = "".join("T" if v else "F" for v in values)
            if len(text) > 10:
                text = f"{text[:10]}..{text[-3:]}"
            print(f"  {cell.name:<20} <{text}>  ({len(values)} values)")

    signal = noisy_signal(M + 2)
    weights = [1.0] * (M + 2)
    sim = SyncSimulator(cp.graph, {"B": weights, "C": signal})
    sim.run()
    smoothed = sim.outputs()["A"]

    reference = run_program(
        parse_program(EXAMPLE1_SOURCE),
        inputs={"B": weights, "C": signal},
        params={"m": M},
    )["A"].to_list()
    max_err = max(abs(a - b) for a, b in zip(smoothed, reference))
    print(f"\nmatches the Val interpreter exactly: max error = {max_err:g}")

    rec = sim.sink_record("A")
    ii = rec.initiation_interval()
    print(f"initiation interval: {ii:.3f} (fully pipelined == 2.0)")

    print("\nbusiest cells (fires per 2 instruction times):")
    print(utilization_report(cp.graph, sim.stats, top=8))

    traffic = static_traffic_estimate(cp.graph)
    print(f"\nstatic traffic estimate: {traffic}")

    mid = M // 2
    print("\nsample (index: raw -> smoothed):")
    for k in range(mid, mid + 5):
        print(f"  {k:4d}: {signal[k]:+.4f} -> {smoothed[k]:+.4f}")


if __name__ == "__main__":
    main()

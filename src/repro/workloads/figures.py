"""The paper-figure workloads as ready-to-run machine programs.

Each figure of the paper maps to one canonical Val source plus the
compile options that reproduce that figure's graph:

========  ==========================================================
figure    program
========  ==========================================================
fig2      Section 3 pipelined expression (``(y+2.)*(y-3.)``)
fig4      array-selection subgraph of Example 1's interior rule
fig5      conditional primitive with a runtime control stream
fig6      Example 1's primitive forall under the pipeline scheme
fig7      Example 2's for-iter under Todd's translation
========  ==========================================================

Used by the fault-injection suite and the ``repro faults`` CLI, which
must demonstrate recovery on every paper-figure workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..errors import ReproError
from .programs import SOURCES

if TYPE_CHECKING:
    from ..compiler import CompiledProgram


@dataclass(frozen=True)
class FigureWorkload:
    """One figure's source and the options that reproduce its graph."""

    figure: str
    source_name: str
    compile_opts: dict[str, Any] = field(default_factory=dict)
    #: input streams that carry booleans instead of reals
    bool_inputs: tuple[str, ...] = ()

    def compile(self, m: int = 16) -> CompiledProgram:
        from ..compiler import compile_program

        return compile_program(
            SOURCES[self.source_name], params={"m": m}, **self.compile_opts
        )

    def make_inputs(
        self, program: CompiledProgram, seed: int = 0
    ) -> dict[str, list[Any]]:
        """Deterministic pseudo-random inputs matching the input specs."""
        rng = random.Random(seed)
        inputs: dict[str, list[Any]] = {}
        for name, spec in program.input_specs.items():
            if name in self.bool_inputs:
                inputs[name] = [
                    rng.random() < 0.5 for _ in range(spec.length)
                ]
            else:
                inputs[name] = [
                    rng.uniform(-1.0, 1.0) for _ in range(spec.length)
                ]
        return inputs


FIGURES: dict[str, FigureWorkload] = {
    "fig2": FigureWorkload("fig2", "fig2"),
    "fig4": FigureWorkload("fig4", "fig4"),
    "fig5": FigureWorkload("fig5", "fig5", bool_inputs=("C",)),
    "fig6": FigureWorkload(
        "fig6", "example1", compile_opts={"forall_scheme": "pipeline"}
    ),
    "fig7": FigureWorkload(
        "fig7", "example2", compile_opts={"foriter_scheme": "todd"}
    ),
}


def figure_workload(name: str) -> FigureWorkload:
    try:
        return FIGURES[name]
    except KeyError:
        raise ReproError(
            f"unknown figure workload {name!r}; choose from {sorted(FIGURES)}"
        ) from None

"""End-to-end compilation driver: Val source to runnable machine code.

:func:`compile_program` is the package's main entry point::

    from repro.compiler import compile_program

    cp = compile_program(source, params={"m": 100})
    result = cp.run({"B": [...], "C": [...]})
    result.outputs["A"]            # ValArray with the paper's semantics
    result.initiation_interval()   # 2.0 == fully pipelined

The pipeline is: parse -> type check -> classify -> per-block scheme
mapping (Sections 5-7) -> link the flow dependency graph (Section 8)
-> balance (optimal by default) -> validate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from ..api import RunResult, run as _run
from ..errors import CompileError
from ..graph.graph import DataflowGraph
from ..graph.validate import validate
from ..val.ast_nodes import Program
from ..val.parser import parse_program
from ..val.typecheck import check_program
from ..val.values import ValArray
from .balance import BalanceResult, balance_graph
from .expr import ArraySpec
from .forall import BlockArtifact
from .link import LinkedProgram, link_program


@dataclass
class ProgramResult:
    """Outputs of one program run, as Val arrays plus raw run data."""

    outputs: dict[str, ValArray]
    run: RunResult

    def initiation_interval(self, stream: Optional[str] = None) -> float:
        return self.run.initiation_interval(stream)

    def throughput(self, stream: Optional[str] = None) -> float:
        return self.run.throughput(stream)

    @property
    def stats(self):
        return self.run.stats


@dataclass
class CompiledProgram:
    """A compiled pipe-structured program ready to simulate."""

    graph: DataflowGraph
    program: Program
    params: dict[str, int]
    input_specs: dict[str, ArraySpec]
    output_specs: dict[str, tuple[int, int]]
    artifacts: dict[str, BlockArtifact]
    balance: Optional[BalanceResult] = None
    options: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def prepare_inputs(
        self, inputs: Mapping[str, Any]
    ) -> dict[str, list[Any]]:
        """Check and flatten user inputs against the inferred ranges.

        Accepts plain lists (assumed to start at the inferred lower
        bound), ``(lo, list)`` pairs, or :class:`ValArray` values.
        """
        streams: dict[str, list[Any]] = {}
        for name, spec in self.input_specs.items():
            if name not in inputs:
                raise CompileError(
                    f"missing input array {name!r} (range "
                    f"[{spec.lo},{spec.hi}])"
                )
            value = inputs[name]
            if isinstance(value, ValArray):
                arr = value
            elif (
                isinstance(value, tuple)
                and len(value) == 2
                and isinstance(value[1], (list, tuple))
            ):
                arr = ValArray(int(value[0]), tuple(value[1]))
            else:
                arr = ValArray(spec.lo, tuple(value))
            if arr.bounds != (spec.lo, spec.hi):
                raise CompileError(
                    f"input {name!r} covers [{arr.lo},{arr.hi}] but the "
                    f"program needs [{spec.lo},{spec.hi}]"
                )
            streams[name] = arr.to_list()
        extra = set(inputs) - set(streams)
        if extra:
            raise CompileError(f"unexpected inputs: {sorted(extra)}")
        return streams

    def run(
        self,
        inputs: Optional[Mapping[str, Any]] = None,
        max_steps: int = 10_000_000,
    ) -> ProgramResult:
        """Simulate on the unit-delay machine and collect the outputs."""
        rr = _run(self, inputs, backend="sync", max_cycles=max_steps)
        outputs = {}
        for name, (lo, _hi) in self.output_specs.items():
            outputs[name] = ValArray(lo, tuple(rr.outputs[name]))
        return ProgramResult(outputs=outputs, run=rr)

    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        return self.graph.cell_count(expanded=True)

    def to_dot(self) -> str:
        from ..graph.dot import to_dot

        return to_dot(self.graph)

    def describe(self) -> str:
        """Human-readable compilation report."""
        lines = [self.graph.summary()]
        for name, art in self.artifacts.items():
            loop = art.graph.meta.get("loop")
            extra = (
                f" loop(len={loop['length']}, tokens={loop['tokens']}, "
                f"rate<={loop['rate_bound']})"
                if loop
                else ""
            )
            lines.append(
                f"  block {name}: [{art.out_lo},{art.out_hi}] "
                f"{len(art.graph)} cells{extra}"
            )
        if self.balance is not None:
            lines.append(
                f"  balancing ({self.balance.method}): "
                f"{self.balance.inserted_stages} buffer stages in "
                f"{len(self.balance.fifo_cells)} FIFOs"
            )
        for name, spec in self.input_specs.items():
            lines.append(f"  input {name}: [{spec.lo},{spec.hi}]")
        return "\n".join(lines)


def compile_program(
    source: Union[str, Program],
    params: Optional[Mapping[str, int]] = None,
    *,
    forall_scheme: str = "pipeline",
    foriter_scheme: str = "auto",
    balance: str = "optimal",
    controls: str = "patterns",
    input_ranges: Optional[Mapping[str, tuple[int, int]]] = None,
    array_shapes: Optional[Mapping[str, tuple]] = None,
    keep_all_outputs: bool = False,
    typecheck: bool = True,
    **scheme_opts: Any,
) -> CompiledProgram:
    """Compile a pipe-structured Val program to machine code.

    Parameters
    ----------
    source:
        Val source text or an already-parsed :class:`Program`.
    params:
        Compile-time integer constants (the ``m`` of the examples).
    forall_scheme:
        ``'pipeline'`` (Figure 6) or ``'parallel'``.
    foriter_scheme:
        ``'auto'`` (companion when the recurrence is simple, Todd
        otherwise), ``'companion'``, ``'todd'`` or ``'interleaved'``.
    balance:
        ``'optimal'``, ``'reduce'``, ``'naive'`` or ``'none'``.
    controls:
        ``'patterns'`` emits control sequences as pattern sources;
        ``'dataflow'`` expands them into Todd-style self-clocked
        counter subgraphs so the program contains only ordinary machine
        instructions (the paper's [15]).
    input_ranges:
        Explicit ``{name: (lo, hi)}`` index ranges for external arrays,
        overriding the two-pass inference.
    array_shapes:
        2-D shapes ``{name: ((rlo, rhi), (clo, chi))}`` for inputs of
        multidimensional forall blocks (which are lowered to flattened
        1-D streams; see :mod:`repro.val.multidim`).
    scheme_opts:
        Extra scheme options: ``distance=`` for the companion G-tree,
        ``batch=`` for the interleaved scheme.
    """
    params = dict(params or {})
    program = parse_program(source) if isinstance(source, str) else source
    from ..val import ast_nodes as _A
    from ..val.multidim import lower_program

    if array_shapes is not None or any(
        isinstance(n, (_A.ForallND, _A.IndexND))
        for b in program.blocks
        for n in _A.walk(b.expr)
    ):
        program = lower_program(program, params, array_shapes)
    if typecheck:
        check_program(program, params=params)
    linked: LinkedProgram = link_program(
        program,
        params,
        forall_scheme=forall_scheme,
        foriter_scheme=foriter_scheme,
        input_ranges=input_ranges,
        keep_all_outputs=keep_all_outputs,
        **scheme_opts,
    )
    if controls == "dataflow":
        from .controls import expand_controls
        from .foriter import _mark_feedback

        expand_controls(linked.graph)
        _mark_feedback(linked.graph)  # the counters add 2-cell loops
    elif controls != "patterns":
        raise CompileError(f"unknown controls mode {controls!r}")
    bal: Optional[BalanceResult] = None
    if balance != "none":
        bal = balance_graph(linked.graph, method=balance)
    validate(linked.graph)
    return CompiledProgram(
        graph=linked.graph,
        program=program,
        params=params,
        input_specs=linked.input_specs,
        output_specs=linked.output_specs,
        artifacts=linked.artifacts,
        balance=bal,
        options={
            "forall_scheme": forall_scheme,
            "foriter_scheme": foriter_scheme,
            "balance": balance,
            **scheme_opts,
        },
    )

"""Pipelined mapping of primitive forall expressions (Section 6, Thm 2).

Two schemes, as in the paper:

* the **pipeline scheme** (the paper's focus, Figure 6): one copy of
  the body expression compiled as a pipelined primitive-expression
  graph, producing the constructed array as a stream of one element
  per two instruction times after balancing;
* the **parallel scheme**: a separate copy of the body per element,
  each fed by single-element window gates, re-serialized by a chain of
  merges.  Exposes more parallelism at much higher cell count and is
  provided for the scheme-comparison ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..errors import CompileError
from ..graph.graph import DataflowGraph
from ..graph.opcodes import (
    MERGE_CONTROL_PORT,
    MERGE_FALSE_PORT,
    MERGE_TRUE_PORT,
)
from ..val import ast_nodes as A
from ..val.classify import ForallInfo, classify_forall
from .context import ROOT, Filter, Seq, Split, Uniform, as_uniform
from .expr import ArraySpec, ExprBuilder, Wire


@dataclass
class BlockArtifact:
    """A compiled program block: its graph plus linking metadata."""

    name: str
    graph: DataflowGraph
    #: endpoint producing the output stream (cell id, arc tag)
    out_cell: int
    out_tag: Optional[bool]
    sink: int
    out_lo: int
    out_hi: int
    inputs: dict[str, ArraySpec] = field(default_factory=dict)
    #: arcs forming feedback loops (for-iter schemes); balancing skips them
    feedback_arcs: list[int] = field(default_factory=list)


def _finish_block(
    name: str,
    g: DataflowGraph,
    builder: ExprBuilder,
    out_wire: Wire,
    lo: int,
    hi: int,
    arrays: Mapping[str, ArraySpec],
) -> BlockArtifact:
    n = hi - lo + 1
    sink = g.add_sink(f"out_{name}", stream=name, limit=n)
    g.connect(out_wire.cell, sink, 0, tag=out_wire.tag)
    g.meta.setdefault("feedback_arcs", [])
    g.meta["output"] = {"stream": name, "lo": lo, "hi": hi}
    g.meta["inputs"] = {
        a.name: (a.lo, a.hi)
        for a in arrays.values()
        if a.name in builder._source_cells
    }
    return BlockArtifact(
        name=name,
        graph=g,
        out_cell=out_wire.cell,
        out_tag=out_wire.tag,
        sink=sink,
        out_lo=lo,
        out_hi=hi,
        inputs={k: v for k, v in arrays.items() if k in builder._source_cells},
        feedback_arcs=list(g.meta["feedback_arcs"]),
    )


def compile_forall_pipeline(
    name: str,
    node: A.Forall,
    arrays: Mapping[str, ArraySpec],
    params: Mapping[str, int],
) -> BlockArtifact:
    """The pipeline scheme: definitions cascade into the accumulation
    expression, all compiled as one pipelined instruction graph."""
    info = classify_forall(node, set(arrays), params)
    g = DataflowGraph(name)
    builder = ExprBuilder(
        g, info.var, info.lo, info.hi, params, arrays, prefix=f"{name}."
    )
    out = builder.compile_let(info.defs, info.accum)
    out_wire = builder.materialize(out, ROOT)
    return _finish_block(name, g, builder, out_wire, info.lo, info.hi, arrays)


def compile_forall_parallel(
    name: str,
    node: A.Forall,
    arrays: Mapping[str, ArraySpec],
    params: Mapping[str, int],
    max_elements: int = 256,
) -> BlockArtifact:
    """The parallel scheme: one body copy per element.

    Each copy is compiled under a static filter selecting exactly its
    iteration, so array selections become single-element gates and
    conditionals fold away per element; a merge chain re-serializes the
    element values into the output stream (lowest index first).
    """
    info = classify_forall(node, set(arrays), params)
    if info.length > max_elements:
        raise CompileError(
            f"parallel scheme over {info.length} elements exceeds "
            f"max_elements={max_elements}; use the pipeline scheme"
        )
    g = DataflowGraph(name)
    builder = ExprBuilder(
        g, info.var, info.lo, info.hi, params, arrays, prefix=f"{name}."
    )
    n = info.length
    element_values = []
    for k in range(n):
        pattern = [j == k for j in range(n)]
        ctx = ROOT.extend(Filter(Split.from_pattern(pattern), True))
        element_values.append(
            (builder.compile_let(info.defs, info.accum, ctx), ctx)
        )

    # Serialize with a merge chain: after step k the accumulated stream
    # holds elements lo..lo+k; control T..TF appends the next element.
    acc_value, acc_ctx = element_values[0]
    acc = builder.materialize(
        acc_value
        if not isinstance(acc_value, Uniform)
        else Seq((acc_value.value,)),
        acc_ctx,
    )
    for k in range(1, n):
        merge = g.add_merge(name=f"{name}.par_merge{k}")
        ctl = builder.pattern_cell(
            tuple([True] * k + [False]), ROOT, kind="parctl"
        )
        g.connect(ctl, merge, MERGE_CONTROL_PORT)
        g.connect(acc.cell, merge, MERGE_TRUE_PORT, tag=acc.tag)
        val, ctx_k = element_values[k]
        u = as_uniform(val)
        if u is not None and not isinstance(val, Wire):
            g.set_const(merge, MERGE_FALSE_PORT, u)
        else:
            wire = builder.materialize(
                val if not isinstance(val, Uniform) else Seq((val.value,)),
                ctx_k,
            )
            g.connect(wire.cell, merge, MERGE_FALSE_PORT, tag=wire.tag)
        acc = Wire(merge, ROOT)
    return _finish_block(name, g, builder, acc, info.lo, info.hi, arrays)


def compile_forall(
    name: str,
    node: A.Forall,
    arrays: Mapping[str, ArraySpec],
    params: Mapping[str, int],
    scheme: str = "pipeline",
) -> BlockArtifact:
    if scheme == "pipeline":
        return compile_forall_pipeline(name, node, arrays, params)
    if scheme == "parallel":
        return compile_forall_parallel(name, node, arrays, params)
    raise CompileError(f"unknown forall scheme {scheme!r}")


__all__ = [
    "BlockArtifact",
    "ForallInfo",
    "compile_forall",
    "compile_forall_parallel",
    "compile_forall_pipeline",
]

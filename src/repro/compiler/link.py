"""Linking pipe-structured programs (Section 8, Theorem 4).

The blocks of a pipe-structured program form an acyclic *flow
dependency graph*: each block consumes array streams produced by other
blocks or supplied from outside, and produces one array stream.  The
linker compiles every block with its scheme, splices producer outputs
directly into consumer input gates (arrays are never stored -- they
flow as streams, Section 2), and leaves one combined instruction graph
for the global balancing pass.

Input ranges for *external* arrays are inferred with a two-pass trick:
compile each block against the maximal window its accesses could reach,
read back which stream positions the compiled gates actually select
(compile-time conditionals prune the out-of-range accesses, as in
Example 1's boundary rules), then recompile against the tight range.
A block whose probe compile already used its final ranges and scheme
is not compiled a second time: the linker takes the probe's artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from typing import Mapping, Optional

from ..errors import CompileError, GraphError
from ..graph.cell import GATE_PORT
from ..graph.graph import DataflowGraph
from ..graph.opcodes import Op
from ..val import ast_nodes as A
from ..val.ast_nodes import Program, free_identifiers
from ..val.classify import classify_forall, classify_foriter
from .expr import ArraySpec
from .forall import BlockArtifact, compile_forall
from .foriter import compile_foriter


@dataclass
class LinkedProgram:
    """The combined instruction graph of a pipe-structured program."""

    graph: DataflowGraph
    artifacts: dict[str, BlockArtifact]
    input_specs: dict[str, ArraySpec]
    output_specs: dict[str, tuple[int, int]]
    block_order: list[str] = field(default_factory=list)


def _block_access_info(
    block: A.BlockDef, known_arrays: set[str], params: Mapping[str, int]
):
    """(iteration range, accesses) of one block, via the classifiers."""
    expr = block.expr
    if isinstance(expr, A.Forall):
        info = classify_forall(expr, known_arrays, params)
        return (info.lo, info.hi), info.accesses, "forall"
    if isinstance(expr, A.ForIter):
        info = classify_foriter(expr, known_arrays, params)
        # the accumulator's self-reference is the loop feedback, not an
        # input stream; the definition part is evaluated up to body_hi
        # (one iteration past the last append in the paper-literal form)
        accesses = [a for a in info.accesses if a.array != info.acc]
        return (info.elem_lo, info.body_hi), accesses, "foriter"
    raise CompileError(
        f"block {block.name!r} at line {block.line} is neither forall nor "
        f"for-iter; pipe-structured programs contain only those blocks "
        f"(Section 4)"
    )


def _array_names(program: Program, params: Mapping[str, int]) -> set[str]:
    """All identifiers that denote arrays anywhere in the program."""
    names: set[str] = {b.name for b in program.blocks}
    for block in program.blocks:
        for node in A.walk(block.expr):
            if isinstance(node, (A.Index, A.ArrayAppend)) and isinstance(
                node.base, A.Ident
            ):
                names.add(node.base.name)
    return names - set(params)


#: block name -> (the ranges its probe compile saw, the probe's artifact)
Probes = dict[str, tuple[dict[str, ArraySpec], BlockArtifact]]


def infer_input_ranges(
    program: Program,
    params: Mapping[str, int],
    forall_scheme: str = "pipeline",
    foriter_scheme: str = "auto",
    overrides: Optional[Mapping[str, tuple[int, int]]] = None,
) -> dict[str, ArraySpec]:
    """Tight index ranges for the program's external input arrays."""
    return _probe_blocks(program, params, forall_scheme, overrides)[0]


def _probe_blocks(
    program: Program,
    params: Mapping[str, int],
    forall_scheme: str,
    overrides: Optional[Mapping[str, tuple[int, int]]],
) -> tuple[dict[str, ArraySpec], Probes]:
    """:func:`infer_input_ranges`, plus every block's probe compile."""
    overrides = dict(overrides or {})
    arrays = _array_names(program, params)
    block_names = {b.name for b in program.blocks}

    # pass 1: maximal windows
    maximal: dict[str, tuple[int, int]] = {}
    per_block = []
    for block in program.blocks:
        (lo, hi), accesses, kind = _block_access_info(block, arrays, params)
        per_block.append((block, (lo, hi), accesses, kind))
        for acc in accesses:
            if acc.array in block_names or acc.array not in arrays:
                continue
            w_lo, w_hi = lo + acc.offset, hi + acc.offset
            if acc.array in maximal:
                m_lo, m_hi = maximal[acc.array]
                maximal[acc.array] = (min(m_lo, w_lo), max(m_hi, w_hi))
            else:
                maximal[acc.array] = (w_lo, w_hi)

    #: external array -> (lowest, highest) stream position a probe uses
    used: dict[str, Optional[tuple[int, int]]] = dict.fromkeys(maximal)
    produced: dict[str, tuple[int, int]] = {}
    probes: Probes = {}
    for block, (lo, hi), accesses, kind in per_block:
        specs: dict[str, ArraySpec] = {}
        for acc in accesses:
            name = acc.array
            if name in specs or name not in arrays:
                continue
            if name in overrides:
                specs[name] = ArraySpec(name, *overrides[name])
            elif name in produced:
                specs[name] = ArraySpec(name, *produced[name])
            elif name in maximal:
                specs[name] = ArraySpec(name, *maximal[name])
        # Probe with Todd's scheme: it evaluates the definition part over
        # the full body range, so the gate-pattern readback reflects
        # exactly what Val semantics reads (the companion scheme may
        # consume less; its gates discard the surplus in pass 2).
        art = _compile_block(block, specs, params, forall_scheme, "todd")
        probes[block.name] = (specs, art)
        produced[block.name] = (art.out_lo, art.out_hi)
        _collect_used_span(art.graph, specs, used)

    result: dict[str, ArraySpec] = {}
    for name, (m_lo, _m_hi) in maximal.items():
        if name in overrides:
            result[name] = ArraySpec(name, *overrides[name])
            continue
        span = used.get(name)
        if span is None:
            # every access folded away under compile-time conditionals:
            # the array is statically dead and needs no input stream
            continue
        result[name] = ArraySpec(name, m_lo + span[0], m_lo + span[1])
    for name, rng in overrides.items():
        result.setdefault(name, ArraySpec(name, *rng))
    return result, probes


def _collect_used_span(
    g: DataflowGraph,
    specs: Mapping[str, ArraySpec],
    used: dict[str, Optional[tuple[int, int]]],
) -> None:
    """Widen ``used`` to the first and last stream position a compiled
    block consumes."""
    for src in g.sources():
        name = src.params.get("stream")
        if name not in used:
            continue
        spec = specs[name]
        for arc in g.out_arcs[src.cid]:
            dst = g.cells[arc.dst]
            ctl_arc = g.in_arc.get((dst.cid, GATE_PORT))
            if dst.op is Op.ID and dst.gated and ctl_arc is not None:
                ctl = g.cells[ctl_arc.src]
                pattern = ctl.params.get("values")
                if pattern is not None:
                    first = next(compress(count(), pattern), None)
                    if first is not None:
                        last = len(pattern) - 1 - next(
                            compress(count(), reversed(pattern))
                        )
                        _widen(used, name, first, last)
                    continue
            # ungated consumer: the whole stream is used
            if spec.length > 0:
                _widen(used, name, 0, spec.length - 1)


def _widen(
    used: dict[str, Optional[tuple[int, int]]], name: str, lo: int, hi: int
) -> None:
    span = used[name]
    used[name] = (lo, hi) if span is None else (
        min(span[0], lo), max(span[1], hi)
    )


def _compile_block(
    block: A.BlockDef,
    specs: Mapping[str, ArraySpec],
    params: Mapping[str, int],
    forall_scheme: str,
    foriter_scheme: str,
    **scheme_opts,
) -> BlockArtifact:
    expr = block.expr
    if isinstance(expr, A.Forall):
        return compile_forall(block.name, expr, specs, params, scheme=forall_scheme)
    if isinstance(expr, A.ForIter):
        return compile_foriter(
            block.name, expr, specs, params, scheme=foriter_scheme, **scheme_opts
        )
    raise CompileError(f"block {block.name!r} is not forall/for-iter")


def link_program(
    program: Program,
    params: Mapping[str, int],
    forall_scheme: str = "pipeline",
    foriter_scheme: str = "auto",
    input_ranges: Optional[Mapping[str, tuple[int, int]]] = None,
    keep_all_outputs: bool = False,
    **scheme_opts,
) -> LinkedProgram:
    """Compile every block and splice the flow dependency graph together.

    Producer outputs feed consumer input gates directly; a block's SINK
    survives only if no other block consumes it (or always, with
    ``keep_all_outputs=True``, adding a tee destination).
    """
    if foriter_scheme == "interleaved":
        raise CompileError(
            "the interleaved scheme batches independent program instances "
            "and is driven per block; use "
            "repro.compiler.compile_foriter_interleaved directly"
        )
    block_names = [b.name for b in program.blocks]
    specs, probes = _probe_blocks(
        program, params, forall_scheme, input_ranges
    )

    consumed: set[str] = set()
    for block in program.blocks:
        consumed |= free_identifiers(block.expr) & set(block_names)

    combined = DataflowGraph(program.blocks[-1].name + "_linked")
    combined.meta["feedback_arcs"] = []
    artifacts: dict[str, BlockArtifact] = {}
    #: block name -> (cell in combined graph, tag) producing its stream
    producer_end: dict[str, tuple[int, Optional[bool]]] = {}
    output_specs: dict[str, tuple[int, int]] = {}

    for block in program.blocks:
        block_arrays: dict[str, ArraySpec] = {}
        for name in free_identifiers(block.expr):
            if name in artifacts:
                art_p = artifacts[name]
                block_arrays[name] = ArraySpec(name, art_p.out_lo, art_p.out_hi)
            elif name in specs:
                block_arrays[name] = specs[name]
        probe_arrays, art = probes[block.name]
        same_scheme = isinstance(block.expr, A.Forall) or (
            foriter_scheme == "todd" and not scheme_opts
        )
        if not (same_scheme and probe_arrays == block_arrays):
            art = _compile_block(
                block, block_arrays, params, forall_scheme, foriter_scheme,
                **scheme_opts,
            )
        artifacts[block.name] = art
        mapping = combined.absorb(art.graph)
        combined.meta["feedback_arcs"].extend(
            mapping_arc
            for mapping_arc in _remap_arcs(art.graph, combined, mapping, art.feedback_arcs)
        )
        out_cell = mapping[art.out_cell]
        producer_end[block.name] = (out_cell, art.out_tag)
        output_specs[block.name] = (art.out_lo, art.out_hi)

        # splice earlier producers into this block's SOURCE cells
        for cell in list(combined.cells.values()):
            if cell.op is not Op.SOURCE:
                continue
            stream = cell.params.get("stream")
            if stream is None or stream not in producer_end:
                continue
            if stream == block.name:
                continue
            p_cell, p_tag = producer_end[stream]
            dests = list(combined.out_arcs[cell.cid])
            for arc in dests:
                combined.remove_arc(arc.aid)
                combined.connect(
                    p_cell, arc.dst, arc.dst_port,
                    tag=p_tag, initial=arc.initial, weight=arc.weight,
                )
            combined.remove_cell(cell.cid)

    if not keep_all_outputs:
        for name in consumed:
            for cell in list(combined.cells.values()):
                if (
                    cell.op is Op.SINK
                    and cell.params.get("stream") == name
                ):
                    combined.remove_cell(cell.cid)
                    output_specs.pop(name, None)

    # sanity: every remaining SOURCE refers to an external input
    for src in combined.sources():
        stream = src.params.get("stream")
        if stream in producer_end and stream in consumed:
            raise GraphError(f"unspliced internal stream {stream!r}")

    return LinkedProgram(
        graph=combined,
        artifacts=artifacts,
        input_specs={
            k: v for k, v in specs.items() if k not in producer_end
        },
        output_specs=output_specs,
        block_order=block_names,
    )


def _remap_arcs(src_graph, dst_graph, cell_mapping, arc_ids):
    """Translate arc ids recorded on a block graph into the combined
    graph after absorb() (matching by endpoints and port)."""
    out = []
    for aid in arc_ids:
        arc = src_graph.arcs[aid]
        new_src = cell_mapping[arc.src]
        new_dst = cell_mapping[arc.dst]
        new_arc = dst_graph.in_arc.get((new_dst, arc.dst_port))
        if new_arc is not None and new_arc.src == new_src:
            out.append(new_arc.aid)
    return out

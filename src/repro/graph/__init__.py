"""Dataflow instruction-graph IR for the static dataflow machine.

This package defines the machine-level program representation used by
both simulators and produced by the compiler: instruction cells
(:class:`~repro.graph.cell.Cell`), destination arcs with the
single-token acknowledge discipline (:class:`~repro.graph.cell.Arc`),
and the :class:`~repro.graph.graph.DataflowGraph` container, plus its
validation, FIFO lowering, dot export and ``.dfasm`` text form.
Control sequences (``T..TFF`` windows, ``F..FT..T`` merge controls)
are built by the compiler, which emits them as pattern sources
(:meth:`~repro.graph.graph.DataflowGraph.add_pattern_source`) or as
counter loops (:mod:`repro.compiler.controls`).
"""

from .._lazy import lazy_exports

# ``validate`` names both a submodule and its function: bound here, or
# ``import repro.graph.validate`` would rebind it to the module
from .validate import validate

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".asm": "from_asm read_asm to_asm write_asm",
    ".cell": "GATE_PORT Arc Cell",
    ".dot": "to_dot write_dot",
    ".graph": "DataflowGraph",
    ".lower": "lower_fifos",
    ".opcodes": "ARRAY_MEMORY_OPS BINARY_OPS FUNCTION_UNIT_OPS LOCAL_OPS "
                "MERGE_CONTROL_PORT MERGE_FALSE_PORT MERGE_TRUE_PORT "
                "UNARY_OPS Op apply_scalar arity",
    ".validate": "check_stream_inputs validate",
})

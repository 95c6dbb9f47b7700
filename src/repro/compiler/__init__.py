"""Compiler from the Val subset to static dataflow machine code.

Implements the paper's constructive results: primitive-expression
mapping (Theorem 1), the forall pipeline/parallel schemes (Theorem 2),
the for-iter schemes -- Todd's, the companion-function scheme and the
Section 9 interleaved batch (Theorem 3) -- pipeline balancing
(Sections 3/8) and whole-program linking (Theorem 4).
"""

from .balance import (
    BalanceResult,
    balance_graph,
    compute_levels,
    verify_balanced,
)
from .context import ROOT, Context, Filter, Seq, Split, Uniform
from .controls import (
    ExpansionReport,
    build_selfclocked_counter,
    expand_controls,
)
from .expr import ArraySpec, ExprBuilder, Wire
from .forall import (
    BlockArtifact,
    compile_forall,
    compile_forall_parallel,
    compile_forall_pipeline,
)
from .foriter import (
    compile_foriter,
    compile_foriter_companion,
    compile_foriter_interleaved,
    compile_foriter_todd,
    deinterleave,
    interleave,
)
from .link import LinkedProgram, infer_input_ranges, link_program
from .pipeline import CompiledProgram, ProgramResult, compile_program
from .recurrence import (
    MAXPLUS,
    MINPLUS,
    RING,
    Algebra,
    LinearForm,
    MobiusForm,
    companion_apply,
    companion_fold,
    extract_linear_form,
    extract_mobius_form,
    extract_recurrence,
    extract_tropical_form,
    has_companion,
    mobius_apply,
    mobius_eval,
    shift_index,
)

__all__ = [
    "ArraySpec",
    "BalanceResult",
    "BlockArtifact",
    "CompiledProgram",
    "Context",
    "ExpansionReport",
    "ExprBuilder",
    "Filter",
    "Algebra",
    "LinearForm",
    "MAXPLUS",
    "MINPLUS",
    "MobiusForm",
    "RING",
    "LinkedProgram",
    "ProgramResult",
    "ROOT",
    "Seq",
    "Split",
    "Uniform",
    "Wire",
    "balance_graph",
    "build_selfclocked_counter",
    "companion_apply",
    "companion_fold",
    "compile_forall",
    "compile_forall_parallel",
    "compile_forall_pipeline",
    "compile_foriter",
    "compile_foriter_companion",
    "compile_foriter_interleaved",
    "compile_foriter_todd",
    "compile_program",
    "compute_levels",
    "deinterleave",
    "expand_controls",
    "extract_linear_form",
    "extract_mobius_form",
    "extract_recurrence",
    "extract_tropical_form",
    "has_companion",
    "infer_input_ranges",
    "interleave",
    "link_program",
    "mobius_apply",
    "mobius_eval",
    "shift_index",
    "verify_balanced",
]

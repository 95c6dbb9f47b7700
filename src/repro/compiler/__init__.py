"""Compiler from the Val subset to static dataflow machine code.

Implements the paper's constructive results: primitive-expression
mapping (Theorem 1), the forall pipeline/parallel schemes (Theorem 2),
the for-iter schemes -- Todd's, the companion-function scheme and the
Section 9 interleaved batch (Theorem 3) -- pipeline balancing
(Sections 3/8) and whole-program linking (Theorem 4).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".balance": "BalanceResult balance_graph compute_levels "
                "verify_balanced",
    ".context": "ROOT Context Filter Seq Split Uniform",
    ".controls": "ExpansionReport build_selfclocked_counter "
                 "expand_controls",
    ".expr": "ArraySpec ExprBuilder Wire",
    ".forall": "BlockArtifact compile_forall compile_forall_parallel "
               "compile_forall_pipeline",
    ".foriter": "compile_foriter compile_foriter_companion "
                "compile_foriter_interleaved compile_foriter_todd "
                "deinterleave interleave",
    ".link": "LinkedProgram infer_input_ranges link_program",
    ".pipeline": "CompiledProgram ProgramResult compile_program",
    ".recurrence": "MAXPLUS MINPLUS RING Algebra LinearForm MobiusForm "
                   "companion_apply companion_fold extract_linear_form "
                   "extract_mobius_form extract_recurrence mobius_apply "
                   "mobius_eval shift_index",
})

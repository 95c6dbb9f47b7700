"""Val language frontend: lexer, parser, AST, types, classification and
the reference interpreter.

Val is the value-oriented algorithmic language of Ackerman & Dennis
(MIT TR-218); this package implements the subset the paper's program
class uses: scalar expressions with ``let-in`` / ``if-then-else``,
array selection, and the ``forall`` / ``for-iter`` array constructors.
"""

from .._lazy import lazy_exports

# the AST node module is itself an export
from . import ast_nodes

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ast_nodes": "ArrayType BOOLEAN INTEGER REAL BlockDef Program "
                  "ScalarType free_identifiers walk",
    ".classify": "ArrayAccess ForallInfo ForIterInfo PEInfo "
                 "classify_forall classify_foriter classify_primitive "
                 "index_offset is_primitive_expr is_scalar_primitive_expr",
    ".interpreter": "const_eval eval_expr run_program",
    ".lexer": "Token tokenize",
    ".multidim": "flatten2d lower_forall_nd lower_program unflatten2d",
    ".parser": "parse_expression parse_program",
    ".typecheck": "check_expression check_program infer_input_types",
    ".values": "ValArray",
})
__all__.append("ast_nodes")

"""Multidimensional arrays by lowering (the paper's Section 9 remark).

    "The extension of this work to array values of multiple dimension
    is straightforward."

It is: a multidimensional array is its row-major flattened stream, and
a multidimensional forall is a 1-D forall over the flattened iteration
space.  This module performs that lowering on the AST, after which the
paper's 1-D machinery (classification, mapping schemes, balancing,
simulation, the interpreter) applies unchanged:

* ``forall i in [a,b]; j in [c,d] construct E endall`` becomes
  ``forall k in [0, R*C-1] construct E' endall`` with ``R = b-a+1``,
  ``C = d-c+1``;
* inside ``E'``, value uses of ``i``/``j`` become ``a + k/C`` and
  ``c + (k - (k/C)*C)`` (compile-time foldable, since ``k``'s values
  are known);
* a selection ``M[i+di, j+dj]`` of an input with column range exactly
  ``[c, d]`` becomes the *constant-offset* flat selection
  ``M[k + ((a+di) - rlo)*C + dj]`` -- rule 4 again, so the gating and
  skew machinery of Section 5 carries over verbatim.

Input shapes are declared as ``{'M': ((rlo, rhi), (clo, chi))}``.  The
column range of every 2-D input must equal the forall's column range
(row halo is fine; column halo would break the constant-offset form --
guard column boundaries with compile-time conditionals instead, exactly
like Example 1 guards its 1-D boundaries).

Throughput note (measured; see ``benchmarks/bench_multidim.py``):
elementwise 2-D maps run at the 1-D maximum (II = 2); single-axis
guarded stencils run close to it (II ~2.1-2.3).  The 4-neighbour
boundary-guarded stencil sustains a stable II ~3: at row transitions
the merge switches between its boundary and interior arms while the
interior arm's deep row-buffer skews keep the shared input stream
locked to a zero-slack schedule, and the resulting periodic pipeline
drains persist under every buffer-placement strategy we tried (input-
vs output-side FIFOs, uniform margins, dedicated merge controls).
Full-rate 2-D boundary stencils appear to need a different code shape
(e.g. splitting boundary rows/columns into separate blocks) -- a
genuine subtlety hiding inside the paper's "the extension ... is
straightforward" remark.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping, Optional, Sequence

from ..errors import CompileError
from . import ast_nodes as A
from .interpreter import const_eval

Shape2D = tuple[tuple[int, int], tuple[int, int]]


def _int_lit(value: int) -> A.Literal:
    return A.Literal(value, A.INTEGER)


def lower_expr_2d(
    expr: A.Expr,
    k: str,
    row: tuple[str, int],       # (var name, lo) of the row dimension
    col: tuple[str, int, int],  # (var name, lo, width) of the column dim
    shapes: Mapping[str, Shape2D],
    params: Mapping[str, int],
) -> A.Expr:
    """Rewrite a 2-D forall body onto the flat index variable ``k``."""
    i_name, i_lo = row
    j_name, j_lo, width = col

    def i_value() -> A.Expr:
        # i = i_lo + k / C
        quot = A.BinOp("/", A.Ident(k), _int_lit(width))
        return quot if i_lo == 0 else A.BinOp("+", _int_lit(i_lo), quot)

    def j_value() -> A.Expr:
        # j = j_lo + k - (k/C)*C
        quot = A.BinOp("/", A.Ident(k), _int_lit(width))
        rem = A.BinOp(
            "-", A.Ident(k), A.BinOp("*", quot, _int_lit(width))
        )
        return rem if j_lo == 0 else A.BinOp("+", _int_lit(j_lo), rem)

    def flat_offset(name: str, di: int, dj: int, line: int) -> int:
        if name not in shapes:
            raise CompileError(
                f"2-D selection of {name!r} at line {line} needs its shape "
                f"in array_shapes="
            )
        (rlo, _rhi), (clo, chi) = shapes[name]
        if clo != j_lo or chi - clo + 1 != width:
            raise CompileError(
                f"2-D input {name!r} has column range [{clo},{chi}] but the "
                f"forall iterates columns [{j_lo},{j_lo + width - 1}]; "
                f"column ranges must match (guard boundaries with "
                f"conditionals instead of halo columns)"
            )
        return (i_lo + di - rlo) * width + (dj + j_lo - clo)

    def offset_of(index: A.Expr, var: str, line: int) -> int:
        from .classify import index_offset

        off = index_offset(index, var, params)
        if off is None:
            raise CompileError(
                f"2-D selection index at line {line} must be {var}+const"
            )
        return off

    def walk(e: A.Expr, locals_: frozenset[str]) -> A.Expr:
        if isinstance(e, A.Ident):
            if e.name == i_name and e.name not in locals_:
                return i_value()
            if e.name == j_name and e.name not in locals_:
                return j_value()
            return e
        if isinstance(e, A.Literal):
            return e
        if isinstance(e, A.IndexND):
            if len(e.indices) != 2:
                raise CompileError(
                    f"only 2-D selections are supported (line {e.line})"
                )
            if not isinstance(e.base, A.Ident):
                raise CompileError(
                    f"computed array base at line {e.line}"
                )
            di = offset_of(e.indices[0], i_name, e.line)
            dj = offset_of(e.indices[1], j_name, e.line)
            flat = flat_offset(e.base.name, di, dj, e.line)
            if flat == 0:
                idx: A.Expr = A.Ident(k)
            else:
                op = "+" if flat > 0 else "-"
                idx = A.BinOp(op, A.Ident(k), _int_lit(abs(flat)))
            return A.Index(e.base, idx, line=e.line)
        if isinstance(e, A.Index):
            raise CompileError(
                f"1-D selection inside a 2-D forall at line {e.line}; "
                f"use M[i, j] selections"
            )
        if isinstance(e, A.BinOp):
            return A.BinOp(e.op, walk(e.left, locals_), walk(e.right, locals_))
        if isinstance(e, A.UnOp):
            return A.UnOp(e.op, walk(e.operand, locals_))
        if isinstance(e, A.Builtin):
            return A.Builtin(e.name, [walk(a, locals_) for a in e.args])
        if isinstance(e, A.If):
            return A.If(
                walk(e.cond, locals_),
                walk(e.then, locals_),
                walk(e.els, locals_),
            )
        if isinstance(e, A.Let):
            inner = locals_
            defs = []
            for d in e.defs:
                defs.append(
                    A.Definition(d.name, d.type, walk(d.expr, inner))
                )
                inner = inner | {d.name}
            return A.Let(defs, walk(e.body, inner))
        raise CompileError(
            f"{type(e).__name__} at line {getattr(e, 'line', 0)} is not "
            f"supported inside a 2-D forall"
        )

    return walk(expr, frozenset())


def lower_forall_nd(
    node: A.ForallND,
    shapes: Mapping[str, Shape2D],
    params: Mapping[str, int],
    flat_var: str = "_k",
) -> A.Forall:
    """Lower a 2-D forall to the flat 1-D forall (row-major)."""
    if len(node.ranges) != 2:
        raise CompileError(
            f"only 2-D foralls are supported, got {len(node.ranges)} "
            f"dimensions at line {node.line}"
        )
    ri, rj = node.ranges
    i_lo, i_hi = const_eval(ri.lo, params), const_eval(ri.hi, params)
    j_lo, j_hi = const_eval(rj.lo, params), const_eval(rj.hi, params)
    if i_lo > i_hi or j_lo > j_hi:
        raise CompileError(f"empty 2-D range at line {node.line}")
    rows, cols = i_hi - i_lo + 1, j_hi - j_lo + 1

    row = (ri.var, i_lo)
    col = (rj.var, j_lo, cols)
    defs = []
    for d in node.defs:
        defs.append(
            A.Definition(
                d.name,
                d.type,
                lower_expr_2d(d.expr, flat_var, row, col, shapes, params),
            )
        )
    accum = lower_expr_2d(node.accum, flat_var, row, col, shapes, params)
    return A.Forall(
        flat_var,
        _int_lit(0),
        _int_lit(rows * cols - 1),
        defs,
        accum,
        line=node.line,
    )


def lower_program(
    program: A.Program,
    params: Mapping[str, int],
    array_shapes: Optional[Mapping[str, Shape2D]] = None,
) -> A.Program:
    """Lower every multidimensional forall block of a program.

    Blocks producing 2-D arrays are consumable by later 2-D blocks: a
    produced block's shape is its iteration space.
    """
    shapes: dict[str, Shape2D] = dict(array_shapes or {})
    blocks = []
    for block in program.blocks:
        expr = block.expr
        if isinstance(expr, A.ForallND):
            if len(expr.ranges) == 2:
                ri, rj = expr.ranges
                shapes[block.name] = (
                    (const_eval(ri.lo, params), const_eval(ri.hi, params)),
                    (const_eval(rj.lo, params), const_eval(rj.hi, params)),
                )
            lowered = lower_forall_nd(expr, shapes, params)
            blocks.append(replace(block, expr=lowered))
        else:
            for n in A.walk(expr):
                if isinstance(n, (A.ForallND, A.IndexND)):
                    raise CompileError(
                        f"multidimensional construct at line {n.line} outside "
                        f"a top-level 2-D forall block"
                    )
            blocks.append(block)
    return A.Program(blocks, line=program.line)


# ---------------------------------------------------------------------------
# host-side helpers
# ---------------------------------------------------------------------------


def flatten2d(rows: Sequence[Sequence[Any]]) -> list[Any]:
    """Row-major flattening of a matrix into the stream the compiled
    code consumes."""
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise CompileError("ragged 2-D input")
    return [v for row in rows for v in row]


def unflatten2d(values: Sequence[Any], n_cols: int) -> list[list[Any]]:
    """Inverse of :func:`flatten2d`."""
    if n_cols <= 0 or len(values) % n_cols:
        raise CompileError(
            f"cannot reshape {len(values)} values into rows of {n_cols}"
        )
    return [list(values[r: r + n_cols]) for r in range(0, len(values), n_cols)]

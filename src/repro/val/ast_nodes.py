"""Abstract syntax tree for the Val subset of the paper.

The subset covers exactly the constructs Sections 4-7 build on:
scalar expressions with ``let-in`` and ``if-then-else``, array element
selection ``A[i+m]``, the ``forall`` construct (range specification,
definition part, accumulation part) and the ``for-iter`` construct
(loop initialization, definition part, iter/terminate conditional),
plus the array constructor forms ``[r: E]`` and ``X[i: E]`` the
for-iter accumulator uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarType:
    kind: str  # 'real' | 'integer' | 'boolean'

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True)
class ArrayType:
    elem: ScalarType

    def __str__(self) -> str:
        return f"array[{self.elem}]"


ValType = Union[ScalarType, ArrayType]

REAL = ScalarType("real")
INTEGER = ScalarType("integer")
BOOLEAN = ScalarType("boolean")


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass
class Node:
    """Base class; ``line``/``column`` point at the defining token."""

    line: int = field(default=0, kw_only=True)
    column: int = field(default=0, kw_only=True)


@dataclass
class Literal(Node):
    """Numeric or boolean literal; ``type`` is REAL, INTEGER or BOOLEAN."""

    value: Union[int, float, bool]
    type: ScalarType


@dataclass
class Ident(Node):
    name: str


@dataclass
class BinOp(Node):
    """op in { +, -, *, /, <, <=, >, >=, =, ~=, &, | }."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass
class UnOp(Node):
    """op in { -, ~ }."""

    op: str
    operand: "Expr"


@dataclass
class Builtin(Node):
    """Builtin function application: ``max(e1, e2)`` / ``min(e1, e2)``.

    Val's standard library has more, but the paper's program class only
    motivates the lattice pair (they extend the recurrence machinery to
    the max-plus / min-plus semirings -- Kogge's general class).
    """

    name: str  # 'max' | 'min'
    args: list["Expr"]


@dataclass
class Index(Node):
    """Array element selection ``base[index]``."""

    base: "Expr"
    index: "Expr"


@dataclass
class ArrayAppend(Node):
    """Functional array update/extension ``base[index: value]``."""

    base: "Expr"
    index: "Expr"
    value: "Expr"


@dataclass
class ArrayLit(Node):
    """Singleton array constructor ``[index: value]``."""

    index: "Expr"
    value: "Expr"


@dataclass
class Definition(Node):
    """``name : type := expr`` in a let/forall definition part or a
    for-iter initialization."""

    name: str
    type: Optional[ValType]
    expr: "Expr"


@dataclass
class Let(Node):
    defs: list[Definition]
    body: "Expr"


@dataclass
class If(Node):
    cond: "Expr"
    then: "Expr"
    els: "Expr"


@dataclass
class Forall(Node):
    """``forall var in [lo, hi] defs construct accum endall``."""

    var: str
    lo: "Expr"
    hi: "Expr"
    defs: list[Definition]
    accum: "Expr"


@dataclass
class RangeSpec(Node):
    """One ``var in [lo, hi]`` of a multidimensional range."""

    var: str
    lo: "Expr"
    hi: "Expr"


@dataclass
class ForallND(Node):
    """Multidimensional forall (the paper's Section 9 extension):
    ``forall i in [a,b]; j in [c,d] defs construct accum endall``.

    Lowered to a 1-D :class:`Forall` over the row-major flattened
    iteration space by :mod:`repro.val.multidim` before type checking,
    interpretation or compilation.
    """

    ranges: list[RangeSpec]
    defs: list[Definition]
    accum: "Expr"


@dataclass
class IndexND(Node):
    """Multidimensional selection ``base[e1, e2, ...]`` (lowered to a
    flat :class:`Index` by :mod:`repro.val.multidim`)."""

    base: "Expr"
    indices: list["Expr"]


@dataclass
class Assign(Node):
    """``name := expr`` inside an iter clause."""

    name: str
    expr: "Expr"


@dataclass
class Iter(Node):
    """``iter assigns enditer`` -- rebind loop names and repeat."""

    assigns: list[Assign]


@dataclass
class ForIter(Node):
    """``for inits do body endfor``."""

    inits: list[Definition]
    body: "Expr"


Expr = Union[
    Literal,
    Ident,
    BinOp,
    UnOp,
    Builtin,
    Index,
    IndexND,
    ArrayAppend,
    ArrayLit,
    Let,
    If,
    Forall,
    ForallND,
    Iter,
    ForIter,
]


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------


@dataclass
class BlockDef(Node):
    """One top-level block: ``name : type := expr``.

    In a pipe-structured program every block is a forall or for-iter
    expression producing an array value (paper, Section 4).
    """

    name: str
    type: ValType
    expr: Expr


@dataclass
class Program(Node):
    blocks: list[BlockDef]

    def block(self, name: str) -> BlockDef:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)


# ---------------------------------------------------------------------------
# traversal helpers
# ---------------------------------------------------------------------------


def children(node: Node) -> list[Node]:
    """Direct child nodes, in source order."""
    if isinstance(node, (Literal, Ident)):
        return []
    if isinstance(node, BinOp):
        return [node.left, node.right]
    if isinstance(node, UnOp):
        return [node.operand]
    if isinstance(node, Builtin):
        return list(node.args)
    if isinstance(node, Index):
        return [node.base, node.index]
    if isinstance(node, IndexND):
        return [node.base, *node.indices]
    if isinstance(node, RangeSpec):
        return [node.lo, node.hi]
    if isinstance(node, ForallND):
        return [*node.ranges, *node.defs, node.accum]
    if isinstance(node, ArrayAppend):
        return [node.base, node.index, node.value]
    if isinstance(node, ArrayLit):
        return [node.index, node.value]
    if isinstance(node, Definition):
        return [node.expr]
    if isinstance(node, Let):
        return [*node.defs, node.body]
    if isinstance(node, If):
        return [node.cond, node.then, node.els]
    if isinstance(node, Forall):
        return [node.lo, node.hi, *node.defs, node.accum]
    if isinstance(node, Assign):
        return [node.expr]
    if isinstance(node, Iter):
        return list(node.assigns)
    if isinstance(node, ForIter):
        return [*node.inits, node.body]
    if isinstance(node, BlockDef):
        return [node.expr]
    if isinstance(node, Program):
        return list(node.blocks)
    raise TypeError(f"unknown node {type(node).__name__}")


def walk(node: Node):
    """Yield ``node`` and all descendants, depth-first preorder."""
    yield node
    for child in children(node):
        yield from walk(child)


def free_identifiers(node: Node, bound: frozenset[str] = frozenset()) -> set[str]:
    """Names referenced but not bound within ``node``.

    Binding constructs: let definitions (scoped over later definitions
    and the body), forall index variable and definitions, for-iter loop
    names.
    """
    free: set[str] = set()

    def visit(n: Node, env: frozenset[str]) -> None:
        if isinstance(n, Ident):
            if n.name not in env:
                free.add(n.name)
            return
        if isinstance(n, Let):
            inner = env
            for d in n.defs:
                visit(d.expr, inner)
                inner = inner | {d.name}
            visit(n.body, inner)
            return
        if isinstance(n, Forall):
            visit(n.lo, env)
            visit(n.hi, env)
            inner = env | {n.var}
            for d in n.defs:
                visit(d.expr, inner)
                inner = inner | {d.name}
            visit(n.accum, inner)
            return
        if isinstance(n, ForallND):
            inner = env
            for r in n.ranges:
                visit(r.lo, env)
                visit(r.hi, env)
                inner = inner | {r.var}
            for d in n.defs:
                visit(d.expr, inner)
                inner = inner | {d.name}
            visit(n.accum, inner)
            return
        if isinstance(n, ForIter):
            inner = env
            for d in n.inits:
                visit(d.expr, env)
                inner = inner | {d.name}
            visit(n.body, inner)
            return
        for child in children(n):
            visit(child, env)

    visit(node, bound)
    return free


def used_definitions(defs: Sequence[Definition],
                     body: Node) -> list[Definition]:
    """The definitions of ``defs`` (bound in order, each in scope for
    the later ones and ``body``) that ``body`` names directly or
    through another used one, in declaration order."""
    need, used = free_identifiers(body), []
    for d in reversed(defs):
        if d.name in need:
            need = need - {d.name} | free_identifiers(d.expr)
            used.insert(0, d)
    return used

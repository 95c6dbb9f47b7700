"""Pipelined mapping of primitive expressions (Section 5, Theorem 1).

:class:`ExprBuilder` compiles a primitive expression on an index
variable ``i`` over a constant range ``[lo, hi]`` into an acyclic
dataflow instruction graph in which every value is a stream of one
token per (selected) iteration:

* scalar subexpressions over ``i`` and constants are folded at compile
  time into constant operands or pattern sources -- exactly how the
  paper's figures show literal constants in operand fields and
  precomputed boolean control sequences;
* array selections ``A[i+m]`` become boolean-gated identity cells that
  pass the used window of the input stream and *discard* the rest so
  unused elements cannot jam the pipe (Figure 4); the source-to-gate
  arc carries a balance weight of ``1 + 2*shift`` so the balancing pass
  inserts the skew FIFOs of Figure 4;
* conditionals gate each stream entering an arm (one shared identity
  cell per stream and split, with T/F destination tags) and re-combine
  the arms with a MERGE whose control is the condition stream (Figure
  5); conditions that depend only on ``i`` become compile-time patterns
  so the gates collapse into the window selections of Figure 6.

The graphs come out *unbalanced*; run
:func:`repro.compiler.balance.balance_graph` afterwards to insert the
FIFO buffers that make them fully pipelined.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Mapping, Optional

from ..errors import CompileError
from ..graph.cell import GATE_PORT
from ..graph.graph import DataflowGraph
from ..graph.opcodes import (
    BINARY_OPS,
    MERGE_CONTROL_PORT,
    MERGE_FALSE_PORT,
    MERGE_TRUE_PORT,
    Op,
)
from ..val import ast_nodes as A
from ..val.classify import index_offset
from ..val.interpreter import _binop
from .context import (
    ROOT,
    Context,
    Filter,
    Seq,
    Split,
    Uniform,
    as_uniform,
    is_compile_time,
    pick,
)

#: Val binary operator -> machine opcode.
BINOP_TO_OP = {
    "+": Op.ADD,
    "-": Op.SUB,
    "*": Op.MUL,
    "/": Op.DIV,
    "<": Op.LT,
    "<=": Op.LE,
    ">": Op.GT,
    ">=": Op.GE,
    "=": Op.EQ,
    "~=": Op.NE,
    "&": Op.AND,
    "|": Op.OR,
}

UNOP_TO_OP = {"-": Op.NEG, "~": Op.NOT}

#: Val's logical operators on truth values: ``bool(a) and bool(b)``
#: is ``bool(a) & bool(b)``, which folds a sequence at C speed
_LOGICAL = {"&": operator.and_, "|": operator.or_}

#: Operators accepted by :meth:`ExprBuilder.combine` -- the language's
#: binary operators plus the lattice pair used by tropical companion
#: pipelines.
COMBINE_OPS = {**BINOP_TO_OP, "max": Op.MAX, "min": Op.MIN}


@dataclass(frozen=True)
class Wire:
    """A runtime stream endpoint: producing cell, the selection context
    it carries, and the destination-arc tag consumers must use (set when
    the producer is a gated cell routing by T/F tags)."""

    cell: int
    ctx: Context
    tag: Optional[bool] = None


@dataclass(frozen=True)
class ArraySpec:
    """An input array arriving as a stream over index range [lo, hi]."""

    name: str
    lo: int
    hi: int

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


BValue = Any  # Uniform | Seq | Wire (builder-local wire)


class ExprBuilder:
    """Compiles primitive expressions into a shared
    :class:`~repro.graph.graph.DataflowGraph`.

    One builder per program block; the block compilers (forall /
    for-iter schemes) drive it and add the block boundary cells.
    """

    def __init__(
        self,
        g: DataflowGraph,
        index_var: Optional[str],
        lo: int,
        hi: int,
        params: Mapping[str, int],
        arrays: Mapping[str, ArraySpec],
        prefix: str = "",
    ) -> None:
        self.g = g
        self.index_var = index_var
        self.lo = lo
        self.hi = hi
        self.base = list(range(lo, hi + 1))
        self.params = dict(params)
        self.arrays = dict(arrays)
        self.prefix = prefix
        #: scalar bindings: name -> (value, context it was defined in)
        self.env: dict[str, tuple[BValue, Context]] = {}
        if index_var is not None:
            self.env[index_var] = (Seq(tuple(self.base)), ROOT)
        #: loop feedback endpoints: (array name, offset) -> Wire; consulted
        #: before input arrays so for-iter accumulator accesses resolve to
        #: the loop's x stream (set by the for-iter schemes)
        self.feedback: dict[tuple[str, int], Wire] = {}
        # caches ---------------------------------------------------------
        self._source_cells: dict[str, int] = {}
        self._pattern_cells: dict[tuple, int] = {}
        self._split_controls: dict[int, int] = {}
        self._gates: dict[tuple, int] = {}
        self._taps: dict[tuple, Wire] = {}

    # ------------------------------------------------------------------
    # naming
    # ------------------------------------------------------------------
    def _name(self, text: str) -> str:
        return f"{self.prefix}{text}" if self.prefix else text

    # ------------------------------------------------------------------
    # sources / pattern cells
    # ------------------------------------------------------------------
    def source_cell(self, name: str) -> int:
        """The (lazily created) SOURCE cell for input array ``name``."""
        if name not in self._source_cells:
            self._source_cells[name] = self.g.add_source(
                self._name(f"in_{name}"), stream=name
            )
        return self._source_cells[name]

    def pattern_cell(self, values: tuple, ctx: Context, kind: str = "seq") -> int:
        """A SOURCE cell emitting a compile-time value sequence, cached
        per (values, context) so aligned consumers share it."""
        key = (values, ctx.key(), kind)
        if key not in self._pattern_cells:
            self._pattern_cells[key] = self.g.add_pattern_source(
                self._name(f"{kind}{len(self._pattern_cells)}"), list(values)
            )
        return self._pattern_cells[key]

    # ------------------------------------------------------------------
    # splits and gating
    # ------------------------------------------------------------------
    def split_control(self, split: Split, ctx: Context) -> Wire:
        """The stream endpoint of the split's boolean control."""
        if split.sid not in self._split_controls:
            if split.is_static:
                assert split.pattern is not None
                cell = self.pattern_cell(split.pattern, ctx, kind="ctl")
            else:
                assert split.control_cell is not None
                cell = split.control_cell
            self._split_controls[split.sid] = cell
        return Wire(self._split_controls[split.sid], ctx, tag=None)

    def gate_through(self, wire: Wire, filt: Filter, ctx: Context) -> Wire:
        """Route ``wire`` through the filter's shared gated identity
        cell; the result endpoint carries the polarity tag."""
        key = (wire.cell, wire.tag, filt.split.sid)
        if key not in self._gates:
            gate = self.g.add_cell(
                Op.ID, name=self._name(f"gate{len(self._gates)}")
            )
            self.g.connect(wire.cell, gate, 0, tag=wire.tag)
            ctl = self.split_control(filt.split, ctx)
            self.g.connect(ctl.cell, gate, GATE_PORT, tag=ctl.tag)
            self._gates[key] = gate
        return Wire(self._gates[key], ctx.extend(filt), tag=filt.polarity)

    # ------------------------------------------------------------------
    # value adaptation / materialization / connection
    # ------------------------------------------------------------------
    def adapt(self, value: BValue, from_ctx: Context, to_ctx: Context) -> BValue:
        """Re-contextualize a value defined under ``from_ctx`` for use
        under the (extending) ``to_ctx``, inserting gates as needed."""
        if isinstance(value, Uniform):
            return value
        if not from_ctx.is_prefix_of(to_ctx):
            raise CompileError(
                "internal: use context does not extend definition context"
            )
        extra = to_ctx.filters[len(from_ctx.filters):]
        cur_ctx = from_ctx
        cur: BValue = value
        for filt in extra:
            if isinstance(cur, Seq):
                if filt.split.is_static:
                    assert filt.split.pattern is not None
                    if len(filt.split.pattern) != len(cur.values):
                        raise CompileError("internal: pattern/sequence mismatch")
                    cur = Seq(tuple(pick(
                        cur.values, filt.split.pattern, filt.polarity
                    )))
                    cur_ctx = cur_ctx.extend(filt)
                    continue
                cur = Wire(self.pattern_cell(cur.values, cur_ctx), cur_ctx)
            assert isinstance(cur, Wire)
            cur = self.gate_through(cur, filt, cur_ctx)
            cur_ctx = cur.ctx
        return cur

    def materialize(self, value: BValue, ctx: Context) -> Wire:
        """An endpoint producing ``value`` as a stream in ``ctx``."""
        if isinstance(value, Wire):
            return value
        if isinstance(value, Seq):
            return Wire(self.pattern_cell(value.values, ctx), ctx)
        if not ctx.is_static:
            raise CompileError(
                "cannot materialize a constant stream under a runtime "
                "conditional; restructure the expression"
            )
        n = len(ctx.selection(self.base))
        return Wire(self.pattern_cell(tuple([value.value] * n), ctx), ctx)

    def connect_value(self, value: BValue, dst: int, port: int, ctx: Context) -> None:
        """Feed ``value`` into ``(dst, port)``: constant operands for
        uniforms, arcs (with the producer's gate tag) otherwise."""
        u = as_uniform(value)
        if u is not None and not isinstance(value, Wire):
            self.g.set_const(dst, port, u)
            return
        wire = self.materialize(value, ctx)
        self.g.connect(wire.cell, dst, port, tag=wire.tag)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(self, expr: A.Expr, ctx: Context = ROOT) -> BValue:
        if isinstance(expr, A.Literal):
            return Uniform(expr.value)
        if isinstance(expr, A.Ident):
            return self._compile_ident(expr, ctx)
        if isinstance(expr, A.BinOp):
            return self._compile_binop(expr, ctx)
        if isinstance(expr, A.UnOp):
            return self._compile_unop(expr, ctx)
        if isinstance(expr, A.Builtin):
            return self._compile_builtin(expr, ctx)
        if isinstance(expr, A.Index):
            return self._compile_index(expr, ctx)
        if isinstance(expr, A.Let):
            return self._compile_let(expr, ctx)
        if isinstance(expr, A.If):
            return self._compile_if(expr, ctx)
        raise CompileError(
            f"{type(expr).__name__} at line {expr.line} is not a primitive "
            f"expression; cannot map it (Theorem 1 covers PEs only)"
        )

    def bind(self, name: str, value: BValue, ctx: Context) -> None:
        """Bind a scalar stream (used by the block compilers for loop
        parameters and the for-iter feedback leaf)."""
        self.env[name] = (value, ctx)

    def bind_feedback(self, array: str, offset: int, wire: Wire) -> None:
        """Route accesses ``array[i+offset]`` to a loop feedback stream."""
        self.feedback[(array, offset)] = wire

    def combine(self, op: str, left: BValue, right: BValue, ctx: Context) -> BValue:
        """Apply a binary operator (incl. max/min) to two compiled
        values (used by the for-iter schemes for companion-function
        stages); folds at compile time when both operands are known."""
        if is_compile_time(left) and is_compile_time(right):
            return self._fold(op, left, right, A.Literal(0, A.INTEGER))
        opcode = COMBINE_OPS[op]
        cell = self.g.add_cell(opcode, name=self._name(opcode.value))
        self.connect_value(left, cell, 0, ctx)
        self.connect_value(right, cell, 1, ctx)
        return Wire(cell, ctx)

    # -- identifiers ------------------------------------------------------
    def _compile_ident(self, expr: A.Ident, ctx: Context) -> BValue:
        name = expr.name
        if name in self.env:
            value, def_ctx = self.env[name]
            return self.adapt(value, def_ctx, ctx)
        if name in self.params:
            return Uniform(self.params[name])
        if name in self.arrays:
            raise CompileError(
                f"array {name!r} referenced without selection at line "
                f"{expr.line}"
            )
        raise CompileError(
            f"unbound identifier {name!r} at line {expr.line}; runtime "
            f"scalar inputs are not supported -- pass it via params= or as "
            f"an array"
        )

    # -- operators -----------------------------------------------------------
    def _fold(self, op: str, left: BValue, right: BValue, node: A.BinOp) -> BValue:
        # resolved once per fold, not per element: the function the
        # machine would apply to the unfolded operands; "/" keeps the
        # interpreter's zero check and integer rule
        if op == "/":
            apply = lambda a, b: _binop(op, a, b, node)  # noqa: E731
        else:
            apply = BINARY_OPS[COMBINE_OPS[op]]
        lv = left.values if isinstance(left, Seq) else None
        rv = right.values if isinstance(right, Seq) else None
        if lv is None and rv is None:
            return Uniform(apply(left.value, right.value))
        if lv is not None and rv is not None and len(lv) != len(rv):
            raise CompileError("internal: folded sequence length mismatch")
        ls = lv if lv is not None else repeat(left.value)
        rs = rv if rv is not None else repeat(right.value)
        if op in _LOGICAL:
            return Seq(tuple(map(_LOGICAL[op], map(bool, ls), map(bool, rs))))
        return Seq(tuple(map(apply, ls, rs)))

    def _compile_binop(self, expr: A.BinOp, ctx: Context) -> BValue:
        if expr.op not in BINOP_TO_OP:
            raise CompileError(f"operator {expr.op!r} not supported")
        left = self.compile(expr.left, ctx)
        right = self.compile(expr.right, ctx)
        if is_compile_time(left) and is_compile_time(right):
            return self._fold(expr.op, left, right, expr)
        opcode = BINOP_TO_OP[expr.op]
        cell = self.g.add_cell(opcode, name=self._name(opcode.value))
        self.connect_value(left, cell, 0, ctx)
        self.connect_value(right, cell, 1, ctx)
        return Wire(cell, ctx)

    def _compile_builtin(self, expr: A.Builtin, ctx: Context) -> BValue:
        """max/min: the MIN/MAX function-unit opcodes (binary after the
        parser's n-ary folding)."""
        opcode = Op.MAX if expr.name == "max" else Op.MIN
        left = self.compile(expr.args[0], ctx)
        right = self.compile(expr.args[1], ctx)
        if is_compile_time(left) and is_compile_time(right):
            fn = max if expr.name == "max" else min
            lv = left.values if isinstance(left, Seq) else None
            rv = right.values if isinstance(right, Seq) else None
            if lv is None and rv is None:
                return Uniform(fn(left.value, right.value))
            ls = lv if lv is not None else repeat(left.value)
            rs = rv if rv is not None else repeat(right.value)
            return Seq(tuple(map(fn, ls, rs)))
        cell = self.g.add_cell(opcode, name=self._name(expr.name))
        self.connect_value(left, cell, 0, ctx)
        self.connect_value(right, cell, 1, ctx)
        return Wire(cell, ctx)

    def _compile_unop(self, expr: A.UnOp, ctx: Context) -> BValue:
        operand = self.compile(expr.operand, ctx)
        if is_compile_time(operand):
            if isinstance(operand, Uniform):
                return Uniform(
                    -operand.value if expr.op == "-" else (not bool(operand.value))
                )
            fn = operator.neg if expr.op == "-" else operator.not_
            return Seq(tuple(map(fn, operand.values)))
        cell = self.g.add_cell(UNOP_TO_OP[expr.op], name=self._name(expr.op))
        self.connect_value(operand, cell, 0, ctx)
        return Wire(cell, ctx)

    # -- array selection (rule 4) ------------------------------------------
    def _compile_index(self, expr: A.Index, ctx: Context) -> BValue:
        if not isinstance(expr.base, A.Ident):
            raise CompileError(f"computed array base at line {expr.line}")
        name = expr.base.name
        if name in self.env:
            raise CompileError(f"indexing scalar {name!r} at line {expr.line}")
        if self.index_var is None:
            raise CompileError(
                f"array selection at line {expr.line} outside an indexed block"
            )
        offset = index_offset(expr.index, self.index_var, self.params)
        if offset is None:
            raise CompileError(
                f"selection index at line {expr.line} must be "
                f"{self.index_var}+m with constant m (rule 4)"
            )
        if (name, offset) in self.feedback:
            wire = self.feedback[(name, offset)]
            return self.adapt(wire, wire.ctx, ctx)
        if name not in self.arrays:
            raise CompileError(f"unknown array {name!r} at line {expr.line}")
        wire = self.tap(name, offset, ctx.static_prefix(), line=expr.line)
        return self.adapt(wire, wire.ctx, ctx)

    def tap(self, name: str, offset: int, prefix: Context, line: int = 0) -> Wire:
        """The gated window substream ``name[i+offset]`` for the
        iterations selected by the all-static context ``prefix``."""
        key = (name, offset, prefix.key())
        if key in self._taps:
            return self._taps[key]
        spec = self.arrays[name]
        length = spec.length
        selection = prefix.selection(self.base)
        # the stream position of each selected iteration, ascending
        shift = offset - spec.lo
        if selection and not (
            0 <= selection[0] + shift and selection[-1] + shift < length
        ):
            i = next(
                i for i in selection if not 0 <= i + shift < length
            )
            raise CompileError(
                f"access {name}[{self.index_var}{offset:+d}] at line "
                f"{line} reads index {i + offset}, outside the input "
                f"range [{spec.lo},{spec.hi}]; guard it with a "
                f"compile-time conditional on {self.index_var}"
            )
        src = self.source_cell(name)
        if len(selection) == length:
            # whole stream used in order: no selection gate needed
            wire = Wire(src, prefix)
            self._taps[key] = wire
            return wire
        first, used = selection[0] + shift, len(selection)
        if selection[-1] - selection[0] + 1 == used:
            pattern = [False] * first + [True] * used
            pattern += [False] * (length - len(pattern))
        else:
            hit = set(map(shift.__add__, selection))
            pattern = list(map(hit.__contains__, range(length)))
        gate = self.g.add_cell(Op.ID, name=self._name(f"sel_{name}{offset:+d}"))
        # Skew weight = the window's start shift (Figure 4): exact for
        # the contiguous windows of the paper's 1-D class.  Gapped
        # periodic selections (2-D stencils lowered to row-major
        # streams) drift briefly at row transitions, costing a short
        # refill stall per row that amortizes away with row width; see
        # repro.val.multidim.
        self.g.connect(src, gate, 0, weight=1 + 2 * first)
        ctl = self.g.add_pattern_source(
            self._name(f"win_{name}{offset:+d}"), pattern
        )
        self.g.connect(ctl, gate, GATE_PORT)
        wire = Wire(gate, prefix, tag=True)
        self._taps[key] = wire
        return wire

    # -- let ------------------------------------------------------------------
    def _compile_let(self, expr: A.Let, ctx: Context) -> BValue:
        saved = dict(self.env)
        try:
            for d in expr.defs:
                self.env[d.name] = (self.compile(d.expr, ctx), ctx)
            return self.compile(expr.body, ctx)
        finally:
            self.env = saved

    # -- conditionals ------------------------------------------------------------
    def _compile_if(self, expr: A.If, ctx: Context) -> BValue:
        cond = self.compile(expr.cond, ctx)
        u = as_uniform(cond)
        if u is not None and not isinstance(cond, Wire):
            return self.compile(expr.then if u else expr.els, ctx)
        if isinstance(cond, Seq):
            split = Split.from_pattern(list(map(bool, cond.values)))
        else:
            assert isinstance(cond, Wire)
            if cond.tag is not None:
                # A gated producer cannot directly drive fan-out control;
                # pass it through an identity endpoint first.
                ident = self.g.add_cell(Op.ID, name=self._name("ctlbuf"))
                self.g.connect(cond.cell, ident, 0, tag=cond.tag)
                cond = Wire(ident, ctx)
            split = Split.from_control(cond.cell)
        then_ctx = ctx.extend(Filter(split, True))
        else_ctx = ctx.extend(Filter(split, False))
        tv = self.compile(expr.then, then_ctx)
        ev = self.compile(expr.els, else_ctx)

        if (
            split.is_static
            and ctx.is_static
            and is_compile_time(tv)
            and is_compile_time(ev)
        ):
            return self._fold_if(split, tv, ev)

        merge = self.g.add_merge(name=self._name("merge"))
        if split.is_static:
            # The merge gets its OWN control sequence cell.  Sharing the
            # gates' control source would couple the merge's (output-
            # paced) consumption to the gates' (input-paced) consumption;
            # when skew buffers are deep (2-D stencils) a brief merge
            # pause then starves its own control through the stalled
            # gates -- a control-starvation stall the paper's per-
            # consumer counter subgraphs (Todd) never exhibit.
            assert split.pattern is not None
            ctl = Wire(
                self.pattern_cell(split.pattern, ctx, kind="mctl"), ctx
            )
        else:
            ctl = self.split_control(split, ctx)
        self.g.connect(ctl.cell, merge, MERGE_CONTROL_PORT, tag=ctl.tag)
        self.connect_value(tv, merge, MERGE_TRUE_PORT, then_ctx)
        self.connect_value(ev, merge, MERGE_FALSE_PORT, else_ctx)
        return Wire(merge, ctx)

    def _fold_if(self, split: Split, tv: BValue, ev: BValue) -> BValue:
        assert split.pattern is not None
        n_t = split.pattern.count(True)
        n_e = len(split.pattern) - n_t
        ts = tv.values if isinstance(tv, Seq) else (tv.value,) * n_t
        es = ev.values if isinstance(ev, Seq) else (ev.value,) * n_e
        if len(ts) != n_t or len(es) != n_e:
            raise CompileError("internal: folded arm length mismatch")
        # each pattern bool indexes the arm whose next value it takes
        arms = (iter(es), iter(ts))
        return Seq(tuple(map(next, map(arms.__getitem__, split.pattern))))


__all__ = [
    "ArraySpec",
    "BINOP_TO_OP",
    "COMBINE_OPS",
    "ExprBuilder",
    "UNOP_TO_OP",
    "Wire",
]

"""Pipelined mapping of for-iter constructs (Section 7, Theorem 3).

Three schemes:

* :func:`compile_foriter_todd` -- Todd's translation (Figure 7): the
  body F compiled as a feedback loop through a MERGE whose result is
  both the output and, under a gated destination, the next x input.
  Cycle length = F depth + 1, so Example 2 runs at rate **1/3**.
* :func:`compile_foriter_companion` -- the paper's contribution
  (Figure 8): extract the recurrence's companion algebra (affine ring,
  max-plus / min-plus tropical, or Moebius/linear-fractional), compute
  composed coefficients c_i = G(a_i, ..., a_{i-s+1}) in an acyclic
  *companion pipeline*, and run an even loop of length 2s with s values
  circulating: rate **1/2** (maximum) for the affine/tropical cases.
  ``s`` defaults to the algebra's minimum (2 for affine -- the paper's
  Figure 8 -- and 3 for Moebius whose F pipeline is deeper); larger
  distances use the associative G-tree.

  Injection note (measured): the first s values enter the loop through
  a funnel of merges; for the affine loop their arrival is even and
  the rate is exactly 1/2.  The deeper Moebius loop cannot be injected
  perfectly evenly by runtime-computed initial values -- a saturated
  loop never re-spaces its tokens -- so the Thomas-sweep measures
  II ~2.33 instead of 2.0 (still 1.7x over Todd's 4.0).  An alternative
  ``injection='prefix'`` strategy (identity-padded prefix coefficients,
  only the constant x0 injected) is provided; its guard merges cost
  more in practice (~3.3).  Closing this last gap appears to need
  elastic (multi-token) arcs, which the static architecture does not
  have.
* :func:`compile_foriter_interleaved` -- the Section 9 remark: a batch
  of b *independent* recurrence instances interleaved through one loop
  of length 2b; full rate without any companion function, trading
  latency and batching.

All schemes record their loop arcs in ``graph.meta['feedback_arcs']``
so the balancing pass leaves the cycles untouched.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from ..errors import CompileError, RecurrenceError
from ..graph.cell import GATE_PORT
from ..graph.graph import DataflowGraph
from ..graph.opcodes import (
    MERGE_CONTROL_PORT,
    MERGE_FALSE_PORT,
    MERGE_TRUE_PORT,
    Op,
)
from ..val import ast_nodes as A
from ..val.classify import ForIterInfo, classify_foriter
from ..val.interpreter import eval_expr
from .context import ROOT, Filter, Seq, Split, Uniform
from .expr import ArraySpec, ExprBuilder, Wire
from .forall import BlockArtifact, _finish_block
from .recurrence import LinearForm, MobiusForm, extract_recurrence, shift_index


def _eval_init(info: ForIterInfo, params: Mapping[str, int]) -> Any:
    """The accumulator's initial value (a scalar PE over constants)."""
    try:
        return eval_expr(info.init_expr, dict(params))
    except Exception as exc:
        raise CompileError(
            f"cannot evaluate the loop initial value at compile time: {exc}"
        ) from exc


def _annotate_loop(g: DataflowGraph, tokens: int) -> None:
    """Record the loop's structural rate bound in ``g.meta['loop']``.

    The marked-graph rate analysis cannot see values injected through a
    MERGE (it reports rate 0 for such cycles), so the schemes record
    the cycle length L (FIFOs expanded) and the number of circulating
    values k; the steady-state rate bound is min(k, L-k)/L -- 1/2 only
    when L = 2k (the paper's even-loop requirement).
    """
    from fractions import Fraction

    loop_arcs = g.meta.get("feedback_arcs", [])
    if not loop_arcs:
        return
    cells = {g.arcs[a].src for a in loop_arcs} | {
        g.arcs[a].dst for a in loop_arcs
    }
    length = sum(
        g.cells[c].params.get("depth", 1) if g.cells[c].op is Op.FIFO else 1
        for c in cells
    )
    rate = Fraction(min(tokens, length - tokens), length) if length else None
    g.meta["loop"] = {"length": length, "tokens": tokens, "rate_bound": rate}


def _mark_feedback(g: DataflowGraph) -> list[int]:
    """Record every arc inside a strongly connected component as a
    feedback (loop) arc so balancing skips it."""
    from ..analysis.scc import strongly_connected

    succ: dict[int, list[int]] = {}
    for arc in g.arcs.values():
        succ.setdefault(arc.src, []).append(arc.dst)
    sccs = strongly_connected(g.cells, succ)
    comp_of: dict[int, int] = {}
    for k, comp in enumerate(sccs):
        for cid in comp:
            comp_of[cid] = k
    big = {k for k, comp in enumerate(sccs) if len(comp) > 1}
    loop_arcs = [
        a.aid
        for a in g.arcs.values()
        if comp_of[a.src] == comp_of[a.dst] and comp_of[a.src] in big
    ]
    g.meta["feedback_arcs"] = loop_arcs
    return loop_arcs


def _serialize(
    builder: ExprBuilder, g: DataflowGraph, items: Sequence[Any], name: str
) -> Wire:
    """Funnel a list of single-token endpoints (Wire or constant) into
    one stream emitting them in order, via a chain of merges."""
    if all(not isinstance(it, Wire) for it in items):
        return Wire(
            g.add_pattern_source(f"{name}_init", [v for v in items]), ROOT
        )
    def endpoint(it: Any) -> Wire:
        if isinstance(it, Wire):
            return it
        return Wire(g.add_pattern_source(f"{name}_c{id(it)%997}", [it]), ROOT)

    acc = endpoint(items[0])
    for k in range(1, len(items)):
        merge = g.add_merge(name=f"{name}_ser{k}")
        ctl = g.add_pattern_source(
            f"{name}_serctl{k}", [True] * k + [False]
        )
        g.connect(ctl, merge, MERGE_CONTROL_PORT)
        g.connect(acc.cell, merge, MERGE_TRUE_PORT, tag=acc.tag)
        it = items[k]
        if isinstance(it, Wire):
            g.connect(it.cell, merge, MERGE_FALSE_PORT, tag=it.tag)
        else:
            g.set_const(merge, MERGE_FALSE_PORT, it)
        acc = Wire(merge, ROOT)
    return acc


# ---------------------------------------------------------------------------
# Todd's scheme (Figure 7)
# ---------------------------------------------------------------------------


def compile_foriter_todd(
    name: str,
    node: A.ForIter,
    arrays: Mapping[str, ArraySpec],
    params: Mapping[str, int],
) -> BlockArtifact:
    """Todd's translation: correct for every primitive for-iter, but the
    feedback cycle limits the rate to 1/(F depth + 1)."""
    info = classify_foriter(node, set(arrays), params)
    init_value = _eval_init(info, params)
    g = DataflowGraph(name)
    # The loop *body* (the definition part) is evaluated for every
    # counter value up to body_hi -- one past the last append when the
    # terminating arm does not append (paper Example 2 as printed) --
    # so the builder ranges over the body iterations and the element
    # value is narrowed to the appended ones.
    builder = ExprBuilder(
        g, info.counter, info.elem_lo, info.body_hi, params, arrays,
        prefix=f"{name}.",
    )
    elem_ctx = _window_ctx(builder, info.elem_lo, info.elem_hi)
    n_out = info.result_hi - info.result_lo + 1
    n_elem = info.n_elements
    n_body = info.body_hi - info.elem_lo + 1

    merge = g.add_merge(name=f"{name}.loop_merge")
    # The merge output is the x stream x_{r}, x_{lo}, ...; its gated
    # destinations feed the first n_body values back as x_{i-1}.
    builder.bind_feedback(info.acc, -1, Wire(merge, ROOT, tag=True))

    for d in info.let_defs:
        builder.bind(d.name, builder.compile(d.expr, ROOT), ROOT)
    f_out = builder.materialize(
        builder.compile(info.element_expr, elem_ctx), elem_ctx
    )
    in_ctl = g.add_pattern_source(
        f"{name}.initctl", [False] + [True] * n_elem
    )
    g.connect(in_ctl, merge, MERGE_CONTROL_PORT)
    g.connect(f_out.cell, merge, MERGE_TRUE_PORT, tag=f_out.tag)
    g.set_const(merge, MERGE_FALSE_PORT, init_value)

    # feedback switch: supply x values only while some cell consumes them
    feedback_used = any(
        arc.tag is True for arc in g.out_arcs[merge]
    )
    k = n_body if feedback_used else 0
    fb_ctl = g.add_pattern_source(
        f"{name}.fbctl", [True] * k + [False] * (n_out - k)
    )
    g.connect(fb_ctl, merge, GATE_PORT)

    art = _finish_block(
        name, g, builder, Wire(merge, ROOT), info.result_lo, info.result_hi,
        arrays,
    )
    art.feedback_arcs = _mark_feedback(g)
    _annotate_loop(g, tokens=1)
    return art


# ---------------------------------------------------------------------------
# Companion scheme (Figure 8)
# ---------------------------------------------------------------------------


def compile_foriter_companion(
    name: str,
    node: A.ForIter,
    arrays: Mapping[str, ArraySpec],
    params: Mapping[str, int],
    distance: int = 2,
    injection: str = "funnel",
) -> BlockArtifact:
    """The paper's maximum-rate scheme, generalized over companion
    algebras.

    ``distance`` (s) is the dependence distance after companion
    composition; the loop has 2s stages with s values circulating, so
    the rate is the maximum 1/2 for every supported algebra.  The
    minimum s depends on the recurrence function's depth: 2 for affine
    and tropical forms (the paper's Figure 8), 3 for linear fractional
    (Moebius) forms whose F is MUL/ADD//MUL/ADD/DIV.  Larger distances
    exercise the log-depth associative G tree (Section 7's remark).
    """
    if distance < 2:
        raise CompileError("companion distance must be >= 2")
    if injection not in ("funnel", "prefix"):
        raise CompileError(f"unknown injection strategy {injection!r}")
    info = classify_foriter(node, set(arrays), params)
    form = extract_recurrence(info, params)  # may raise RecurrenceError
    impl = _f_impl(form)
    if injection == "prefix":
        return _compile_companion_prefix(
            name, node, info, impl, arrays, params, distance
        )
    s = max(distance, impl.min_distance)
    init_value = _eval_init(info, params)
    n_out = info.result_hi - info.result_lo + 1
    n_elem = info.n_elements
    _ = n_elem

    g = DataflowGraph(name)
    builder = ExprBuilder(
        g, info.counter, info.elem_lo, info.elem_hi, params, arrays,
        prefix=f"{name}.",
    )

    if n_out <= s:
        # Degenerate short loop: unroll completely, no feedback at all.
        values = _unrolled_values(
            builder, info, impl, params, init_value, n_out - 1
        )
        out = _serialize(builder, g, values, f"{name}.unroll")
        art = _finish_block(
            name, g, builder, out, info.result_lo, info.result_hi, arrays
        )
        art.feedback_arcs = _mark_feedback(g)
        return art

    # -- companion pipeline: composed coefficients for i in [lo+s-1, hi] --
    comp_ctx = _window_ctx(builder, info.elem_lo + s - 1, info.elem_hi)
    comps = _composed_coefficients(builder, info, impl, params, s, comp_ctx)

    # -- initial values x_r .. x_{r+s-1} (the first is the init constant) --
    inits = _unrolled_values(builder, info, impl, params, init_value, s - 1)
    funnel = _serialize(builder, g, inits, f"{name}.init")

    # -- the even loop: F cells, MERGE, [FIFO pad], gated ID ----------------
    f_out, x_ports = impl.emit_f(g, builder, name, comps, comp_ctx)
    merge = g.add_merge(name=f"{name}.loop_merge")
    in_ctl = g.add_pattern_source(
        f"{name}.initctl", [False] * s + [True] * (n_out - s)
    )
    g.connect(in_ctl, merge, MERGE_CONTROL_PORT)
    g.connect(f_out, merge, MERGE_TRUE_PORT)
    g.connect(funnel.cell, merge, MERGE_FALSE_PORT, tag=funnel.tag)

    # feedback path: pad so the cycle has exactly 2s stages
    pad = 2 * s - (impl.f_depth + 2)  # F stages + MERGE + gate
    fb_src: int = merge
    if pad > 0:
        fifo = g.add_fifo(pad, name=f"{name}.loop_pad")
        g.connect(merge, fifo, 0)
        fb_src = fifo
    gate = g.add_cell(Op.ID, name=f"{name}.loop_gate")
    fb_ctl = g.add_pattern_source(
        f"{name}.fbctl", [True] * (n_out - s) + [False] * s
    )
    g.connect(fb_src, gate, 0)
    g.connect(fb_ctl, gate, GATE_PORT)
    for cell, port in x_ports:
        g.connect(gate, cell, port, tag=True)

    art = _finish_block(
        name, g, builder, Wire(merge, ROOT), info.result_lo, info.result_hi,
        arrays,
    )
    art.feedback_arcs = _mark_feedback(g)
    _annotate_loop(g, tokens=s)
    return art


def _compile_companion_prefix(
    name: str,
    node: A.ForIter,
    info: ForIterInfo,
    impl,
    arrays: Mapping[str, ArraySpec],
    params: Mapping[str, int],
    distance: int,
) -> BlockArtifact:
    """Maximum-rate companion loop with *identity-padded prefix*
    coefficients.

    Instead of pre-computing s-1 initial values and funnelling them into
    the loop (whose uneven arrival permanently de-spaces a saturated
    loop), every output is computed from the constant x0:

        x_i = F(M_i o ... o M_max(lo, i-s+1), x_{i-s})   with
        M_j = identity for j < lo,

    so the early iterations use shorter prefixes (identity padding folds
    away at compile time) and the x input needs only the always-ready
    constant x0 for the first s firings -- injection timing is perfect
    by construction and the loop sustains the full rate 1/2.
    """
    init_value = _eval_init(info, params)
    n_out = info.result_hi - info.result_lo + 1
    n_elem = info.n_elements
    lo = info.elem_lo
    s_min = -(-(impl.f_depth + 3) // 2)  # ceil((F + inject + merge + gate)/2)
    s = max(distance, s_min)

    g = DataflowGraph(name)
    builder = ExprBuilder(
        g, info.counter, info.elem_lo, info.elem_hi, params, arrays,
        prefix=f"{name}.",
    )

    # -- identity-padded shifted coefficient leaves over the full range --
    leaves = []
    for k in range(min(s, n_elem)):
        comps_k = []
        for comp, ident in zip(impl.components, impl.identity):
            expr = shift_index(comp, info.counter, k, params)
            if k > 0:
                guard = A.BinOp(
                    "<",
                    A.BinOp(
                        "-", A.Ident(info.counter), A.Literal(k, A.INTEGER)
                    ),
                    A.Literal(lo, A.INTEGER),
                )
                expr = A.If(guard, A.Literal(ident, A.REAL), expr)
            comps_k.append(builder.compile(expr, ROOT))
        leaves.append(tuple(comps_k))
    level = leaves
    while len(level) > 1:
        nxt = []
        for j in range(0, len(level) - 1, 2):
            nxt.append(impl.compose(builder, level[j], level[j + 1], ROOT))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    comps = level[0]

    # -- F cells --------------------------------------------------------
    f_out, x_ports = impl.emit_f(g, builder, name, comps, ROOT)

    # -- x injector: constant x0 for the first s iterations --------------
    inject = g.add_merge(name=f"{name}.loop_inject")
    n_fb = max(0, n_elem - s)
    inj_ctl = g.add_pattern_source(
        f"{name}.injctl", [True] * min(s, n_elem) + [False] * n_fb
    )
    g.connect(inj_ctl, inject, MERGE_CONTROL_PORT)
    g.set_const(inject, MERGE_TRUE_PORT, init_value)
    for cell, port in x_ports:
        g.connect(inject, cell, port)

    # -- output merge: x0 first, then the computed stream ----------------
    merge = g.add_merge(name=f"{name}.loop_merge")
    out_ctl = g.add_pattern_source(
        f"{name}.initctl", [False] + [True] * n_elem
    )
    g.connect(out_ctl, merge, MERGE_CONTROL_PORT)
    g.connect(f_out, merge, MERGE_TRUE_PORT)
    g.set_const(merge, MERGE_FALSE_PORT, init_value)

    # -- feedback: outputs x_lo .. x_{hi-s} re-enter as x_{i-s} ----------
    if n_fb > 0:
        pad = 2 * s - (impl.f_depth + 3)
        fb_src: int = merge
        if pad > 0:
            fifo = g.add_fifo(pad, name=f"{name}.loop_pad")
            g.connect(merge, fifo, 0)
            fb_src = fifo
        gate = g.add_cell(Op.ID, name=f"{name}.loop_gate")
        fb_ctl = g.add_pattern_source(
            f"{name}.fbctl",
            [False] + [True] * n_fb + [False] * (n_out - 1 - n_fb),
        )
        g.connect(fb_src, gate, 0)
        g.connect(fb_ctl, gate, GATE_PORT)
        g.connect(gate, inject, MERGE_FALSE_PORT, tag=True)
    else:
        g.set_const(inject, MERGE_FALSE_PORT, init_value)  # never selected

    art = _finish_block(
        name, g, builder, Wire(merge, ROOT), info.result_lo, info.result_hi,
        arrays,
    )
    art.feedback_arcs = _mark_feedback(g)
    _annotate_loop(g, tokens=s)
    _ = node
    return art


class _AffineImpl:
    """F = (x otimes c1) oplus c0 over a ring or tropical semiring."""

    f_depth = 2
    min_distance = 2

    def __init__(self, form: LinearForm) -> None:
        self.form = form
        self.algebra = form.algebra
        #: the identity transform's components ((x) identity, (+) identity)
        self.identity = (form.algebra.one, form.algebra.zero)

    @property
    def components(self):
        return (self.form.coeff, self.form.offset)

    def compose(self, builder, p, q, ctx):
        ot, op = self.algebra.otimes, self.algebra.oplus
        c1 = builder.combine(ot, p[0], q[0], ctx)
        c0 = builder.combine(op, builder.combine(ot, p[0], q[1], ctx), p[1], ctx)
        return (c1, c0)

    def emit_f(self, g, builder, name, comps, ctx):
        from .expr import COMBINE_OPS

        alg = self.algebra
        otimes = g.add_cell(COMBINE_OPS[alg.otimes], name=f"{name}.loop_otimes")
        oplus = g.add_cell(COMBINE_OPS[alg.oplus], name=f"{name}.loop_oplus")
        builder.connect_value(comps[0], otimes, 0, ctx)
        g.connect(otimes, oplus, 0)
        builder.connect_value(comps[1], oplus, 1, ctx)
        return oplus, [(otimes, 1)]

    def eval_scalar(self, builder, comps, prev, ctx):
        term = builder.combine(self.algebra.otimes, prev, comps[0], ctx)
        return builder.combine(self.algebra.oplus, term, comps[1], ctx)


class _MobiusImpl:
    """F = (a x + b) / (c x + d); G = 2x2 matrix product (associative).

    The F pipeline is MUL/ADD in the numerator and denominator (in
    parallel) feeding a DIV: depth 3, so the minimum even loop has 6
    stages with 3 circulating values.
    """

    f_depth = 3
    min_distance = 3
    #: the identity matrix [[1, 0], [0, 1]]
    identity = (1.0, 0.0, 0.0, 1.0)

    def __init__(self, form: MobiusForm) -> None:
        self.form = form

    @property
    def components(self):
        return self.form.components

    def compose(self, builder, p, q, ctx):
        def dot(u1, v1, u2, v2):
            return builder.combine(
                "+",
                builder.combine("*", u1, v1, ctx),
                builder.combine("*", u2, v2, ctx),
                ctx,
            )

        pa, pb, pc, pd = p
        qa, qb, qc, qd = q
        return (
            dot(pa, qa, pb, qc),
            dot(pa, qb, pb, qd),
            dot(pc, qa, pd, qc),
            dot(pc, qb, pd, qd),
        )

    def emit_f(self, g, builder, name, comps, ctx):
        num_mul = g.add_cell(Op.MUL, name=f"{name}.loop_num_mul")
        num_add = g.add_cell(Op.ADD, name=f"{name}.loop_num_add")
        den_mul = g.add_cell(Op.MUL, name=f"{name}.loop_den_mul")
        den_add = g.add_cell(Op.ADD, name=f"{name}.loop_den_add")
        div = g.add_cell(Op.DIV, name=f"{name}.loop_div")
        builder.connect_value(comps[0], num_mul, 0, ctx)
        builder.connect_value(comps[1], num_add, 1, ctx)
        builder.connect_value(comps[2], den_mul, 0, ctx)
        builder.connect_value(comps[3], den_add, 1, ctx)
        g.connect(num_mul, num_add, 0)
        g.connect(den_mul, den_add, 0)
        g.connect(num_add, div, 0)
        g.connect(den_add, div, 1)
        return div, [(num_mul, 1), (den_mul, 1)]

    def eval_scalar(self, builder, comps, prev, ctx):
        num = builder.combine(
            "+", builder.combine("*", comps[0], prev, ctx), comps[1], ctx
        )
        den = builder.combine(
            "+", builder.combine("*", comps[2], prev, ctx), comps[3], ctx
        )
        return builder.combine("/", num, den, ctx)


def _f_impl(form):
    if isinstance(form, MobiusForm):
        return _MobiusImpl(form)
    return _AffineImpl(form)


def _window_ctx(builder: ExprBuilder, lo: int, hi: int):
    """A static context selecting iterations [lo, hi] of the builder's
    base range."""
    pattern = [lo <= i <= hi for i in builder.base]
    if all(pattern):
        return ROOT
    return ROOT.extend(Filter(Split.from_pattern(pattern), True))


def _composed_coefficients(
    builder: ExprBuilder,
    info: ForIterInfo,
    impl,
    params: Mapping[str, int],
    s: int,
    ctx,
):
    """The composed coefficient streams via a log-depth tree of G stages.

    The delayed parameter streams a_{i-k} are obtained by compiling the
    coefficient expressions with the index substituted (i -> i-k); the
    balancing pass aligns the resulting window skews automatically.
    G is associative in every supported algebra, so the tree reduction
    (left = newer indices) is valid.
    """
    leaves = []
    for k in range(s):
        leaves.append(
            tuple(
                builder.compile(
                    shift_index(comp, info.counter, k, params), ctx
                )
                for comp in impl.components
            )
        )
    level = leaves
    while len(level) > 1:
        nxt = []
        for j in range(0, len(level) - 1, 2):
            nxt.append(impl.compose(builder, level[j], level[j + 1], ctx))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _unrolled_values(
    builder: ExprBuilder,
    info: ForIterInfo,
    impl,
    params: Mapping[str, int],
    init_value: Any,
    count: int,
) -> list[Any]:
    """[x_r, x_lo, ..., x_{lo+count-1}] as single-token endpoints or
    constants, computed by an unrolled acyclic chain."""
    values: list[Any] = [init_value]
    prev: Any = Uniform(init_value)
    for j in range(count):
        i_val = info.elem_lo + j
        ctx_j = _single_ctx(builder, i_val)
        comps = tuple(builder.compile(c, ctx_j) for c in impl.components)
        x_j = impl.eval_scalar(builder, comps, prev, ctx_j)
        values.append(
            x_j.value if isinstance(x_j, Uniform) else _single_wire(builder, x_j, ctx_j)
        )
        prev = x_j
    return values


def _single_ctx(builder: ExprBuilder, i_val: int):
    pattern = [i == i_val for i in builder.base]
    return ROOT.extend(Filter(Split.from_pattern(pattern), True))


def _single_wire(builder: ExprBuilder, v: Any, ctx) -> Wire:
    if isinstance(v, Wire):
        return v
    if isinstance(v, Uniform):
        return builder.materialize(Seq((v.value,)), ctx)
    return builder.materialize(v, ctx)


# ---------------------------------------------------------------------------
# Interleaved batch scheme (Section 9 remark)
# ---------------------------------------------------------------------------


def compile_foriter_interleaved(
    name: str,
    node: A.ForIter,
    arrays: Mapping[str, ArraySpec],
    params: Mapping[str, int],
    batch: int,
) -> BlockArtifact:
    """Run ``batch`` independent instances of the recurrence through one
    loop of length 2*batch: full rate with *no* companion function, at
    the cost of batching and latency (the Section 9 trade-off).

    Input streams must be interleaved round-robin (instance j's element
    i at position ``(i - lo)*batch + j``; see :func:`interleave`), and
    only offset-0 array accesses are supported.  The output stream is
    interleaved the same way (:func:`deinterleave`).
    """
    if batch < 2:
        raise CompileError("interleaved scheme needs batch >= 2")
    info = classify_foriter(node, set(arrays), params)
    for access in info.accesses:
        if access.array != info.acc and access.offset != 0:
            raise CompileError(
                f"interleaved scheme supports offset-0 accesses only, got "
                f"{access.array}[{info.counter}{access.offset:+d}]"
            )
    init_value = _eval_init(info, params)
    n_elem = info.n_elements
    n_out = info.result_hi - info.result_lo + 1
    total_in = n_elem * batch
    total_out = n_out * batch

    g = DataflowGraph(name)
    ispecs = {
        a.name: ArraySpec(a.name, 0, total_in - 1) for a in arrays.values()
    }
    builder = ExprBuilder(
        g, info.counter, 0, total_in - 1, params, ispecs, prefix=f"{name}."
    )
    # the counter *value* at interleaved position p is lo + p // batch
    builder.bind(
        info.counter,
        Seq(tuple(info.elem_lo + p // batch for p in range(total_in))),
        ROOT,
    )

    merge = g.add_merge(name=f"{name}.loop_merge")
    fb_ctl = g.add_pattern_source(
        f"{name}.fbctl", [True] * (total_out - batch) + [False] * batch
    )
    # loop: F cells ... -> MERGE -> FIFO pad -> gated ID -> F x-entry
    gate = g.add_cell(Op.ID, name=f"{name}.loop_gate")
    g.connect(fb_ctl, gate, GATE_PORT)
    builder.bind_feedback(info.acc, -1, Wire(gate, ROOT, tag=True))

    for d in info.let_defs:
        builder.bind(d.name, builder.compile(d.expr, ROOT), ROOT)
    f_out = builder.materialize(
        builder.compile(info.element_expr, ROOT), ROOT
    )
    in_ctl = g.add_pattern_source(
        f"{name}.initctl", [False] * batch + [True] * (total_out - batch)
    )
    g.connect(in_ctl, merge, MERGE_CONTROL_PORT)
    g.connect(f_out.cell, merge, MERGE_TRUE_PORT, tag=f_out.tag)
    g.set_const(merge, MERGE_FALSE_PORT, init_value)

    # close the loop with enough padding for 2*batch stages
    loop_arcs_before = _loop_depth_estimate(g, gate, merge, f_out.cell)
    pad = 2 * batch - loop_arcs_before
    if pad < 0:
        raise CompileError(
            f"batch {batch} too small for an F pipeline of depth "
            f"{loop_arcs_before - 3}; increase the batch"
        )
    src = merge
    if pad > 0:
        fifo = g.add_fifo(pad, name=f"{name}.loop_pad")
        g.connect(merge, fifo, 0)
        src = fifo
    g.connect(src, gate, 0)

    art = _finish_block(
        name, g, builder, Wire(merge, ROOT), 0, total_out - 1, ispecs
    )
    art.feedback_arcs = _mark_feedback(g)
    _annotate_loop(g, tokens=batch)
    return art


def _loop_depth_estimate(
    g: DataflowGraph, gate: int, merge: int, f_out: int
) -> int:
    """Stages on the cycle gate -> F ... -> merge -> (pad) -> gate,
    excluding the pad: longest path from the gate to the merge plus the
    gate itself."""
    # BFS longest path on the acyclic F subgraph from gate to f_out.
    order = g.topo_order(ignore_arcs=[])
    depth: dict[int, Optional[int]] = {cid: None for cid in g.cells}
    depth[gate] = 0
    for cid in order:
        if depth[cid] is None:
            continue
        for arc in g.out_arcs[cid]:
            dst_cell = g.cells[arc.dst]
            w = dst_cell.params.get("depth", 1) if dst_cell.op is Op.FIFO else 1
            d = depth[cid] + w
            if depth[arc.dst] is None or d > depth[arc.dst]:
                depth[arc.dst] = d
    if depth[merge] is None:
        raise CompileError("internal: no path from feedback gate to merge")
    return depth[merge] + 1  # + the gate stage itself


# ---------------------------------------------------------------------------
# host-side interleave helpers
# ---------------------------------------------------------------------------


def interleave(streams: Sequence[Sequence[Any]]) -> list[Any]:
    """Round-robin interleave equal-length instance streams."""
    lengths = {len(s) for s in streams}
    if len(lengths) != 1:
        raise CompileError("interleave needs equal-length streams")
    out = []
    for k in range(lengths.pop()):
        for s in streams:
            out.append(s[k])
    return out


def deinterleave(stream: Sequence[Any], batch: int) -> list[list[Any]]:
    """Inverse of :func:`interleave`."""
    if len(stream) % batch:
        raise CompileError("stream length not a multiple of the batch")
    return [list(stream[j::batch]) for j in range(batch)]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def compile_foriter(
    name: str,
    node: A.ForIter,
    arrays: Mapping[str, ArraySpec],
    params: Mapping[str, int],
    scheme: str = "companion",
    distance: int = 2,
    batch: int = 4,
    injection: str = "funnel",
) -> BlockArtifact:
    """Compile a primitive for-iter with the chosen scheme.

    ``scheme='auto'`` uses the companion scheme when the recurrence is
    *simple* (affine) and falls back to Todd's scheme otherwise --
    the compile-time analysis the paper proposes.
    """
    if scheme == "auto":
        try:
            return compile_foriter_companion(
                name, node, arrays, params, distance, injection
            )
        except RecurrenceError:
            return compile_foriter_todd(name, node, arrays, params)
    if scheme == "companion":
        return compile_foriter_companion(
            name, node, arrays, params, distance, injection
        )
    if scheme == "todd":
        return compile_foriter_todd(name, node, arrays, params)
    if scheme == "interleaved":
        return compile_foriter_interleaved(name, node, arrays, params, batch)
    raise CompileError(f"unknown for-iter scheme {scheme!r}")


__all__ = [
    "compile_foriter",
    "compile_foriter_companion",
    "compile_foriter_interleaved",
    "compile_foriter_todd",
    "deinterleave",
    "interleave",
]

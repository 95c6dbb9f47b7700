"""Recurrence analysis and companion functions (Section 7).

A *simple for-iter* denotes a first-order recurrence
``x_i = F(a_i, x_{i-1})`` whose recurrence function has a *companion
function* G with ``F(a, F(b, x)) = F(G(a, b), x)``.  For the linear
(affine) class the paper treats::

    x_i = a1_i * x_{i-1} + a0_i
    G((p1, p0), (q1, q0)) = (p1*q1, p1*q0 + p0)

G is associative, so a dependence distance of ``s`` needs only a
``log2 s``-deep tree of G stages (the paper's remark after Theorem 3).

One walker splits an expression around ``x = X[i-1]`` into the pair of
coefficient expressions ``(P1, P0)`` with ``expr == (x otimes P1) oplus
P0`` over an :class:`Algebra` -- both primitive expressions on ``i``
that do *not* reference the accumulator.  It owns literals, names,
lets, ``X[i-1]`` and x-free conditions, and hands operator nodes to
one rule per algebra: ``+ - * /`` over the ring, the ``max``/``min``
builtin and shifts over the tropical semirings.
:func:`extract_linear_form` splits the element expression with it, and
:func:`extract_mobius_form` splits the numerator and denominator of a
linear fractional ``N / D``.  When no algebra fits,
:class:`RecurrenceError` is raised (no companion function is known
then, and the compiler falls back to Todd's scheme).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..errors import RecurrenceError
from ..val import ast_nodes as A
from ..val.classify import ForIterInfo, index_offset

#: Sentinels for coefficient simplification: the algebra's zero and one.
_ZERO = object()
_ONE = object()

Coeff = object  # _ZERO | _ONE | A.Expr
Pair = tuple[Coeff, Coeff]
Split = Callable[[A.Expr], Pair]


@dataclass(frozen=True)
class Algebra:
    """A (commutative-enough) semiring the recurrence is linear over.

    The recurrence function is ``F(a, x) = (x otimes a1) oplus a0`` and
    its companion function is always
    ``G(p, q) = (p1 otimes q1, (p1 otimes q0) oplus p0)`` -- the ring
    case is the paper's; the tropical cases extend Theorem 3 to
    running-max/min recurrences (Kogge's general class, refs [11][12]).
    """

    name: str        # 'ring' | 'maxplus' | 'minplus'
    otimes: str      # combine-op key: '*' or '+'
    oplus: str       # combine-op key: '+' or 'max' / 'min'
    zero: float      # oplus identity (annihilates under otimes)
    one: float       # otimes identity


RING = Algebra("ring", "*", "+", 0.0, 1.0)
MAXPLUS = Algebra("maxplus", "+", "max", float("-inf"), 0.0)
MINPLUS = Algebra("minplus", "+", "min", float("inf"), 0.0)


@dataclass
class LinearForm:
    """``element_expr == (X[i-1] otimes coeff) oplus offset`` with
    X-free coefficient expressions; ring instance:
    ``coeff * X[i-1] + offset``."""

    coeff: A.Expr
    offset: A.Expr
    algebra: Algebra = RING


def _as_ast(c: Coeff, algebra: Algebra) -> A.Expr:
    if c is _ZERO:
        return A.Literal(algebra.zero, A.REAL)
    if c is _ONE:
        return A.Literal(algebra.one, A.REAL)
    assert isinstance(c, A.Node)
    return c


def _join(op: str, a: Coeff, b: Coeff, algebra: Algebra) -> Coeff:
    """``a op b`` with the algebra's identities folded away: zero is the
    identity of oplus (and the right identity of ``-``) and annihilates
    otimes (and a dividend); one is the identity of otimes."""
    if b is _ZERO and op in (algebra.oplus, "-"):
        return a
    if a is _ZERO and op == algebra.oplus:
        return b
    if op == algebra.otimes:
        if a is _ZERO or b is _ZERO:
            return _ZERO
        if a is _ONE:
            return b
        if b is _ONE:
            return a
    if a is _ZERO and op == "/":
        return _ZERO
    left, right = _as_ast(a, algebra), _as_ast(b, algebra)
    if op in ("max", "min"):
        return A.Builtin(op, [left, right])
    return A.BinOp(op, left, right)


def _unsupported(expr: A.Expr) -> RecurrenceError:
    return RecurrenceError(
        f"{type(expr).__name__} at line {getattr(expr, 'line', 0)} is "
        f"not allowed in a recurrence element expression"
    )


def _ring_rule(expr: A.Expr, split: Split, algebra: Algebra) -> Pair:
    """``+ - * /`` and unary minus over the ring; every other operator
    may only combine x-free operands."""
    if isinstance(expr, A.Builtin):
        raise _unsupported(expr)
    if isinstance(expr, A.UnOp):
        a, b = split(expr.operand)
        if expr.op == "-":
            return tuple(
                _ZERO if c is _ZERO else A.UnOp("-", _as_ast(c, algebra))
                for c in (a, b)
            )
        if a is not _ZERO:
            raise RecurrenceError(
                f"boolean negation of the accumulator at line {expr.line}"
            )
        return (_ZERO, expr)
    (la, lb), (ra, rb) = split(expr.left), split(expr.right)
    if expr.op in ("+", "-"):
        return (
            _join(expr.op, la, ra, algebra), _join(expr.op, lb, rb, algebra)
        )
    if expr.op == "*":
        if la is not _ZERO and ra is not _ZERO:
            raise RecurrenceError(
                f"recurrence is quadratic in the accumulator at line "
                f"{expr.line}; no companion function"
            )
        # (A x + B) * b  or  a * (A x + B): the x-free side scales both
        a, b = (ra, lb) if la is _ZERO else (la, rb)
        return (_join("*", a, b, algebra), _join("*", lb, rb, algebra))
    if expr.op == "/":
        if ra is not _ZERO:
            raise RecurrenceError(
                f"division by the accumulator at line {expr.line}; "
                f"no companion function"
            )
        return (_join("/", la, rb, algebra), _join("/", lb, rb, algebra))
    # relational / boolean operators may not involve x
    if la is not _ZERO or ra is not _ZERO:
        raise RecurrenceError(
            f"accumulator used under {expr.op!r} at line {expr.line}; "
            f"recurrence is not affine"
        )
    return (_ZERO, expr)


def _tropical_rule(expr: A.Expr, split: Split, algebra: Algebra) -> Pair:
    """The ``oplus`` builtin (``max`` or ``min``) and shifts by ``+`` /
    ``-`` over max-plus or min-plus; every other operator may only
    combine x-free operands (scaling does not distribute over max/min
    without sign knowledge)."""
    if isinstance(expr, A.Builtin):
        if expr.name == algebra.oplus:
            (la, lb), (ra, rb) = split(expr.args[0]), split(expr.args[1])
            return (
                _join(algebra.oplus, la, ra, algebra),
                _join(algebra.oplus, lb, rb, algebra),
            )
        # the dual lattice op may only touch x-free parts
        if any([split(arg)[0] is not _ZERO for arg in expr.args]):
            raise RecurrenceError(
                f"{expr.name} of the accumulator inside a "
                f"{algebra.name} recurrence (line {expr.line})"
            )
        return (_ZERO, expr)
    if isinstance(expr, A.UnOp):
        if split(expr.operand)[0] is not _ZERO:
            raise RecurrenceError(
                f"negating the accumulator at line {expr.line} flips "
                f"the lattice; not {algebra.name}-linear"
            )
        return (_ZERO, expr)
    (la, lb), (ra, rb) = split(expr.left), split(expr.right)
    if la is _ZERO and ra is _ZERO:
        return (_ZERO, expr)
    if expr.op not in ("+", "-"):
        raise RecurrenceError(
            f"accumulator under {expr.op!r} at line {expr.line}; "
            f"not {algebra.name}-linear"
        )
    if la is not _ZERO and ra is not _ZERO:
        raise RecurrenceError(
            f"accumulator appears on both sides of {expr.op!r} "
            f"at line {expr.line} (not tropical-linear)"
        )
    if la is not _ZERO:
        # (x (+) A) (+) e2 and B (+) e2, e2 x-free: shift both by +-e2
        e2 = expr.right
        return tuple(
            _join("+", c, A.UnOp("-", e2) if expr.op == "-" else e2, algebra)
            for c in (la, lb)
        )
    if expr.op == "-":
        raise RecurrenceError(
            f"subtracting the accumulator at line {expr.line} "
            f"flips the lattice; not {algebra.name}-linear"
        )
    return tuple(_join("+", c, expr.left, algebra) for c in (ra, rb))


def _binding(name: str, scope: tuple) -> int:
    """Position in ``scope`` (the let definitions in force, outermost
    first) of the definition ``name`` refers to; -1 if none binds it."""
    return max((k for k, d in enumerate(scope) if d.name == name), default=-1)


def _close(c: Coeff, scope: tuple) -> Coeff:
    """``c`` under a let of the definitions of ``scope`` it names, directly
    or through a kept definition: the walker keeps x-free conditions and
    shifts as written, and a coefficient is compiled outside all lets."""
    if c is _ZERO or c is _ONE:
        return c
    kept = A.used_definitions(scope, c)
    return A.Let(kept, c) if kept else c


def _splitter(
    info: ForIterInfo, params: Mapping[str, int], algebra: Algebra
) -> Callable[[A.Expr, tuple], Pair]:
    """The walker: ``split(expr, scope)`` returns ``(P1, P0)`` with
    ``expr == (x otimes P1) oplus P0``, x = ``acc[counter-1]``, for
    ``expr`` written under the let definitions ``scope``.  A definition
    is split once, in its own scope; a pair leaves a scope closed over
    the definitions it names, so a later let cannot capture them."""
    acc, counter = info.acc, info.counter
    rule = _ring_rule if algebra is RING else _tropical_rule
    pairs: dict[int, Pair] = {}

    def bound(k: int, scope: tuple) -> Pair:
        d = scope[k]
        if id(d) not in pairs:
            pairs[id(d)] = tuple(
                _close(c, scope[:k]) for c in split(d.expr, scope[:k])
            )
        return pairs[id(d)]

    def carries_x(expr: A.Expr, scope: tuple) -> bool:
        """Whether ``expr`` names x, directly or through a let name."""
        return any(
            name == acc if (k := _binding(name, scope)) < 0
            else bound(k, scope)[0] is not _ZERO
            for name in A.free_identifiers(expr)
        )

    def split(expr: A.Expr, scope: tuple) -> Pair:
        if isinstance(expr, A.Literal):
            return (_ZERO, expr)
        if isinstance(expr, A.Ident):
            k = _binding(expr.name, scope)
            if k >= 0:
                return bound(k, scope)
            if expr.name == acc:
                raise RecurrenceError(
                    f"bare accumulator reference at line {expr.line}"
                )
            return (_ZERO, expr)
        if isinstance(expr, A.Index):
            base = expr.base
            if isinstance(base, A.Ident) and base.name == acc:
                if index_offset(expr.index, counter, params) != -1:
                    raise RecurrenceError(
                        f"accumulator access at line {expr.line} is not "
                        f"{acc}[{counter}-1]"
                    )
                return (_ONE, _ZERO)
            return (_ZERO, expr)
        if isinstance(expr, A.Let):
            inner = scope + tuple(expr.defs)
            for k in range(len(scope), len(inner)):
                bound(k, inner)
            return tuple(_close(c, inner) for c in split(expr.body, inner))
        if isinstance(expr, A.If):
            if carries_x(expr.cond, scope):
                tail = "; recurrence is not affine" if algebra is RING else ""
                raise RecurrenceError(
                    f"condition at line {expr.line} depends on the "
                    f"accumulator{tail}"
                )
            ta, tb = split(expr.then, scope)
            ea, eb = split(expr.els, scope)
            if ta is _ZERO and ea is _ZERO:
                return (_ZERO, expr)
            return tuple(
                A.If(expr.cond, _as_ast(t, algebra), _as_ast(e, algebra))
                for t, e in ((ta, ea), (tb, eb))
            )
        if isinstance(expr, (A.UnOp, A.BinOp, A.Builtin)):
            return rule(expr, lambda e: split(e, scope), algebra)
        raise _unsupported(expr)

    return split


def extract_linear_form(
    info: ForIterInfo, params: Mapping[str, int], algebra: Algebra = RING
) -> LinearForm:
    """Rewrite the element expression as ``(X[i-1] otimes P1) oplus P0``
    over ``algebra``: ``P1 * X[i-1] + P0`` over the ring (the paper's
    case), ``max(X[i-1] + P1, P0)`` over max-plus (running-extremum
    recurrences like ``x_i = max(x_{i-1} - d_i, A[i])``).

    Handles the full PE grammar: let definitions referencing the
    accumulator are inlined symbolically (the paper's Example 2 binds
    ``P := A[i]*T[i-1] + B[i]`` in a let); conditionals with X-free
    conditions produce conditional coefficients.
    """
    # the classified let definitions (they may carry the x term) bind
    # in order around the element expression
    body = A.Let(info.let_defs, info.element_expr)
    a, b = _splitter(info, params, algebra)(body, ())
    if a is _ZERO:
        hint = (
            "; this is a forall in disguise -- use the forall mapping"
            if algebra is RING else ""
        )
        raise RecurrenceError(
            f"element expression does not reference the accumulator{hint}"
        )
    return LinearForm(*(_as_ast(c, algebra) for c in (a, b)), algebra)


# ---------------------------------------------------------------------------
# Moebius (linear fractional) forms -- tridiagonal sweeps
# ---------------------------------------------------------------------------


@dataclass
class MobiusForm:
    """``element_expr == (a*X[i-1] + b) / (c*X[i-1] + d)``.

    Linear fractional transformations compose as 2x2 matrices, which is
    associative, so the companion construction applies with a 4-component
    parameter vector and G = matrix multiplication.  This covers the
    Thomas tridiagonal algorithm's forward sweeps --
    ``c'_i = c_i / (b_i - a_i c'_{i-1})`` -- the classic recurrence the
    affine class misses.
    """

    a: A.Expr
    b: A.Expr
    c: A.Expr
    d: A.Expr

    @property
    def components(self) -> tuple[A.Expr, A.Expr, A.Expr, A.Expr]:
        return (self.a, self.b, self.c, self.d)


def extract_mobius_form(
    info: ForIterInfo, params: Mapping[str, int]
) -> MobiusForm:
    """Rewrite the element expression as a linear fractional transform
    of ``X[i-1]``.

    The element expression must be ``N / D``, possibly reached through
    lets and let-bound names; N and D are each split with the ring
    walker, which splits a let definition where it is used.  An x-free
    side has coefficient 0.
    """
    scope, expr = (), A.Let(info.let_defs, info.element_expr)
    while not (isinstance(expr, A.BinOp) and expr.op == "/"):
        k = _binding(expr.name, scope) if isinstance(expr, A.Ident) else -1
        if isinstance(expr, A.Let):
            scope, expr = scope + tuple(expr.defs), expr.body
        elif k >= 0:
            scope, expr = scope[:k], scope[k].expr
        else:
            raise RecurrenceError(
                "element expression is not a division; not a fractional "
                "recurrence"
            )
    split = _splitter(info, params, RING)
    a, b = split(expr.left, scope)
    c, d = split(expr.right, scope)
    return MobiusForm(*(_as_ast(_close(x, scope), RING) for x in (a, b, c, d)))


def mobius_apply(p: tuple, q: tuple) -> tuple:
    """Host-level companion for linear fractional transforms: 2x2 matrix
    product ``[[a, b], [c, d]]``; used by tests."""
    pa, pb, pc, pd = p
    qa, qb, qc, qd = q
    return (
        pa * qa + pb * qc,
        pa * qb + pb * qd,
        pc * qa + pd * qc,
        pc * qb + pd * qd,
    )


def mobius_eval(p: tuple, x: float) -> float:
    pa, pb, pc, pd = p
    return (pa * x + pb) / (pc * x + pd)


def extract_recurrence(info: ForIterInfo, params: Mapping[str, int]):
    """Find *some* algebra over which the recurrence has a companion:
    the affine ring first (the paper's case), then max-plus / min-plus
    if the element expression uses the corresponding lattice operator,
    then linear fractional transforms (tridiagonal sweeps).

    Returns a :class:`LinearForm` or a :class:`MobiusForm`.
    """
    try:
        return extract_linear_form(info, params)
    except RecurrenceError as ring_err:
        used = {
            n.name
            for n in A.walk(A.Let(info.let_defs, info.element_expr))
            if isinstance(n, A.Builtin)
        }
        errors = [str(ring_err)]
        for algebra in (MAXPLUS, MINPLUS):
            if algebra.oplus in used:
                try:
                    return extract_linear_form(info, params, algebra)
                except RecurrenceError as exc:
                    errors.append(str(exc))
        try:
            return extract_mobius_form(info, params)
        except RecurrenceError as exc:
            errors.append(str(exc))
        raise RecurrenceError(
            "no companion function found; tried: " + "; ".join(errors)
        ) from None


def companion_apply(p: tuple, q: tuple, algebra: Algebra = RING):
    """Reference (host-level) companion function G on concrete pairs,
    used by tests and the interpreter cross-checks:
    ``G((p1,p0),(q1,q0)) = (p1 (x) q1, (p1 (x) q0) (+) p0)`` --
    multiplication/addition for the ring, addition/max (or min) for the
    tropical semirings."""
    p1, p0 = p
    q1, q0 = q
    if algebra is RING:
        return (p1 * q1, p1 * q0 + p0)
    join = max if algebra.name == "maxplus" else min
    return (p1 + q1, join(p1 + q0, p0))


def companion_fold(pairs: list[tuple], algebra: Algebra = RING) -> tuple:
    """Left fold of G over parameter pairs ordered newest first."""
    acc = pairs[0]
    for nxt in pairs[1:]:
        acc = companion_apply(acc, nxt, algebra)
    return acc


def shift_index(
    expr: A.Expr,
    counter: str,
    shift: int,
    params: Optional[Mapping[str, int]] = None,
) -> A.Expr:
    """Substitute ``counter := counter - shift`` throughout ``expr``.

    Array selections keep the canonical ``i+m`` shape (so rule-4
    offsets stay recognizable); value uses of the counter become
    explicit subtractions that constant-fold during compilation.
    """
    if shift == 0:
        return expr
    params = params or {}

    def walk(e: A.Expr) -> A.Expr:
        if isinstance(e, A.Literal):
            return e
        if isinstance(e, A.Ident):
            if e.name == counter:
                return A.BinOp("-", e, A.Literal(shift, A.INTEGER))
            return e
        if isinstance(e, A.Index):
            off = index_offset(e.index, counter, params)
            if isinstance(e.base, A.Ident) and off is not None:
                new, i = off - shift, A.Ident(counter)
                op = "+" if new > 0 else "-"
                return A.Index(e.base, i if new == 0 else A.BinOp(
                    op, i, A.Literal(abs(new), A.INTEGER)
                ))
            return A.Index(walk(e.base), walk(e.index))
        if isinstance(e, A.BinOp):
            return A.BinOp(e.op, walk(e.left), walk(e.right))
        if isinstance(e, A.UnOp):
            return A.UnOp(e.op, walk(e.operand))
        if isinstance(e, A.If):
            return A.If(walk(e.cond), walk(e.then), walk(e.els))
        if isinstance(e, A.Builtin):
            return A.Builtin(e.name, [walk(a) for a in e.args])
        if isinstance(e, A.Let):
            return A.Let(
                [A.Definition(d.name, d.type, walk(d.expr)) for d in e.defs],
                walk(e.body),
            )
        raise RecurrenceError(f"cannot shift {type(e).__name__}")

    return walk(expr)

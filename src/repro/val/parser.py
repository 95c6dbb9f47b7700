"""Recursive-descent parser for the Val subset.

Grammar (see :mod:`repro.val.ast_nodes` for the AST it builds)::

    program    := { blockdef }
    blockdef   := IDENT ':' type ':=' expr [';']
    type       := 'real' | 'integer' | 'boolean' | 'array' '[' type ']'
    expr       := orexpr
    orexpr     := andexpr { '|' andexpr }
    andexpr    := relexpr { '&' relexpr }
    relexpr    := addexpr [ ('<'|'<='|'>'|'>='|'='|'~=') addexpr ]
    addexpr    := mulexpr { ('+'|'-') mulexpr }
    mulexpr    := unary { ('*'|'/') unary }
    unary      := ('-'|'~') unary | postfix
    postfix    := primary { '[' expr [':' expr] ']' }
    primary    := INT | REAL | 'true' | 'false' | IDENT | '(' expr ')'
                | letexpr | ifexpr | forallexpr | foriterexpr | iterexpr
                | '[' expr ':' expr ']'
    letexpr    := 'let' defs 'in' expr 'endlet'
    defs       := def { ';' def } [';']
    def        := IDENT ':' type ':=' expr
    ifexpr     := 'if' expr 'then' expr { 'elseif' expr 'then' expr }
                  'else' expr 'endif'
    forallexpr := 'forall' IDENT 'in' '[' expr ',' expr ']'
                  [defs] 'construct' expr 'endall'
    foriterexpr:= 'for' defs 'do' expr 'endfor'
    iterexpr   := 'iter' IDENT ':=' expr { ';' IDENT ':=' expr } [';'] 'enditer'

``A[i]`` parses as :class:`Index`; ``A[i: e]`` as :class:`ArrayAppend`;
a bare ``[r: e]`` as :class:`ArrayLit`.
"""

from __future__ import annotations

from ..errors import ValSyntaxError
from . import ast_nodes as A
from .lexer import Token, tokenize

_REL_OPS = {"<", "<=", ">", ">=", "=", "~="}
_SCALAR_TYPES = {"real": A.REAL, "integer": A.INTEGER, "boolean": A.BOOLEAN}

#: Tokens that may begin an expression (used to decide whether a
#: definition list has ended).
_EXPR_STARTERS = {
    "INT",
    "REAL",
    "IDENT",
    "true",
    "false",
    "LPAREN",
    "LBRACK",
    "let",
    "if",
    "forall",
    "for",
    "iter",
}


class Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing ---------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str = "") -> Token:
        if self.cur.kind != kind:
            expected = what or kind
            raise ValSyntaxError(
                f"expected {expected}, found {self.cur.text or self.cur.kind!r}",
                self.cur.line,
                self.cur.column,
            )
        return self.advance()

    def accept(self, kind: str) -> bool:
        if self.cur.kind == kind:
            self.advance()
            return True
        return False

    def accept_op(self, text: str) -> bool:
        if self.cur.kind == "OP" and self.cur.text == text:
            self.advance()
            return True
        return False

    def _pos_of(self, tok: Token) -> dict:
        return {"line": tok.line, "column": tok.column}

    # -- entry points -------------------------------------------------------
    def parse_program(self) -> A.Program:
        first = self.cur
        blocks = []
        while self.cur.kind != "EOF":
            blocks.append(self.parse_blockdef())
            self.accept("SEMI")
        if not blocks:
            raise ValSyntaxError("empty program", first.line, first.column)
        return A.Program(blocks, **self._pos_of(first))

    def parse_blockdef(self) -> A.BlockDef:
        name_tok = self.expect("IDENT", "block name")
        self.expect("COLON")
        btype = self.parse_type()
        self._expect_assign()
        expr = self.parse_expr()
        return A.BlockDef(name_tok.text, btype, expr, **self._pos_of(name_tok))

    def _expect_assign(self) -> None:
        if not self.accept_op(":="):
            raise ValSyntaxError(
                f"expected ':=', found {self.cur.text or self.cur.kind!r}",
                self.cur.line,
                self.cur.column,
            )

    def parse_type(self) -> A.ValType:
        tok = self.cur
        if tok.kind in _SCALAR_TYPES:
            self.advance()
            return _SCALAR_TYPES[tok.kind]
        if tok.kind == "array":
            self.advance()
            self.expect("LBRACK")
            elem = self.parse_type()
            self.expect("RBRACK")
            if not isinstance(elem, A.ScalarType):
                raise ValSyntaxError(
                    "nested array types are outside the paper's class",
                    tok.line,
                    tok.column,
                )
            return A.ArrayType(elem)
        raise ValSyntaxError(
            f"expected a type, found {tok.text or tok.kind!r}", tok.line, tok.column
        )

    # -- expression levels ----------------------------------------------------
    def parse_expr(self) -> A.Expr:
        return self.parse_or()

    def _binop_level(self, sub, ops: set[str]) -> A.Expr:
        left = sub()
        while self.cur.kind == "OP" and self.cur.text in ops:
            op_tok = self.advance()
            right = sub()
            left = A.BinOp(op_tok.text, left, right, **self._pos_of(op_tok))
        return left

    def parse_or(self) -> A.Expr:
        return self._binop_level(self.parse_and, {"|"})

    def parse_and(self) -> A.Expr:
        return self._binop_level(self.parse_rel, {"&"})

    def parse_rel(self) -> A.Expr:
        left = self.parse_add()
        if self.cur.kind == "OP" and self.cur.text in _REL_OPS:
            op_tok = self.advance()
            right = self.parse_add()
            return A.BinOp(op_tok.text, left, right, **self._pos_of(op_tok))
        return left

    def parse_add(self) -> A.Expr:
        return self._binop_level(self.parse_mul, {"+", "-"})

    def parse_mul(self) -> A.Expr:
        return self._binop_level(self.parse_unary, {"*", "/"})

    def parse_unary(self) -> A.Expr:
        if self.cur.kind == "OP" and self.cur.text in ("-", "~"):
            op_tok = self.advance()
            operand = self.parse_unary()
            return A.UnOp(op_tok.text, operand, **self._pos_of(op_tok))
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while self.cur.kind == "LBRACK":
            lb = self.advance()
            index = self.parse_expr()
            if self.accept("COLON"):
                value = self.parse_expr()
                self.expect("RBRACK")
                expr = A.ArrayAppend(expr, index, value, **self._pos_of(lb))
            elif self.cur.kind == "COMMA":
                indices = [index]
                while self.accept("COMMA"):
                    indices.append(self.parse_expr())
                self.expect("RBRACK")
                expr = A.IndexND(expr, indices, **self._pos_of(lb))
            else:
                self.expect("RBRACK")
                expr = A.Index(expr, index, **self._pos_of(lb))
        return expr

    def parse_primary(self) -> A.Expr:
        tok = self.cur
        if tok.kind == "INT":
            self.advance()
            return A.Literal(int(tok.text), A.INTEGER, **self._pos_of(tok))
        if tok.kind == "REAL":
            text = tok.text
            self.advance()
            return A.Literal(float(text), A.REAL, **self._pos_of(tok))
        if tok.kind in ("true", "false"):
            self.advance()
            return A.Literal(tok.kind == "true", A.BOOLEAN, **self._pos_of(tok))
        if tok.kind == "IDENT":
            self.advance()
            if tok.text in ("max", "min") and self.cur.kind == "LPAREN":
                self.advance()
                args = [self.parse_expr()]
                while self.accept("COMMA"):
                    args.append(self.parse_expr())
                self.expect("RPAREN")
                if len(args) < 2:
                    raise ValSyntaxError(
                        f"{tok.text} needs at least two arguments",
                        tok.line,
                        tok.column,
                    )
                # n-ary max/min folds to nested binary applications
                expr: A.Expr = args[0]
                for arg in args[1:]:
                    expr = A.Builtin(tok.text, [expr, arg], **self._pos_of(tok))
                return expr
            return A.Ident(tok.text, **self._pos_of(tok))
        if tok.kind == "LPAREN":
            self.advance()
            expr = self.parse_expr()
            self.expect("RPAREN")
            return expr
        if tok.kind == "LBRACK":
            # array literal [index: value]
            self.advance()
            index = self.parse_expr()
            self.expect("COLON", "':' of an array constructor")
            value = self.parse_expr()
            self.expect("RBRACK")
            return A.ArrayLit(index, value, **self._pos_of(tok))
        if tok.kind == "let":
            return self.parse_let()
        if tok.kind == "if":
            return self.parse_if()
        if tok.kind == "forall":
            return self.parse_forall()
        if tok.kind == "for":
            return self.parse_foriter()
        if tok.kind == "iter":
            return self.parse_iter()
        raise ValSyntaxError(
            f"expected an expression, found {tok.text or tok.kind!r}",
            tok.line,
            tok.column,
        )

    # -- structured constructs ----------------------------------------------
    def parse_definitions(self) -> list[A.Definition]:
        """``IDENT ':' type ':=' expr`` list separated by ';'."""
        defs = [self.parse_definition()]
        while True:
            if self.cur.kind == "SEMI":
                nxt = self.peek()
                nxt2 = self.peek(2)
                # A following definition looks like "IDENT : type".
                if nxt.kind == "IDENT" and nxt2.kind == "COLON":
                    self.advance()
                    defs.append(self.parse_definition())
                    continue
                # trailing semicolon before in/do/construct
                self.advance()
            break
        return defs

    def parse_definition(self) -> A.Definition:
        name_tok = self.expect("IDENT", "definition name")
        self.expect("COLON")
        dtype = self.parse_type()
        self._expect_assign()
        expr = self.parse_expr()
        return A.Definition(name_tok.text, dtype, expr, **self._pos_of(name_tok))

    def parse_let(self) -> A.Let:
        let_tok = self.expect("let")
        defs = self.parse_definitions()
        self.expect("in")
        body = self.parse_expr()
        self.expect("endlet")
        return A.Let(defs, body, **self._pos_of(let_tok))

    def parse_if(self) -> A.If:
        if_tok = self.expect("if")
        cond = self.parse_expr()
        self.expect("then")
        then = self.parse_expr()
        arms = [(cond, then)]
        while self.accept("elseif"):
            c2 = self.parse_expr()
            self.expect("then")
            t2 = self.parse_expr()
            arms.append((c2, t2))
        self.expect("else")
        els = self.parse_expr()
        self.expect("endif")
        for c, t in reversed(arms):
            els = A.If(c, t, els, **self._pos_of(if_tok))
        return els  # type: ignore[return-value]

    def parse_forall(self) -> A.Expr:
        fa_tok = self.expect("forall")
        ranges = [self._parse_range_spec()]
        # further ranges make a multidimensional forall (Section 9)
        while (
            self.cur.kind == "SEMI"
            and self.peek().kind == "IDENT"
            and self.peek(2).kind == "in"
        ):
            self.advance()
            ranges.append(self._parse_range_spec())
        defs: list[A.Definition] = []
        if self.cur.kind == "IDENT" and self.peek().kind == "COLON":
            defs = self.parse_definitions()
        self.expect("construct")
        accum = self.parse_expr()
        self.expect("endall")
        if len(ranges) == 1:
            r = ranges[0]
            return A.Forall(r.var, r.lo, r.hi, defs, accum, **self._pos_of(fa_tok))
        return A.ForallND(ranges, defs, accum, **self._pos_of(fa_tok))

    def _parse_range_spec(self) -> A.RangeSpec:
        var_tok = self.expect("IDENT", "forall index variable")
        self.expect("in")
        self.expect("LBRACK")
        lo = self.parse_expr()
        self.expect("COMMA")
        hi = self.parse_expr()
        self.expect("RBRACK")
        return A.RangeSpec(var_tok.text, lo, hi, **self._pos_of(var_tok))

    def parse_foriter(self) -> A.ForIter:
        for_tok = self.expect("for")
        inits = self.parse_definitions()
        self.expect("do")
        body = self.parse_expr()
        self.expect("endfor")
        return A.ForIter(inits, body, **self._pos_of(for_tok))

    def parse_iter(self) -> A.Iter:
        iter_tok = self.expect("iter")
        assigns = []
        while True:
            name_tok = self.expect("IDENT", "loop name")
            self._expect_assign()
            expr = self.parse_expr()
            assigns.append(A.Assign(name_tok.text, expr, **self._pos_of(name_tok)))
            if self.accept("SEMI"):
                if self.cur.kind == "enditer":
                    break
                continue
            break
        self.expect("enditer")
        return A.Iter(assigns, **self._pos_of(iter_tok))


def parse_program(source: str) -> A.Program:
    """Parse a multi-block Val program."""
    return Parser(source).parse_program()


def parse_expression(source: str) -> A.Expr:
    """Parse a single Val expression (tests and the REPL-style API)."""
    p = Parser(source)
    expr = p.parse_expr()
    p.expect("EOF")
    return expr

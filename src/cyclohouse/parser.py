"""Recursive-descent parser for rational-function and scalar expressions.

Grammar (whitespace between tokens is insignificant):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := ("-")? base ("^" signed_int)?
    base   := "x" | unsigned_int | "z" unsigned_int | "(" expr ")"

``zN`` denotes the primitive N-th root of unity exp(2*pi*i/N) and must
be written without internal whitespace (z0 is invalid).  Implicit
multiplication is not supported: "2x" is a syntax error.  "/" is always
field division, so rationals are written by dividing integer literals.
Pow exponents are integer literals, possibly negative.

Evaluation stays a ``Poly`` while the subexpression is a polynomial in x
(constants are constant polynomials): a product or a quotient by a
constant is a scaling, and a power of a x + b is expanded by the
binomial theorem (``Poly.pow``).  A ``RatFunc`` is made only at a
division by a non-constant or at a negative power of one, and the
result is wrapped as one.  A power of a non-constant whose degree would exceed
``ratfunc.DEFAULT_ITERATE_CEILING`` raises ``ResourceLimitError`` before
it is built.
"""

from __future__ import annotations

from typing import Union

from .cyclotomic import CycNum
from .errors import DomainError, ParseError, ResourceLimitError
from .ratfunc import DEFAULT_ITERATE_CEILING, Poly, RatFunc, degree
from .record import Record


# -- tokens -----------------------------------------------------------------

_PUNCT = set("+-*/^()")


class _Token(Record):
    # kind: "int" | "x" | "zeta" | one of + - * / ^ ( ) | "end"
    __slots__ = ("kind", "pos", "value")

    def __init__(self, kind: str, pos: int, value: int | None = None):
        _set_token_kind(self, kind)
        _set_token_pos(self, pos)
        _set_token_value(self, value)


_set_token_kind, _set_token_pos, _set_token_value = _Token._setters


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            out.append(_Token(ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("int", i, int(text[i:j])))
            i = j
            continue
        if ch == "x":
            out.append(_Token("x", i))
            i += 1
            continue
        if ch == "z":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("root-of-unity literal needs digits after 'z'", i)
            order = int(text[i + 1 : j])
            if order == 0:
                raise ParseError("z0 is invalid (no zeroth root of unity)", i)
            out.append(_Token("zeta", i, order))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", n))
    return out


# -- AST --------------------------------------------------------------------


class ExprAST(Record):
    """Expression node: a literal, the variable, or an operator node.

    kind is "int", "x", "zeta", "add", "sub", "mul", "div", "neg" or
    "pow"; value is the int literal, the zeta order or the pow exponent.
    """

    __slots__ = ("kind", "children", "value")

    def __init__(self, kind: str, children: tuple[ExprAST, ...] = (), value: int | None = None):
        _set_node_kind(self, kind)
        _set_node_children(self, children)
        _set_node_value(self, value)


_set_node_kind, _set_node_children, _set_node_value = ExprAST._setters


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {self._describe(tok)}", tok.pos, expected)
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        if tok.kind == "end":
            return "end of input"
        if tok.kind in ("int", "zeta"):
            return f"'{tok.kind}' token"
        return f"'{tok.kind}'"

    def parse(self) -> ExprAST:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected {self._describe(tok)}",
                tok.pos,
                ("operator", "end of input"),
            )
        return node

    def expr(self) -> ExprAST:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.term()
            node = ExprAST("add" if op == "+" else "sub", (node, rhs))
        return node

    def term(self) -> ExprAST:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.factor()
            node = ExprAST("mul" if op == "*" else "div", (node, rhs))
        return node

    def factor(self) -> ExprAST:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        node = self.base()
        if self.peek().kind == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            tok = self.expect("int", ("integer exponent",))
            node = ExprAST("pow", (node,), sign * tok.value)
        if negate:
            node = ExprAST("neg", (node,))
        return node

    def base(self) -> ExprAST:
        tok = self.peek()
        if tok.kind == "x":
            self.advance()
            return ExprAST("x")
        if tok.kind == "int":
            self.advance()
            return ExprAST("int", value=tok.value)
        if tok.kind == "zeta":
            self.advance()
            return ExprAST("zeta", value=tok.value)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", ("')'",))
            return node
        raise ParseError(
            f"unexpected {self._describe(tok)}",
            tok.pos,
            ("'x'", "integer", "'zN'", "'('"),
        )


def parse_ast(text: str) -> ExprAST:
    return _Parser(text).parse()


def eval_ast(node: ExprAST) -> RatFunc:
    return _ratfunc(_value(node))


def _value(node: ExprAST) -> Union[Poly, RatFunc]:
    """A Poly for an x-polynomial (constants included), else a RatFunc."""
    kind = node.kind
    if kind == "x":
        return Poly.x()
    if kind == "int":
        return Poly([node.value])
    if kind == "zeta":
        return Poly([CycNum.zeta(node.value)])
    if kind == "neg":
        return -_value(node.children[0])
    if kind == "pow":
        return _power(node.children[0], node.value)
    lhs = _value(node.children[0])
    rhs = _value(node.children[1])
    if kind == "mul" and _is_constant(lhs):
        lhs, rhs = rhs, lhs
    if kind in ("mul", "div") and _is_constant(rhs):
        c = rhs.constant_value()
        if kind == "div":
            if not c:
                raise DomainError("division by zero")
            c = c.inverse()
        return _scale(lhs, c)
    if kind == "div" or isinstance(lhs, RatFunc) or isinstance(rhs, RatFunc):
        lhs, rhs = _ratfunc(lhs), _ratfunc(rhs)
    if kind == "add":
        return lhs + rhs
    if kind == "sub":
        return lhs - rhs
    if kind == "mul":
        return lhs * rhs
    if kind == "div":
        return lhs / rhs
    raise AssertionError(f"unknown node kind {kind}")


def _power(base_node: ExprAST, k: int) -> Union[Poly, RatFunc]:
    """base^k; a non-constant base is refused past the degree ceiling
    before any coefficient is built."""
    if base_node.kind == "zeta":  # zN^k is the root of unity zeta_N^k itself
        return Poly([CycNum.zeta(base_node.value, k)])
    base = _value(base_node)
    if _is_constant(base):
        return Poly([base.constant_value() ** k])
    d = base.deg if isinstance(base, Poly) else degree(base)
    if abs(k) * d > DEFAULT_ITERATE_CEILING:
        raise ResourceLimitError(
            f"power {k} of a degree-{d} expression exceeds the degree "
            f"ceiling {DEFAULT_ITERATE_CEILING}"
        )
    return (_ratfunc(base) if k < 0 else base).pow(k)


def _is_constant(value: Union[Poly, RatFunc]) -> bool:
    return isinstance(value, Poly) and value.is_constant()


def _scale(value: Union[Poly, RatFunc], c: CycNum) -> Union[Poly, RatFunc]:
    if isinstance(value, Poly):
        return value.scale(c)
    return RatFunc._from_coprime(value.num.scale(c), value.den)


def _ratfunc(value: Union[Poly, RatFunc]) -> RatFunc:
    return RatFunc.from_poly(value) if isinstance(value, Poly) else value


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an expression as a rational function (constants included)."""
    return eval_ast(parse_ast(text))


def parse_scalar(text: str) -> CycNum:
    """Parse an x-free expression as an exact cyclotomic number."""
    value = parse_ratfunc(text)
    if not value.is_constant():
        raise DomainError("expected a scalar expression without x")
    return value.constant_value()


def parse_expr(text: str) -> Union[RatFunc, CycNum]:
    """Parse to a RatFunc, collapsing x-free input to its CycNum value."""
    value = parse_ratfunc(text)
    if value.is_constant():
        return value.constant_value()
    return value

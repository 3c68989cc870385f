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
"""

from __future__ import annotations

from typing import Union

from .cyclotomic import CycNum
from .errors import DomainError, ParseError
from .ratfunc import RatFunc
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
    if node.kind == "x":
        return RatFunc.x()
    if node.kind == "int":
        return RatFunc.const(node.value)
    if node.kind == "zeta":
        return RatFunc.const(CycNum.zeta(node.value))
    if node.kind == "neg":
        return -eval_ast(node.children[0])
    if node.kind == "pow":
        base = node.children[0]
        if base.kind == "zeta":  # zN^k is the root of unity zeta_N^k itself
            return RatFunc.const(CycNum.zeta(base.value, node.value))
        return eval_ast(base).pow(node.value)
    lhs = eval_ast(node.children[0])
    rhs = eval_ast(node.children[1])
    if node.kind == "add":
        return lhs + rhs
    if node.kind == "sub":
        return lhs - rhs
    if node.kind == "mul":
        return lhs * rhs
    if node.kind == "div":
        return lhs / rhs
    raise AssertionError(f"unknown node kind {node.kind}")


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

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
Pow exponents are integer literals, possibly negative.  An
``unsigned_int`` is a run of decimal digits in any script that ``int()``
reads; one of more than ``sys.get_int_max_str_digits()`` digits is a
``DomainError``.

One regular expression splits the text into ``(kind, pos, value)``
tokens: kind is "int", "zeta", "x", one of ``+ - * / ^ ( )`` or "end",
pos the offset of the token, and value the integer or the zeta order
(else None).  Syntax-tree nodes are tuples ``(kind, value, *children)``:
a leaf is its token's ``(kind, value)``, and the operator nodes are
("add" | "sub" | "mul" | "div", None, lhs, rhs), ("neg", None, operand)
and ("pow", exponent, base).

Evaluation stays a ``Poly`` while the subexpression is a polynomial in x
(constants are constant polynomials): a product or a quotient by a
constant is a scaling, and a power of a x + b is expanded by the
binomial theorem (``Poly.pow``).  A ``RatFunc`` is made only at a
division by a non-constant or at a negative power of one, and the
result is wrapped as one.  A power of a non-constant whose degree would exceed
``ratfunc.DEFAULT_ITERATE_CEILING``, and a power c^k of a constant with
|k| ``size_bits(c)`` above ``ratfunc.POWER_BITS_CEILING`` (unless c is 0
or +-zeta^j), raise ``ResourceLimitError`` before they are built.

Parentheses nest at most ``NESTING_LIMIT`` deep; a deeper ``(`` is a
``ParseError`` at its position.  A chain such as x + x + ... + x is a
left-deep tree, which the evaluation folds in a loop, so its length is
not limited.
"""

from __future__ import annotations

import re
from typing import Union

from .cyclotomic import CycNum
from .errors import DomainError, ParseError, ResourceLimitError, int_digit_limit
from .ratfunc import (
    DEFAULT_ITERATE_CEILING,
    POWER_BITS_CEILING,
    Poly,
    RatFunc,
    degree,
    size_bits,
)

#: Deepest nesting of parentheses accepted; parsing and evaluation recurse
#: a few frames per level, well inside the interpreter's recursion limit.
NESTING_LIMIT = 100

# \s and \d match exactly the characters that str.isspace and int() accept
_TOKEN = re.compile(r"\s*((\d+)|z(\d*)|([-+*/^()x])|(\S))")
_BINARY = {"+": "add", "-": "sub", "*": "mul", "/": "div"}
_FOLDED = frozenset(_BINARY.values())


def _tokenize(text: str) -> list[tuple]:
    limit = int_digit_limit()
    tokens = []
    for match in _TOKEN.finditer(text):
        _, digits, order, punct, other = match.groups()
        pos = match.start(1)
        if punct:
            tokens.append((punct, pos, None))
            continue
        if other:
            raise ParseError(f"unexpected character {other!r}", pos)
        if order == "":
            raise ParseError("root-of-unity literal needs digits after 'z'", pos)
        literal = digits or order
        if limit and len(literal) > limit:
            raise DomainError(f"integer of more than {limit} digits at position {pos}")
        value = int(literal)
        if not (digits or value):
            raise ParseError("z0 is invalid (no zeroth root of unity)", pos)
        tokens.append(("int" if digits else "zeta", pos, value))
    tokens.append(("end", len(text), None))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def take(self) -> tuple:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def fail(self, expected: tuple[str, ...]):
        kind, pos, _ = self.tokens[self.i]
        if kind == "end":
            found = "end of input"
        elif kind in ("int", "zeta"):
            found = f"'{kind}' token"
        else:
            found = f"'{kind}'"
        raise ParseError(f"unexpected {found}", pos, expected)

    def parse(self) -> tuple:
        node = self.expr()
        if self.peek() != "end":
            self.fail(("operator", "end of input"))
        return node

    def expr(self) -> tuple:
        node = self.term()
        while self.peek() in ("+", "-"):
            node = (_BINARY[self.take()[0]], None, node, self.term())
        return node

    def term(self) -> tuple:
        node = self.factor()
        while self.peek() in ("*", "/"):
            node = (_BINARY[self.take()[0]], None, node, self.factor())
        return node

    def factor(self) -> tuple:
        negate = self.peek() == "-"
        if negate:
            self.i += 1
        node = self.base()
        if self.peek() == "^":
            self.i += 1
            sign = 1
            if self.peek() == "-":
                self.i += 1
                sign = -1
            if self.peek() != "int":
                self.fail(("integer exponent",))
            node = ("pow", sign * self.take()[2], node)
        return ("neg", None, node) if negate else node

    def base(self) -> tuple:
        kind, pos, value = self.tokens[self.i]
        if kind not in ("x", "int", "zeta", "("):
            self.fail(("'x'", "integer", "'zN'", "'('"))
        self.i += 1
        if kind != "(":
            return (kind, value)
        if self.depth == NESTING_LIMIT:
            raise ParseError(f"parentheses nested more than {NESTING_LIMIT} deep", pos)
        self.depth += 1
        node = self.expr()
        if self.peek() != ")":
            self.fail(("')'",))
        self.i += 1
        self.depth -= 1
        return node


def parse_ast(text: str) -> tuple:
    return _Parser(text).parse()


def _value(node: tuple) -> Union[Poly, RatFunc]:
    """A Poly for an x-polynomial (constants included), else a RatFunc.

    The left spine of a binary node is walked and folded in a loop, so a
    chain of any length costs one frame; right operands and the operands
    of "neg" and "pow" recurse, as deep as the parentheses nest.
    """
    kind = node[0]
    if kind == "x":
        return Poly.x()
    if kind == "int":
        return Poly([node[1]])
    if kind == "zeta":
        return Poly([CycNum.zeta(node[1])])
    if kind == "neg":
        return -_value(node[2])
    if kind == "pow":
        return _power(node[2], node[1])
    spine = [node]
    node = node[2]
    while node[0] in _FOLDED:
        spine.append(node)
        node = node[2]
    value = _value(node)
    for binary in reversed(spine):
        value = _binary(binary[0], value, _value(binary[3]))
    return value


def _binary(kind: str, lhs, rhs) -> Union[Poly, RatFunc]:
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
    return lhs / rhs


def _power(base_node: tuple, k: int) -> Union[Poly, RatFunc]:
    """base^k; a non-constant base past the degree ceiling and a constant
    past the power ceiling are refused before the power is built."""
    if base_node[0] == "zeta":  # zN^k is the root of unity zeta_N^k itself
        return Poly([CycNum.zeta(base_node[1], k)])
    base = _value(base_node)
    if _is_constant(base):
        c = base.constant_value()
        # 0 and +-zeta^j (den 1, one coordinate +-1) have powers of their own size
        grows = c.den > 1 or sum(map(abs, c.num)) > 1
        if grows and abs(k) * size_bits(c) > POWER_BITS_CEILING:
            raise ResourceLimitError(
                f"power {k} of a constant exceeds the power ceiling of "
                f"{POWER_BITS_CEILING} bits"
            )
        return Poly([c**k])
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
    return _ratfunc(_value(parse_ast(text)))


def parse_scalar(text: str) -> CycNum:
    """Parse an x-free expression as an exact cyclotomic number."""
    value = parse_ratfunc(text)
    if not value.is_constant():
        raise DomainError("expected a scalar expression without x")
    return value.constant_value()


"""Reference evaluator: one RatFunc per expression node.

Every node, constants and polynomials included, becomes a ``RatFunc``
and is combined with ``RatFunc`` arithmetic, so every product goes
through ``Poly.__mul__`` and every quotient through the gcd.  A power is
taken by repeated squaring of the ``RatFunc`` (a negative one of its
reciprocal), so it shares no code with ``Poly.pow``.  The tests compare
``cyclohouse.parser.parse_ratfunc`` with ``parse_ratfunc`` here.
"""

from __future__ import annotations

from cyclohouse import CycNum, RatFunc
from cyclohouse.parser import parse_ast


def _pow(base: RatFunc, k: int) -> RatFunc:
    if k < 0:
        base, k = RatFunc.const(1) / base, -k
    result = RatFunc.const(1)
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def eval_ast(node: tuple) -> RatFunc:
    kind, value, *children = node
    if kind == "x":
        return RatFunc.x()
    if kind == "int":
        return RatFunc.const(value)
    if kind == "zeta":
        return RatFunc.const(CycNum.zeta(value))
    if kind == "neg":
        return -eval_ast(children[0])
    if kind == "pow":
        base = children[0]
        if base[0] == "zeta":  # zN^k is the root of unity zeta_N^k itself
            return RatFunc.const(CycNum.zeta(base[1], value))
        return _pow(eval_ast(base), value)
    lhs, rhs = map(eval_ast, children)
    if kind == "add":
        return lhs + rhs
    if kind == "sub":
        return lhs - rhs
    if kind == "mul":
        return lhs * rhs
    if kind == "div":
        return lhs / rhs
    raise AssertionError(f"unknown node kind {kind}")


def parse_ratfunc(text: str) -> RatFunc:
    return eval_ast(parse_ast(text))

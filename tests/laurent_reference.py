"""Reference Laurent-polynomial arithmetic on exponent dicts.

A Laurent polynomial here is a map from integer exponents to nonzero
CycNum coefficients, multiplied by the pairwise (dict) convolution.
It shares nothing with ``cyclohouse.ratfunc.LaurentPoly`` (x^low times
a ``Poly``) but CycNum, so the tests compare the two.  Powers are
repeated products, not square-and-multiply.
"""

from __future__ import annotations

from cyclohouse import CycNum


def collect(pairs) -> dict[int, CycNum]:
    """Sum the coefficients of equal exponents and drop the zeros."""
    out: dict[int, CycNum] = {}
    for e, c in pairs:
        out[e] = out.get(e, CycNum.zero) + c
    return {e: c for e, c in out.items() if c}


def terms(a: dict[int, CycNum]) -> tuple[tuple[int, CycNum], ...]:
    return tuple(sorted(a.items()))


def add(a, b):
    return collect([*a.items(), *b.items()])


def neg(a):
    return {e: -c for e, c in a.items()}


def mul(a, b):
    out: dict[int, CycNum] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            v = c1 * c2
            if e in out:
                out[e] = out[e] + v
            else:
                out[e] = v
    return collect(out.items())


def power(a, k: int):
    out = {0: CycNum.one}
    for _ in range(k):
        out = mul(out, a)
    return out


def scale(a, c: CycNum):
    return collect((e, c * v) for e, v in a.items())

"""Reference Taylor shift and composition, one CycNum operation at a time.

``taylor_shift`` is the quadratic shift loop p(x + v) with every sum and
product a canonicalized CycNum, and ``compose`` the homogenized
composition sum_i p_i r^i s^(D - i) over sum_j q_j r^j s^(D - j) built
from powers of r and s, for every inner map r/s.  Neither shares code
with ``cyclohouse.ratfunc``'s integer-row shift (``_shift``) but
CycNum and Poly's constructor and products, so the tests compare them.
"""

from __future__ import annotations

from cyclohouse import Poly, RatFunc, evaluate


def taylor_shift(p: Poly, v) -> Poly:
    """Coefficients of p(x + v), v a CycNum, an int or a Fraction."""
    cs = list(p.coeffs)
    n = len(cs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            cs[j] = cs[j] + v * cs[j + 1]
    return Poly(cs)


def compose(h1: RatFunc, h2: RatFunc) -> RatFunc:
    """h1(h2(x)) in reduced form, by homogenized powers of h2 = r/s."""
    if h1.is_constant():
        return h1
    if h2.is_constant():
        return RatFunc.const(evaluate(h1, h2.constant_value()))
    p, q = h1.num, h1.den
    r, s = h2.num, h2.den
    big_d = max(p.deg, q.deg)
    r_pows = [Poly([1])]
    s_pows = [Poly([1])]
    for _ in range(big_d):
        r_pows.append(r_pows[-1] * r)
        s_pows.append(s_pows[-1] * s)
    num = Poly()
    for i, c in enumerate(p.coeffs):
        if c:
            num = num + (r_pows[i] * s_pows[big_d - i]).scale(c)
    den = Poly()
    for j, c in enumerate(q.coeffs):
        if c:
            den = den + (r_pows[j] * s_pows[big_d - j]).scale(c)
    return RatFunc._from_coprime(num, den)

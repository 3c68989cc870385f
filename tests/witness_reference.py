"""Reference grid search: the F_p screen run on every triple.

The quadratic family a x + b + c/x is searched as the library searched it
before images were shared per field: every image is computed by
``residue_mod_p`` where it is used, the x^d and x^(d-1) coefficients pick
a and b, and ``keeps`` then walks every triple (a, b, c) from x^(d-2)
down.  Expansions go through ``cyclohouse.ratfunc.substitute_poly_laurent``,
looked up at the call, so a test can record them.  The tests compare
``cyclohouse.witness._grid_search_polynomial`` with ``grid_search_polynomial``
here.
"""

from __future__ import annotations

import math

from cyclohouse import CycNum, ratfunc, witness
from cyclohouse.cyclotomic import _screen_field, residue_mod_p
from cyclohouse.ratfunc import LaurentPoly


class Screen:
    """The coefficients of h(a x + b + c/x) reduced into F_p, per value."""

    def __init__(self, poly, grid):
        self.order = math.lcm(2, *(c.n for c in poly.coeffs))
        big_n = math.lcm(self.order, *range(1, grid.rou_order_cap + 1))
        while True:
            p, g = _screen_field(big_n)
            if p > grid.rational_height_cap and all(c.den % p for c in poly.coeffs):
                break
            big_n *= 2
        self.p, self.g, self.big_n = p, g, big_n
        self.d = d = poly.deg
        self.coeffs = [self.image(c) for c in poly.coeffs]
        self.binom = [[math.comb(k, i) % p for i in range(k + 1)] for k in range(d + 1)]

    def image(self, v):
        return residue_mod_p(v, self.p, self.g, self.big_n)

    def powers(self, v):
        x, out = self.image(v), [1]
        for _ in range(self.d):
            out.append(out[-1] * x % self.p)
        return out

    def taylor(self, b):
        x, (t, p, d) = self.image(b), (list(self.coeffs), self.p, self.d)
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                t[j] = (t[j] + x * t[j + 1]) % p
        return t

    def may_be_root(self, v, n):
        return not v or pow(v, math.lcm(self.order, n), self.p) == 1

    def keeps(self, ap, t, cp, order, d_max):
        p, d, binom = self.p, self.d, self.binom
        nonzero = 1 + (t[d - 1] != 0)
        for m in range(d - 2, -d - 1 if cp[1] else -1, -1):
            s = sum(
                t[k] * binom[k][(k + m) >> 1] * ap[(k + m) >> 1] * cp[(k - m) >> 1]
                for k in range(abs(m), d + 1, 2)
            ) % p
            if s:
                nonzero += 1
                if nonzero > d_max or pow(s, order, p) != 1:
                    return False
        return nonzero <= d_max


def grid_search_polynomial(h, d_max, grid):
    poly = h.num
    d = poly.deg
    screen = Screen(poly, grid)
    lead = screen.coeffs[-1]
    a_values = [
        gv for gv in grid.entries()
        if screen.may_be_root(lead * screen.powers(gv.value)[d] % screen.p, gv.value.n)
    ]
    b_values = [witness._ZERO_VALUE, *grid.entries()]

    def b_survivors(a):
        scale = screen.powers(a)[d - 1]
        next_to_lead = (d * lead * screen.image(gv.value) + screen.coeffs[-2] for gv in b_values)
        return [
            gv for gv, v in zip(b_values, next_to_lead)
            if screen.may_be_root(v * scale % screen.p, gv.value.n)
        ]

    for a_gv in a_values:
        a = a_gv.value
        # p_(d-1)(b) a^(d-1) is a root of unity with p_(d-1)(b) for a root of unity a
        bs = b_survivors(CycNum.one if a_gv.is_root() else a)
        for c_gv in [witness._ZERO_VALUE, *a_values]:
            c = c_gv.value
            for b_gv in bs:
                b = b_gv.value
                order = math.lcm(screen.order, a.n, b.n, c.n)
                ap, cp = screen.powers(a), screen.powers(c)
                if not screen.keeps(ap, screen.taylor(b), cp, order, d_max):
                    continue
                inner = LaurentPoly([(1, a), (0, b), (-1, c)])
                lp = ratfunc.substitute_poly_laurent(poly, inner)
                w = witness._witness_from_laurent(h, inner.to_ratfunc(), lp, d_max)
                if w is not None:
                    return w
    return None

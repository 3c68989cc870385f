"""Polynomials, Laurent polynomials and rational functions over CycNum.

Rational functions are kept in canonical form (numerator and
denominator coprime, denominator monic), so equality is structural.
Composition is built directly in coprime form: if h1 = p/q is reduced
and h2 = r/s is reduced and nonconstant, the homogenized numerator and
denominator of h1 o h2 share no common root, hence no gcd computation
is needed and the degree law deg(h1 o h2) = deg h1 * deg h2 is exact by
construction.  Composition with an affine inner map a x + b is one
Taylor shift by b of the numerator and of the denominator, over integer
rows (``_shift``), scaled by the powers of a (``_affine``); it forms no
power and no ``Poly`` product.  A polynomial keeps its last few Taylor
shifts, so the callers that ask one polynomial for p(x + v) again
(special-map detection, its certificate check, the witness candidates
and their verification) share one shift per point v.  A Laurent
polynomial is x^low times a ``Poly`` and shares its arithmetic: a
Laurent product is a ``Poly`` product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CycNum, RootOfUnity, root_power_vector, vector_value
from .cyclotomic import _cyclotomy, _embed_list, _make, _row_product
from .errors import DomainError, ResourceLimitError, int_digit_limit, too_long_to_print
from .record import Record, fill

#: Ceiling for iterate() expansion, in projected monomials.
DEFAULT_ITERATE_CEILING = 1_000_000
#: Ceiling for the binomial expansion of (a x + b)^k, in bits: k^2 (1 + |a| + |b|),
#: with |c| = ``size_bits(c)``.
EXPANSION_BITS_CEILING = 1 << 32
#: Ceiling for a parsed constant power c^k, in bits: |k| |c|, with |c| = ``size_bits(c)``.
POWER_BITS_CEILING = 1 << 20
#: Most Taylor shifts a polynomial keeps, one per point; the oldest goes first.
SHIFTS_KEPT = 4


def size_bits(c: CycNum) -> int:
    """Bits of c's denominator and of its numerator coordinates, one at least each."""
    return c.den.bit_length() + sum(max(1, v.bit_length()) for v in c.num)


def _cyc(v) -> CycNum:
    if isinstance(v, CycNum):
        return v
    if isinstance(v, (int, Fraction)):
        return CycNum.from_rational(v)
    raise DomainError(f"cannot coerce {v!r} to a cyclotomic number")


class Poly(Record):
    """Dense univariate polynomial; coeffs ascending, no trailing zeros.

    ``_shifts``, set on the first ``taylor_shift``, keeps p(x + v) for
    at most ``SHIFTS_KEPT`` points v.  Equality, hashing, the repr and
    pickling use ``coeffs`` only, so a copy starts with no shifts.
    """

    __slots__ = ("coeffs", "_shifts")
    _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_cyc(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        _set_coeffs(self, tuple(cs))

    # degree of the zero polynomial is -1 by convention
    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> CycNum:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_value(self) -> CycNum:
        return self.coeffs[0] if self.coeffs else CycNum.zero

    def __getitem__(self, k: int) -> CycNum:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return CycNum.zero

    def __repr__(self):
        return f"Poly({[repr(c) for c in self.coeffs]})"

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [CycNum.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = out[i + j] + x * y
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = _cyc(c)
        if not c:
            return Poly()
        return _poly_of(tuple(c * x if x else x for x in self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == CycNum.one:
            return self
        return self.scale(lead.inverse())

    def derivative(self) -> "Poly":
        return Poly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def evaluate(self, a: CycNum) -> CycNum:
        acc = CycNum.zero
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        a = list(self.coeffs)
        db = other.deg
        lead_inv = other.leading().inverse()
        q = [CycNum.zero] * max(0, len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            if a[i]:
                f = a[i] * lead_inv
                q[i - db] = f
                for j, bj in enumerate(other.coeffs):
                    if bj:
                        a[i - db + j] = a[i - db + j] - f * bj
        return Poly(q), Poly(a[:db])

    def pow(self, k: int) -> "Poly":
        """p^k for k >= 0.

        A degree-1 base a x + b is expanded by the binomial theorem,
        sum C(k, i) a^i b^(k - i) x^i: two running power lists and
        k + 1 CycNum products, with no ``Poly`` product; a unit a or b
        adds no product, and an expansion past ``EXPANSION_BITS_CEILING``
        is refused before it is built.  A monomial base a x gives k
        shared ``CycNum.zero`` entries and a^k, and a constant c gives
        c^k.  Any other base is squared log k times.
        """
        if k < 0:
            raise DomainError("a polynomial power must be nonnegative")
        cs = self.coeffs
        if len(cs) == 1:
            return Poly([cs[0] ** k])
        if len(cs) == 2 and k:
            b, a = cs
            if not b:
                return _poly_of((CycNum.zero,) * k + (a**k,))
            if k * k * (1 + size_bits(a) + size_bits(b)) > EXPANSION_BITS_CEILING:
                raise ResourceLimitError(f"power {k} of a degree-1 polynomial exceeds the "
                                         f"expansion ceiling of {EXPANSION_BITS_CEILING} bits")
            pows, b_pows = _powers(a, k), _powers(b, k)[::-1]  # a^i and b^(k-i)
            if a == CycNum.one:
                pows = b_pows
            elif b != CycNum.one:
                pows = [x * y for x, y in zip(pows, b_pows)]
            out, binom = [], 1
            for i, c in enumerate(pows):
                out.append(c * binom)
                binom = binom * (k - i) // (i + 1)
            return _poly_of(tuple(out))
        result = Poly([CycNum.one])
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def taylor_shift(self, v) -> "Poly":
        """Coefficients of p(x + v), over integer rows (``_shift``), built
        once per point v while p keeps it (``SHIFTS_KEPT``)."""
        v = _cyc(v)
        if not v or len(self.coeffs) < 2:
            return self
        kept = getattr(self, "_shifts", None)
        if kept is None:
            kept = {}
            _set_shifts(self, kept)
        out = kept.get(v)
        if out is None:
            out = _shift(self, v)
            if len(kept) >= SHIFTS_KEPT:
                kept.pop(next(iter(kept), None), None)
            kept[v] = out
        return out

    def num_terms(self) -> int:
        return sum(1 for c in self.coeffs if c)

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])


_set_coeffs, _set_shifts = Poly._setters


def _powers(c: CycNum, k: int) -> list[CycNum]:
    """c^0, ..., c^k by running products; no product for c = 1."""
    if c == CycNum.one:
        return [c] * (k + 1)
    out = [CycNum.one]
    for _ in range(k):
        out.append(out[-1] * c)
    return out


def _poly_of(coeffs: tuple[CycNum, ...]) -> Poly:
    """Wrap CycNum coefficients whose last one is nonzero, as they are."""
    obj = object.__new__(Poly)
    _set_coeffs(obj, coeffs)
    return obj


def _affine(p: Poly, a: CycNum, b: CycNum) -> Poly:
    """Coefficients of p(a x + b): the kept shift p(x + b), its
    coefficient k times a^k."""
    shifted = p.taylor_shift(b)
    if a == CycNum.one or len(shifted.coeffs) < 2:
        return shifted
    return _poly_of(tuple(c * w if c else c for c, w in zip(shifted.coeffs, _powers(a, p.deg))))


def _shift(p: Poly, b: CycNum) -> Poly:
    """Coefficients of p(x + b), b != 0 and deg p >= 1: one Taylor shift
    over integer rows.

    The coefficients and b = B/db sit at one conductor c over one common
    denominator den.  Coefficient i times db^(m - i), m = deg p, is
    shifted by B in integers (von zur Gathen and Gerhard, ISSAC 1997):
    coordinate by coordinate when B is an integer, else by steps that
    are row products modulo Phi_c.  Output k is then row k times db^k
    over den * db^m, canonicalized once.
    """
    cs = p.coeffs
    m = len(cs) - 1
    c = math.lcm(b.n, *(x.n for x in cs))
    den, db = math.lcm(*(x.den for x in cs)), b.den
    rows = [
        [y * (den // x.den) * db ** (m - i) for y in _embed_list(x, c)]
        for i, x in enumerate(cs)
    ]
    if b.n == 1:  # an integer B shifts each coordinate on its own
        cols, bb = [list(col) for col in zip(*rows)], b.num[0]
        for col in cols:
            for i in range(m):
                for j in range(m - 1, i - 1, -1):
                    col[j] += bb * col[j + 1]
        rows = list(zip(*cols))
    else:
        ctx, bb = _cyclotomy(c), _embed_list(b, c)
        for i in range(m):
            for j in range(m - 1, i - 1, -1):
                step = _row_product(ctx, rows[j + 1], bb)
                rows[j] = [y + z for y, z in zip(rows[j], step)]
    s, d, out = 1, den * db**m, []
    for row in rows:
        out.append(_make(c, [y * s for y in row], d))
        s *= db
    return _poly_of(tuple(out))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm over the coefficient field."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r.monic() if not r.is_zero() else r
    if a.is_zero():
        return a
    return a.monic()


class LaurentPoly(Record):
    """x^low * poly, with poly[0] != 0; zero is x^0 * 0.

    The canonical form makes equality structural, and every product,
    power and scaling is ``Poly``'s.  ``terms`` lists the nonzero
    (exponent, coefficient) pairs, ascending.
    """

    __slots__ = ("low", "poly")

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        pairs = [(e, _cyc(c)) for e, c in items]
        low = min((e for e, _ in pairs), default=0)
        dense = [CycNum.zero] * (max((e for e, _ in pairs), default=low) - low + 1)
        for e, c in pairs:
            dense[e - low] = dense[e - low] + c
        _set_laurent(self, low, Poly(dense))

    @classmethod
    def _of(cls, low: int, poly: Poly) -> "LaurentPoly":
        """x^low * poly, built without a term list."""
        obj = object.__new__(cls)
        _set_laurent(obj, low, poly)
        return obj

    def __reduce__(self):
        return LaurentPoly._of, (self.low, self.poly)

    @property
    def terms(self) -> tuple[tuple[int, CycNum], ...]:
        return tuple((self.low + k, c) for k, c in enumerate(self.poly.coeffs) if c)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def is_constant(self) -> bool:
        return self.low == 0 and self.poly.is_constant()

    def coefficient(self, e: int) -> CycNum:
        return self.poly[e - self.low]

    def num_terms(self) -> int:
        return self.poly.num_terms()

    def __repr__(self):
        return f"LaurentPoly({dict((e, repr(c)) for e, c in self.terms)})"

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = (self, other) if self.low <= other.low else (other, self)
        return LaurentPoly._of(a.low, a.poly + _times_x_power(b.poly, b.low - a.low))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of(self.low, -self.poly)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return LaurentPoly._of(self.low + other.low, self.poly * other.poly)

    def scale(self, c) -> "LaurentPoly":
        return LaurentPoly._of(self.low, self.poly.scale(c))

    def pow(self, k: int) -> "LaurentPoly":
        return LaurentPoly._of(self.low * k, self.poly.pow(k))

    def to_ratfunc(self) -> "RatFunc":
        if self.low >= 0:
            return RatFunc.from_poly(_times_x_power(self.poly, self.low))
        # poly[0] != 0, so poly and x^-low are coprime
        return RatFunc._from_coprime(self.poly, _times_x_power(Poly([1]), -self.low))

    @staticmethod
    def x_plus_inverse_x() -> "LaurentPoly":
        return LaurentPoly([(1, 1), (-1, 1)])


_set_low, _set_poly = LaurentPoly._setters


def _set_laurent(obj: LaurentPoly, low: int, poly: Poly) -> None:
    """Store x^low * poly on obj, moving the powers of x that divide poly into low."""
    cs = poly.coeffs
    if not cs:
        low = 0
    elif not cs[0]:
        k = next(i for i, c in enumerate(cs) if c)
        low, poly = low + k, Poly(cs[k:])
    _set_low(obj, low)
    _set_poly(obj, poly)


def _times_x_power(p: Poly, k: int) -> Poly:
    """x^k * p for k >= 0."""
    return _poly_of((CycNum.zero,) * k + p.coeffs) if k and p.coeffs else p


def substitute_poly_laurent(p: Poly, arg: LaurentPoly) -> LaurentPoly:
    """Exact evaluation of the polynomial p at a Laurent argument."""
    acc = LaurentPoly()
    for c in reversed(p.coeffs):
        acc = acc * arg + LaurentPoly._of(0, Poly([c]))
    return acc


class RatFunc(Record):
    """Reduced quotient of polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if not num.is_zero() and not den.is_zero():
            g = poly_gcd(num, den)
            if g.deg > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        _set_monic(self, num, den)

    @classmethod
    def _from_coprime(cls, num: Poly, den: Poly) -> "RatFunc":
        """Skip gcd reduction for inputs known to be coprime."""
        obj = object.__new__(cls)
        _set_monic(obj, num, den)
        return obj

    @staticmethod
    def x() -> "RatFunc":
        return RatFunc._from_coprime(Poly.x(), Poly([1]))

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc._from_coprime(Poly.const(c), Poly([1]))

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc._from_coprime(p, Poly([1]))

    def is_poly(self) -> bool:
        return self.den.deg == 0

    def is_constant(self) -> bool:
        return self.num.deg <= 0 and self.den.deg == 0

    def constant_value(self) -> CycNum:
        if not self.is_constant():
            raise DomainError("not a constant")
        return self.num.constant_value()

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den.deg == 0 and other.den.deg == 0:  # both denominators are 1
            return RatFunc._from_coprime(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFunc":
        return RatFunc._from_coprime(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        if self.den.deg == 0 and other.den.deg == 0:  # both denominators are 1
            return RatFunc._from_coprime(self.num * other.num, self.den)
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.num.is_zero():
            raise DomainError("division by zero")
        if self.den.deg == 0 and other.is_constant():
            return RatFunc._from_coprime(
                self.num.scale(other.num.leading().inverse()), self.den
            )
        return RatFunc(self.num * other.den, self.den * other.num)

    def pow(self, k: int) -> "RatFunc":
        if k < 0:
            if self.num.is_zero():
                raise DomainError("division by zero")
            # num and den are coprime, and so are their powers
            return RatFunc._from_coprime(self.den.pow(-k), self.num.pow(-k))
        return RatFunc._from_coprime(self.num.pow(k), self.den.pow(k))


_set_numerator, _set_denominator = RatFunc._setters


def _set_monic(obj: RatFunc, num: Poly, den: Poly) -> None:
    """Store num/den on obj with den scaled to be monic (zero as 0/1)."""
    if den.is_zero():
        raise DomainError("zero denominator")
    lead = den.leading()
    if lead != CycNum.one:
        inv = lead.inverse()
        num = num.scale(inv)
        den = den.scale(inv)
    if num.is_zero():
        den = Poly([1])
    _set_numerator(obj, num)
    _set_denominator(obj, den)


def ratfunc_new(p: Poly, q: Poly) -> RatFunc:
    """Reduced, denominator-monic rational function p/q."""
    return RatFunc(p, q)


def degree(h: RatFunc) -> int:
    """max(deg num, deg den); 0 exactly for constants."""
    if h.num.is_zero():
        return 0
    return max(h.num.deg, h.den.deg)


def coefficient_conductor(h: RatFunc) -> int:
    """lcm of the conductors of h's coefficients: h is defined over Q(zeta_c)."""
    return math.lcm(*(a.n for p in (h.num, h.den) for a in p.coeffs))


def root_vectors(h: RatFunc, a: RootOfUnity, c: int | None = None):
    """Exponent vectors of h's numerator and denominator at a, unreduced.

    Each is the sparse (pairs, D, N) at N = lcm(c, m)
    (``cyclotomic.root_power_vector``), c the ``coefficient_conductor``,
    computed here unless the caller passes it; the denominator's is None
    for a polynomial, whose monic denominator is 1.
    """
    if c is None:
        c = coefficient_conductor(h)
    num = root_power_vector(h.num.coeffs, c, a.order, a.exponent)
    if h.is_poly():
        return num, None
    return num, root_power_vector(h.den.coeffs, c, a.order, a.exponent)


def evaluate(h: RatFunc, a, vectors=None) -> CycNum | None:
    """Exact value h(a), or None when a is a pole.

    At a ``RootOfUnity`` zeta_m^k the numerator and the denominator are
    each one exponent-shifted sum (``root_vectors``) and one reduction:
    no products.  ``vectors`` takes those that the caller has built
    already.  Any other argument is evaluated by Horner
    (``Poly.evaluate``).  A rational map adds one inverse and one
    product.
    """
    if isinstance(a, RootOfUnity):
        num, den = vectors or root_vectors(h, a)
        value = vector_value
    else:
        a = _cyc(a)
        num, den = h.num, None if h.is_poly() else h.den  # a monic 1 is skipped

        def value(p: Poly) -> CycNum:
            return p.evaluate(a)

    if den is None:
        return value(num)
    dv = value(den)
    if not dv:
        return None
    return value(num) * dv.inverse()


def compose(h1: RatFunc, h2: RatFunc) -> RatFunc:
    """Exact composition h1(h2(x)) in reduced form.

    An affine h2 = a x + b makes num and den each one Taylor shift
    (``_affine``); the identity does no work.  A monomial h2 = c x^k
    spreads the coefficients, p_i c^i to x^(ik) over q_j c^j to x^(jk),
    with no product of polynomials.  Any other h2 = r/s is homogenized:
    sum p_i r^i s^(D - i) over sum q_j r^j s^(D - j).  When s is a
    monomial x^k, as for every Laurent h2, each product by a power of s
    is a shift.

    Raises ResourceLimitError, before any product, when 2 (deg h1 deg h2
    + 1) exceeds ``DEFAULT_ITERATE_CEILING``, the rule of ``iterate``.
    """
    size = degree(h1) * degree(h2)
    if 2 * (size + 1) > DEFAULT_ITERATE_CEILING:
        raise ResourceLimitError(
            f"compose would expand to about {size} monomials "
            f"(ceiling {DEFAULT_ITERATE_CEILING})"
        )
    if h1.is_constant():
        return h1
    if h2.is_constant():
        v = evaluate(h1, h2.constant_value())
        if v is None:
            raise DomainError("composition hits a pole of the outer function")
        return RatFunc.const(v)
    p, q = h1.num, h1.den
    r, s = h2.num, h2.den
    if s.deg == 0 and r.deg == 1:  # h2 = a x + b: one Taylor shift each
        return RatFunc._from_coprime(_affine(p, r[1], r[0]), _affine(q, r[1], r[0]))
    big_d = max(p.deg, q.deg)
    if s.deg == 0 and r.num_terms() == 1:  # h2 = c x^k with k >= 2
        c_pows = _powers(r.leading(), big_d)
        return RatFunc._from_coprime(_spread(p, c_pows, r.deg), _spread(q, c_pows, r.deg))
    r_pows = [Poly([1])]
    for _ in range(big_d):
        r_pows.append(r_pows[-1] * r)
    if s.num_terms() == 1:  # s is monic, so s = x^k and a product by s^j is a shift

        def term(i: int) -> Poly:
            return _times_x_power(r_pows[i], s.deg * (big_d - i))

    else:
        s_pows = [Poly([1])]
        for _ in range(big_d):
            s_pows.append(s_pows[-1] * s)

        def term(i: int) -> Poly:
            return r_pows[i] * s_pows[big_d - i]

    num = Poly()
    for i, c in enumerate(p.coeffs):
        if c:
            num = num + term(i).scale(c)
    den = Poly()
    for j, c in enumerate(q.coeffs):
        if c:
            den = den + term(j).scale(c)
    # Coprimality is automatic: a common root w would force p and q to
    # share the value h2(w) as a root (impossible, they are coprime) or,
    # when s(w) = 0, make the top-degree term c * r(w)^D survive.
    return RatFunc._from_coprime(num, den)


def _spread(p: Poly, c_pows: list[CycNum], k: int) -> Poly:
    """Coefficients of p(c x^k), given c^0, ..., c^deg p."""
    out = [CycNum.zero] * (k * p.deg + 1)
    for i, a in enumerate(p.coeffs):
        if a:
            out[k * i] = a * c_pows[i]
    return _poly_of(tuple(out))


def iterate(h: RatFunc, n: int) -> RatFunc:
    """n-fold composition of h with itself; iterate(h, 0) = x."""
    if n < 0:
        raise DomainError("iteration count must be nonnegative")
    if n == 0:
        return RatFunc.x()
    d = degree(h)
    # d^n >= 2^(n * (bits(d) - 1)), so d^n is built only when it may be small
    if d >= 2 and (
        n * (d.bit_length() - 1) >= DEFAULT_ITERATE_CEILING.bit_length()
        or 2 * (d**n + 1) > DEFAULT_ITERATE_CEILING
    ):
        # d^n < 2^(n * bits(d)) is spelled out only when that surely prints
        about = d**n if n * d.bit_length() <= 3 * int_digit_limit() else f"{d}^{n}"
        raise ResourceLimitError(
            f"iterate would expand to about {about} monomials "
            f"(ceiling {DEFAULT_ITERATE_CEILING})"
        )
    out = h
    for _ in range(n - 1):
        out = compose(h, out)
    return out


def distinct_pole_count(h: RatFunc) -> int:
    """Number of distinct poles of h on the projective line.

    Computed without root-finding: distinct finite poles are
    deg(den) - deg(gcd(den, den')), plus one for the pole at infinity
    when deg num > deg den.
    """
    if h.is_constant():
        raise DomainError("pole counting requires a nonconstant function")
    den = h.den
    finite = 0
    if den.deg > 0:
        g = poly_gcd(den, den.derivative())
        finite = den.deg - g.deg
    at_infinity = 1 if h.num.deg > h.den.deg else 0
    return finite + at_infinity


def term_count(h: RatFunc) -> int:
    """Nonzero monomials of numerator plus denominator in reduced form."""
    return h.num.num_terms() + h.den.num_terms()


def to_laurent(h: RatFunc) -> LaurentPoly | None:
    """The Laurent-polynomial form of h, when its denominator is a monomial."""
    den = h.den
    if den.num_terms() != 1:
        return None
    return LaurentPoly._of(-den.deg, h.num)  # den = x^k (monic)


@lru_cache(maxsize=None)
def chebyshev(d: int) -> Poly:
    """Monic degree-d polynomial with T_d(t + 1/t) = t^d + t^-d.

    T_d is the Dickson polynomial D_d(x, 1), whose coefficient of
    x^(d-2j) is (-1)^j d/(d-j) C(d-j, j) (Lidl, Mullen and Turnwald,
    "Dickson Polynomials", 1993).  It is built on integers in one pass
    over j, each C(d-j, j) from the previous one by the factor
    (d-2j+2)(d-2j+1) / (j (d-j+1)).

    The absolute values of the coefficients sum to the Lucas number
    L_d > phi^d - 1 > 2^(9 (d // 13)) - 1 (as phi^13 > 2^9), so the
    largest is above L_d / (d + 1).  When bit lengths show that bound
    above 10^limit (as 10^3 < 2^10), T_d cannot print, and
    ``ResourceLimitError`` is raised before it is built.
    """
    if d < 1:
        raise DomainError("chebyshev index must be >= 1")
    limit = int_digit_limit()
    if limit and 9 * (d // 13) > -(-10 * limit // 3) + (d + 1).bit_length():
        raise too_long_to_print(limit)
    coeffs = [0] * (d + 1)
    binom = 1  # C(d - j, j)
    for j in range(d // 2 + 1):
        if j:
            binom = binom * (d - 2 * j + 2) * (d - 2 * j + 1) // (j * (d - j + 1))
        c = d * binom // (d - j)
        coeffs[d - 2 * j] = -c if j % 2 else c
    return Poly(coeffs)


class Mobius(Record):
    """Invertible fractional-linear map (a x + b) / (c x + d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: CycNum, b: CycNum, c: CycNum, d: CycNum):
        a, b, c, d = _cyc(a), _cyc(b), _cyc(c), _cyc(d)
        if not (a * d - b * c):
            raise DomainError("degenerate Mobius map (zero determinant)")
        fill(self, a, b, c, d)

    @staticmethod
    def affine(u, v) -> "Mobius":
        return Mobius(_cyc(u), _cyc(v), CycNum.zero, CycNum.one)

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "Mobius") -> "Mobius":
        """Matrix product: self after other, i.e. x -> self(other(x))."""
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def as_ratfunc(self) -> RatFunc:
        return RatFunc(Poly([self.b, self.a]), Poly([self.d, self.c]))


def mobius_conjugate(h: RatFunc, m: Mobius) -> RatFunc:
    """The conjugate m^-1 (h (m(x))), exact.

    For an affine m (c = 0), m^-1 = (d x - b)/a takes N/D to
    (N d/a - D b/a)/D, still coprime to D: no composition and no product.
    """
    inner = compose(h, m.as_ratfunc())
    if m.c:
        return compose(m.inverse().as_ratfunc(), inner)
    inv = m.a.inverse()
    num, den = inner.num, inner.den
    return RatFunc._from_coprime(num.scale(m.d * inv) - den.scale(m.b * inv), den)


class BinomialShape(Record):
    """Witness that q(x) = lam(a x^n + b x^-n)."""

    __slots__ = ("lam", "a", "b", "n")

    def __init__(self, lam: Mobius, a: CycNum, b: CycNum, n: int):
        fill(self, lam, a, b, n)

    def inner(self) -> RatFunc:
        return LaurentPoly([(self.n, self.a), (-self.n, self.b)]).to_ratfunc()


def is_binomial_shape(q: RatFunc) -> BinomialShape | None:
    """Decide whether q = lam(a x^n + b x^-n) for a Mobius lam.

    Complete structural decision: in reduced form such a q has
    numerator and denominator supported on {2n, n, 0} with the outer
    coefficient pairs proportional, or supported on {m, 0} (the
    monomial-inner case b = 0).
    """
    if q.is_constant():
        return None
    sup_n = {i for i, c in enumerate(q.num.coeffs) if c}
    sup_d = {i for i, c in enumerate(q.den.coeffs) if c}
    support = sorted(sup_n | sup_d)
    positive = [e for e in support if e > 0]
    if not positive:
        return None
    if len(positive) == 1:
        g = positive[0]
        lam = _mobius_checked(q.num[g], q.num[0], q.den[g], q.den[0])
        if lam is None:
            return None
        shape = BinomialShape(lam, CycNum.one, CycNum.zero, g)
        return shape if _binomial_verifies(q, shape) else None
    if len(positive) == 2:
        g, top = positive
        if top != 2 * g:
            return None
        vec_n = (q.num[top], q.num[0])
        vec_d = (q.den[top], q.den[0])
        if vec_n[0] * vec_d[1] != vec_n[1] * vec_d[0]:
            return None
        a, b = vec_n if (vec_n[0] or vec_n[1]) else vec_d
        if not a or not b:
            # A vanishing outer coefficient would force a common factor
            # x^g in the reduced form; cannot occur.
            return None
        if vec_n[0] or vec_n[1]:
            p_co = CycNum.one
            s_co = vec_d[0] * a.inverse() if vec_d[0] else vec_d[1] * b.inverse()
        else:
            p_co = CycNum.zero
            s_co = CycNum.one
        lam = _mobius_checked(p_co, q.num[g], s_co, q.den[g])
        if lam is None:
            return None
        shape = BinomialShape(lam, a, b, g)
        return shape if _binomial_verifies(q, shape) else None
    return None


def _mobius_checked(a, b, c, d) -> Mobius | None:
    try:
        return Mobius(a, b, c, d)
    except DomainError:
        return None


def _binomial_verifies(q: RatFunc, shape: BinomialShape) -> bool:
    return compose(shape.lam.as_ratfunc(), shape.inner()) == q


def is_trinomial_shape(q: LaurentPoly) -> tuple[CycNum, CycNum, CycNum, int] | None:
    """Decide whether q = a x^n + b + c x^-n; returns (a, b, c, n)."""
    nonconst = [e for e, _ in q.terms if e != 0]
    if not nonconst:
        return None
    n = max(abs(e) for e in nonconst)
    if any(e not in (n, 0, -n) for e in nonconst):
        return None
    return (q.coefficient(n), q.coefficient(0), q.coefficient(-n), n)

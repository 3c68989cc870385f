"""Detection of special rational maps: conjugates of x^d, -x^d or T_d.

The decision runs in two layers.

Polynomial layer: an affine conjugacy (ux + v) taking h to one of the
models forces v = -a_{d-1}/(d a_d) (the unique recentering killing the
x^(d-1) coefficient) and pins u by u^(d-1) = eps/a_d, so the search
space collapses to finitely many candidates, each read off the
recentred coefficients q = h(x + v): the conjugate by ux + v has x^k
coefficient q_k u^(k-1) and constant (q_0 - v)/u.  A non-affine
conjugator never helps for polynomial h: the power models' extra
symmetry x -> c/x folds any such conjugacy back into an affine one, and
T_d has no totally ramified fixed point besides infinity.

Rational layer: a non-polynomial special map must have a finite totally
ramified fixed point gamma (the image of infinity under the
conjugation), that is, num - gamma*den = c*(x - gamma)^d for some c.
Read coefficientwise in x, that identity is d polynomial equations in
gamma; their gcd has degree at most 2, so its roots come in closed form
and each satisfies the identity exactly.  Each candidate is conjugated
to the polynomial layer by gamma + 1/x; that conjugate,
x^d den(gamma + 1/x)/c, comes from one Taylor shift of the denominator.

Root extraction stays inside the cyclotomic closure: for rational s > 0
the r-th root lies in the field iff s^(2/r) is rational, in which case
it is the square root of a rational, constructible exactly via Gauss
sums.  Leading coefficients that are not rational multiples of roots of
unity leave the search indecisive and the verdict reports "unknown".
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import CycNum, RootOfUnity, factorize, is_root_of_unity, vector_value
from .errors import DomainError
from .ratfunc import (
    Mobius,
    Poly,
    RatFunc,
    chebyshev,
    degree,
    mobius_conjugate,
    poly_gcd,
)
from .record import Record, fill

STATUS_SPECIAL = "special"
STATUS_NOT_SPECIAL = "not_special"
STATUS_UNKNOWN = "unknown"

MODEL_POWER = "power"
MODEL_NEG_POWER = "neg_power"
MODEL_CHEBYSHEV = "chebyshev"


class SpecialCertificate(Record):
    __slots__ = ("mobius", "model_kind", "degree")

    def __init__(self, mobius: Mobius, model_kind: str, degree: int):
        fill(self, mobius, model_kind, degree)

    def model(self) -> RatFunc:
        return RatFunc.from_poly(_model_poly(self.model_kind, self.degree))

    def model_name(self) -> str:
        if self.model_kind == MODEL_POWER:
            return f"x^{self.degree}"
        if self.model_kind == MODEL_NEG_POWER:
            return f"-x^{self.degree}"
        return f"T_{self.degree}"


def _model_poly(kind: str, d: int) -> Poly:
    if kind == MODEL_POWER:
        return Poly.x().pow(d)
    if kind == MODEL_NEG_POWER:
        return Poly.x().pow(d).scale(-1)
    if kind == MODEL_CHEBYSHEV:
        return chebyshev(d)
    raise DomainError(f"unknown model kind {kind}")


class SpecialVerdict(Record):
    """Outcome of is_special: certified yes, exhausted no, or unknown."""

    __slots__ = ("status", "certificate")

    def __init__(self, status: str, certificate: SpecialCertificate | None = None):
        fill(self, status, certificate)

    def __bool__(self):
        return self.status == STATUS_SPECIAL


# ---------------------------------------------------------------------------
# exact root extraction inside the cyclotomic closure


def exact_nth_root_fraction(s: Fraction, r: int) -> Fraction | None:
    """The rational r-th root of s > 0, if one exists."""
    if s <= 0:
        raise DomainError("positive rational expected")
    pn = _int_nth_root(s.numerator, r)
    if pn is None:
        return None
    pd = _int_nth_root(s.denominator, r)
    if pd is None:
        return None
    return Fraction(pn, pd)


def _int_nth_root(v: int, r: int) -> int | None:
    """The integer r-th root of v >= 1, if v is an exact r-th power."""
    if r == 2:
        root = math.isqrt(v)
    else:
        # Integer Newton from 2^ceil(bits/r) >= v^(1/r) descends to the floor.
        root = 1 << -(-v.bit_length() // r)
        while True:
            nxt = ((r - 1) * root + v // root ** (r - 1)) // r
            if nxt >= root:
                break
            root = nxt
    return root if root**r == v else None


def _legendre(t: int, p: int) -> int:
    v = pow(t, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


def sqrt_rational_cyc(s: Fraction) -> CycNum:
    """An exact square root of any nonzero rational, as a cyclotomic number.

    Every quadratic field embeds in a cyclotomic field: sqrt(2) is
    zeta_8 + zeta_8^-1 and sqrt(p) for odd p comes from the quadratic
    Gauss sum, whose square is (-1)^((p-1)/2) * p.
    """
    if s == 0:
        return CycNum.zero
    result = CycNum.one
    if s < 0:
        result = CycNum.zeta(4)
        s = -s
    # sqrt(p/q) = sqrt(p*q)/q
    n_int = s.numerator * s.denominator
    result = result * CycNum.from_rational(Fraction(1, s.denominator))
    square = 1
    for p, e in factorize(n_int):
        square *= p ** (e // 2)
        if e % 2 == 0:
            continue
        if p == 2:
            result = result * (CycNum.zeta(8) + CycNum.zeta(8, 7))
            continue
        # the Gauss sum g = sum of (t/p) zeta_p^t over 0 < t < p; for
        # p = 3 (mod 4), g^2 = -p and the root is g/i = sum of
        # (t/p) zeta_4p^(4t + 3p), one exponent vector at conductor 4p
        n, shift = (p, 0) if p % 4 == 1 else (4 * p, 3 * p)
        pairs = [((n // p * t + shift) % n, _legendre(t, p)) for t in range(1, p)]
        result = result * vector_value((pairs, 1, n))
    result = result * CycNum.from_rational(square)
    return result


def as_positive_rational_times_rou(
    a: CycNum,
) -> tuple[Fraction, RootOfUnity] | None:
    """Write a = s * xi with s > 0 rational and xi a root of unity, if possible."""
    if not a:
        return None
    if a.is_rational:
        q = a.as_rational()
        if q > 0:
            return q, RootOfUnity.make(1, 0)
        return -q, RootOfUnity.make(2, 1)
    # Torsion vectors are primitive, so a = s * xi with s > 0 forces
    # num = (s * den) * vec(xi) with s * den = gcd(*num).
    g = math.gcd(*a.num)
    rou = is_root_of_unity(a * Fraction(a.den, g))
    if rou is None:
        return None
    return Fraction(g, a.den), rou


def nth_root_in_cyclotomic(w: CycNum, r: int) -> tuple[CycNum | None, bool]:
    """One r-th root of w inside the cyclotomic closure (None if there is
    none), plus decisiveness.

    Decisive (second component True) whenever w is a rational multiple
    of a root of unity: s^(1/r) lies in the closure iff s^(2/r) is
    rational, because a real element of an abelian field has at most
    the conjugates +-itself, forcing its square to be rational.
    """
    if r < 1:
        raise DomainError("root index must be positive")
    if not w or r == 1:
        return w, True
    dec = as_positive_rational_times_rou(w)
    if dec is None:
        return None, False
    s, rou = dec
    t = exact_nth_root_fraction(s, r)
    if t is not None:
        base = CycNum.from_rational(t)
    elif r % 2 == 0 and (half := exact_nth_root_fraction(s, r // 2)) is not None:
        base = sqrt_rational_cyc(half)
    else:
        return None, True
    # r-th root of the root-of-unity part: zeta_{m r}^k
    return base * CycNum.zeta(rou.order * r, rou.exponent), True


# ---------------------------------------------------------------------------
# the decision procedure


def is_special(h: RatFunc) -> SpecialVerdict:
    """Is h Mobius-conjugate to x^d, -x^d, or the Chebyshev model T_d?

    Returns a verdict whose certificate satisfies
    mobius_conjugate(h, certificate.mobius) == certificate.model()
    exactly.  "not_special" means the finite candidate space was
    exhausted; "unknown" flags the (rare) cases where a required root
    extraction is indecisive.
    """
    d = degree(h)
    if d < 2:
        raise DomainError("is_special requires degree >= 2")
    if not h.is_poly():
        return _special_rational(h)
    verdict = _special_polynomial(h.num)
    cert = verdict.certificate
    if cert is not None and mobius_conjugate(h, cert.mobius) != cert.model():
        raise AssertionError("special certificate failed to verify")
    return verdict


def _special_polynomial(p: Poly) -> SpecialVerdict:
    d = p.deg
    a_d_inv = p[d].inverse()
    v = (-p[d - 1]) * a_d_inv * Fraction(1, d)
    q = p.taylor_shift(v)  # h(x + v)
    unknown = False

    middles_vanish = all(not q[k] for k in range(1, d)) and q[0] == v
    powers = ((1, MODEL_POWER), (-1, MODEL_NEG_POWER)) if middles_vanish else ()
    for sign, kind in powers + ((1, MODEL_CHEBYSHEV),):
        u0, decisive = nth_root_in_cyclotomic(a_d_inv * sign, d - 1)
        if not decisive:
            unknown = True
        if u0 is None:
            continue
        model = _model_poly(kind, d)
        # a test that fails for every u != 0 rejects the model before any
        # root is built: q_0 - v = 0 * u, or q_k u^(k-1) = model_k with
        # exactly one of q_k and model_k zero
        if (not model[0] and q[0] != v) or any(
            bool(q[k]) != bool(model[k]) for k in range(1, d + 1)
        ):
            continue
        for j in range(d - 1):  # the (d-1)-th roots u0 zeta_(d-1)^j, one at a time
            u = u0 * CycNum.zeta(d - 1, j)
            # (q(u x) - v)/u coefficientwise, its constant compared times u
            if q[0] - v == model[0] * u and all(
                q[k] * u ** (k - 1) == model[k] for k in range(1, d + 1)
            ):
                cert = SpecialCertificate(Mobius.affine(u, v), kind, d)
                return SpecialVerdict(STATUS_SPECIAL, cert)

    return SpecialVerdict(STATUS_UNKNOWN if unknown else STATUS_NOT_SPECIAL)


def _special_rational(h: RatFunc) -> SpecialVerdict:
    d = degree(h)
    num, den = h.num, h.den
    # E_k(gamma), the x^k coefficient of num - gamma*den - c*(x - gamma)^d
    # with c = num_d - gamma*den_d, vanishes for every k exactly at the
    # finite totally ramified fixed points.  E_(d-1), or E_(d-2) when
    # den_d = 0, has degree 2 in gamma, so their gcd G has degree <= 2.
    g = Poly()
    for k in range(d - 1, -1, -1):
        b = math.comb(d, k) * (-1) ** (d - k)
        shape = Poly([CycNum.zero] * (d - k) + [num[d] * b, den[d] * -b])
        g = poly_gcd(g, Poly([num[k], -den[k]]) - shape)
        if g.deg == 0:
            return SpecialVerdict(STATUS_NOT_SPECIAL)
    candidates, decisive = _roots_of_low_degree(g)
    unknown = not decisive
    for gamma in candidates:
        verdict = _certify_via_fixed_point(h, gamma, d)
        if verdict.status == STATUS_SPECIAL:
            return verdict
        unknown = unknown or verdict.status == STATUS_UNKNOWN
    return SpecialVerdict(STATUS_UNKNOWN if unknown else STATUS_NOT_SPECIAL)


def _roots_of_low_degree(g: Poly) -> tuple[list[CycNum], bool]:
    """Roots of a polynomial of degree 1 or 2, in closed form."""
    if g.deg == 1:
        return [(-g[0]) * g[1].inverse()], True
    a, b, c = g[2], g[1], g[0]
    sqrt, decisive = nth_root_in_cyclotomic(b * b - a * c * 4, 2)
    if sqrt is None:
        return [], decisive
    inv = (a * 2).inverse()
    return [(-b + sqrt) * inv, (-b - sqrt) * inv], True


def _certify_via_fixed_point(h: RatFunc, gamma: CycNum, d: int) -> SpecialVerdict:
    """Decide h through a root gamma of G: num - gamma*den = c*(x - gamma)^d
    with c != 0 (h is not constant), so the conjugate by gamma + 1/x is
    den's Taylor coefficients at gamma over c, reversed (den(gamma) != 0)."""
    c = h.num[d] - gamma * h.den[d]
    shifted = h.den.taylor_shift(gamma).scale(c.inverse())
    sub = _special_polynomial(Poly([shifted[d - k] for k in range(d + 1)]))
    if sub.status != STATUS_SPECIAL:
        return sub
    mu = Mobius(gamma, CycNum.one, CycNum.one, CycNum.zero)  # x -> gamma + 1/x
    m_full = mu.compose(sub.certificate.mobius)
    cert = SpecialCertificate(m_full, sub.certificate.model_kind, d)
    if mobius_conjugate(h, m_full) == cert.model():
        return SpecialVerdict(STATUS_SPECIAL, cert)
    return SpecialVerdict(STATUS_UNKNOWN)

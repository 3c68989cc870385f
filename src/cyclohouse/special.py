"""Detection of special rational maps: conjugates of x^d, -x^d or T_d.

The decision runs in two layers.

Polynomial layer: an affine conjugacy (ux + v) taking h to one of the
models forces v = -a_{d-1}/(d a_d) (the unique recentering killing the
x^(d-1) coefficient) and pins u by u^(d-1) = eps/a_d, so the search
space collapses to finitely many exactly-verifiable candidates.  A
non-affine conjugator never helps for polynomial h: the power models'
extra symmetry x -> c/x folds any such conjugacy back into an affine
one, and T_d has no totally ramified fixed point besides infinity.

Rational layer: a non-polynomial special map must have a finite totally
ramified fixed point gamma (the image of infinity under the
conjugation).  Such points are roots of multiplicity d-1 of the
Wronskian num'*den - num*den', of which there are at most two, located
by gcd/derivative computations alone; each candidate is checked by the
exact shape identity num - gamma*den = c*(x-gamma)^d and, on success,
conjugated to the polynomial layer by gamma + 1/x.

Root extraction stays inside the cyclotomic closure: for rational s > 0
the r-th root lies in the field iff s^(2/r) is rational, in which case
it is the square root of a rational, constructible exactly via Gauss
sums.  Leading coefficients that are not rational multiples of roots of
unity leave the search indecisive and the verdict reports "unknown".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycNum, RootOfUnity, _cyclotomy, factorize
from .errors import DomainError
from .ratfunc import (
    Mobius,
    Poly,
    RatFunc,
    chebyshev,
    degree,
    mobius_conjugate,
    poly_gcd,
    squarefree_part,
)

STATUS_SPECIAL = "special"
STATUS_NOT_SPECIAL = "not_special"
STATUS_UNKNOWN = "unknown"

MODEL_POWER = "power"
MODEL_NEG_POWER = "neg_power"
MODEL_CHEBYSHEV = "chebyshev"


@dataclass(frozen=True)
class SpecialCertificate:
    mobius: Mobius
    model_kind: str
    degree: int

    def model(self) -> RatFunc:
        d = self.degree
        if self.model_kind == MODEL_POWER:
            return RatFunc.from_poly(Poly.x().pow(d))
        if self.model_kind == MODEL_NEG_POWER:
            return RatFunc.from_poly(Poly.x().pow(d).scale(-1))
        if self.model_kind == MODEL_CHEBYSHEV:
            return RatFunc.from_poly(chebyshev(d))
        raise DomainError(f"unknown model kind {self.model_kind}")

    def model_name(self) -> str:
        if self.model_kind == MODEL_POWER:
            return f"x^{self.degree}"
        if self.model_kind == MODEL_NEG_POWER:
            return f"-x^{self.degree}"
        return f"T_{self.degree}"


@dataclass(frozen=True)
class SpecialVerdict:
    """Outcome of is_special: certified yes, exhausted no, or unknown."""

    status: str
    certificate: SpecialCertificate | None = None

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
        gauss = CycNum.zero
        for t in range(1, p):
            gauss = gauss + CycNum.zeta(p, t) * _legendre(t, p)
        if p % 4 == 1:
            result = result * gauss
        else:  # gauss^2 = -p, divide by i
            result = result * gauss * CycNum.zeta(4, 3)
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
    rou = _cyclotomy(a.n).root_of_unity(tuple(c // g for c in a.num))
    if rou is None:
        return None
    return Fraction(g, a.den), rou


def nth_roots_in_cyclotomic(w: CycNum, r: int) -> tuple[list[CycNum], bool]:
    """All r-th roots of w inside the cyclotomic closure, plus decisiveness.

    Decisive (second component True) whenever w is a rational multiple
    of a root of unity: s^(1/r) lies in the closure iff s^(2/r) is
    rational, because a real element of an abelian field has at most
    the conjugates +-itself, forcing its square to be rational.
    """
    if r < 1:
        raise DomainError("root index must be positive")
    if not w:
        return [CycNum.zero], True
    if r == 1:
        return [w], True
    dec = as_positive_rational_times_rou(w)
    if dec is None:
        return [], False
    s, rou = dec
    if r % 2 == 1:
        t = exact_nth_root_fraction(s, r)
        if t is None:
            return [], True
        base = CycNum.from_rational(t)
    else:
        t = exact_nth_root_fraction(s, r)
        if t is not None:
            base = CycNum.from_rational(t)
        else:
            half = exact_nth_root_fraction(s, r // 2)
            if half is None:
                return [], True
            base = sqrt_rational_cyc(half)
    # r-th root of the root-of-unity part: zeta_{m r}^k
    rou_root = CycNum.zeta(rou.order * r, rou.exponent)
    u0 = base * rou_root
    roots = []
    for j in range(r):
        roots.append(u0 * CycNum.zeta(r, j))
    return roots, True


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
    if h.is_poly():
        return _special_polynomial(h)
    return _special_rational(h)


def _special_polynomial(h: RatFunc) -> SpecialVerdict:
    p = h.num
    d = p.deg
    a_d = p[d]
    v = (-p[d - 1]) * (a_d * d).inverse()
    q = p.taylor_shift(v)  # h(x + v)
    unknown = False

    middles_vanish = all(not q[k] for k in range(1, d)) and q[0] == v
    if middles_vanish:
        for sign, kind in ((1, MODEL_POWER), (-1, MODEL_NEG_POWER)):
            w = CycNum.from_rational(sign) * a_d.inverse()
            roots, decisive = nth_roots_in_cyclotomic(w, d - 1)
            if not decisive:
                unknown = True
            cert = _try_candidates(h, roots, v, kind, d)
            if cert:
                return SpecialVerdict(STATUS_SPECIAL, cert)

    w = a_d.inverse()
    roots, decisive = nth_roots_in_cyclotomic(w, d - 1)
    if not decisive:
        unknown = True
    cert = _try_candidates(h, roots, v, MODEL_CHEBYSHEV, d)
    if cert:
        return SpecialVerdict(STATUS_SPECIAL, cert)

    return SpecialVerdict(STATUS_UNKNOWN if unknown else STATUS_NOT_SPECIAL)


def _try_candidates(h, roots, v, kind, d) -> SpecialCertificate | None:
    for u in roots:
        m = Mobius.affine(u, v)
        cert = SpecialCertificate(m, kind, d)
        if mobius_conjugate(h, m) == cert.model():
            return cert
    return None


def _special_rational(h: RatFunc) -> SpecialVerdict:
    d = degree(h)
    num, den = h.num, h.den
    wronskian = num.derivative() * den - num * den.derivative()
    # Roots of multiplicity >= d-1: gcd of W with its first d-2 derivatives.
    g = wronskian
    deriv = wronskian
    for _ in range(d - 2):
        if g.deg <= 0:
            break
        deriv = deriv.derivative()
        g = poly_gcd(g, deriv)
    if g.deg < 1:
        return SpecialVerdict(STATUS_NOT_SPECIAL)
    rad = squarefree_part(g)
    candidates, decisive = _roots_of_low_degree(rad)
    unknown = not decisive
    for gamma in candidates:
        cert = _certify_via_fixed_point(h, gamma, d)
        if isinstance(cert, SpecialCertificate):
            return SpecialVerdict(STATUS_SPECIAL, cert)
        if cert == STATUS_UNKNOWN:
            unknown = True
    return SpecialVerdict(STATUS_UNKNOWN if unknown else STATUS_NOT_SPECIAL)


def _roots_of_low_degree(rad: Poly) -> tuple[list[CycNum], bool]:
    """Roots of a squarefree polynomial of degree <= 2, in closed form."""
    if rad.deg == 1:
        return [(-rad[0]) * rad[1].inverse()], True
    if rad.deg == 2:
        a, b, c = rad[2], rad[1], rad[0]
        disc = b * b - a * c * CycNum.from_rational(4)
        sqrts, decisive = nth_roots_in_cyclotomic(disc, 2)
        if not sqrts:
            return [], decisive
        s = sqrts[0]
        inv = (a * CycNum.from_rational(2)).inverse()
        return [(-b + s) * inv, (-b - s) * inv], True
    # The theory bounds the candidate locus by a quadratic; anything
    # else is treated as indecisive rather than silently ignored.
    return [], rad.deg < 1


def _certify_via_fixed_point(h: RatFunc, gamma: CycNum, d: int):
    """Try to certify h as special via a totally ramified fixed point gamma."""
    head = h.num - h.den.scale(gamma)
    if head.deg != d:
        return STATUS_NOT_SPECIAL
    c = head.leading()
    target = Poly([-gamma, CycNum.one]).pow(d).scale(c)
    if head != target:
        return STATUS_NOT_SPECIAL
    mu = Mobius(gamma, CycNum.one, CycNum.one, CycNum.zero)  # x -> gamma + 1/x
    g = mobius_conjugate(h, mu)
    if not g.is_poly():
        return STATUS_NOT_SPECIAL
    sub = _special_polynomial(g)
    if sub.status == STATUS_SPECIAL:
        m_full = mu.compose(sub.certificate.mobius)
        cert = SpecialCertificate(m_full, sub.certificate.model_kind, d)
        if mobius_conjugate(h, m_full) == cert.model():
            return cert
        return STATUS_UNKNOWN
    return sub.status

"""Reference special-map decision by trial composition.

This is the earlier search of ``cyclohouse.special``: every candidate
scaling u is tested by forming the conjugate m^-1 (h (m(x))) with two
general compositions, and a non-polynomial map is carried to the
polynomial layer by composing with gamma + 1/x.  The package now reads
each conjugate off one Taylor shift; this is kept to compare against.
It shares the root extraction (``nth_root_in_cyclotomic``) with the
package and lists all r-th roots (``nth_roots_in_cyclotomic``), which
only the tests use.  Its rational
candidates are the roots of multiplicity d - 1 of the Wronskian
num'*den - num*den', found by a chain of derivative gcds and a
squarefree part; the package reads them off one gcd of the shape
identity's coefficients instead, and where the Wronskian locus is too
wide to extract this reference answers "unknown".
"""

from __future__ import annotations

from cyclohouse import CycNum, Mobius, Poly, RatFunc, mobius_conjugate
from cyclohouse.ratfunc import degree, poly_gcd
from cyclohouse.special import (
    MODEL_CHEBYSHEV,
    MODEL_NEG_POWER,
    MODEL_POWER,
    STATUS_NOT_SPECIAL,
    STATUS_SPECIAL,
    STATUS_UNKNOWN,
    SpecialCertificate,
    SpecialVerdict,
    _roots_of_low_degree,
    nth_root_in_cyclotomic,
)


def nth_roots_in_cyclotomic(w: CycNum, r: int) -> tuple[list[CycNum], bool]:
    """All r-th roots of w inside the cyclotomic closure, plus decisiveness
    as in ``nth_root_in_cyclotomic``."""
    u0, decisive = nth_root_in_cyclotomic(w, r)
    if u0 is None:
        return [], decisive
    if not u0:
        return [u0], True
    return [u0 * CycNum.zeta(r, j) for j in range(r)], True


def reference_is_special(h: RatFunc) -> SpecialVerdict:
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
    # a locus wider than a quadratic is reported indecisive
    candidates, decisive = _roots_of_low_degree(rad) if rad.deg <= 2 else ([], False)
    unknown = not decisive
    for gamma in candidates:
        cert = _certify_via_fixed_point(h, gamma, d)
        if isinstance(cert, SpecialCertificate):
            return SpecialVerdict(STATUS_SPECIAL, cert)
        if cert == STATUS_UNKNOWN:
            unknown = True
    return SpecialVerdict(STATUS_UNKNOWN if unknown else STATUS_NOT_SPECIAL)


def squarefree_part(p: Poly) -> Poly:
    """p / gcd(p, p'): each distinct root exactly once (char 0)."""
    if p.is_zero() or p.is_constant():
        return p.monic() if not p.is_zero() else p
    g = poly_gcd(p, p.derivative())
    q, r = p.divmod(g)
    if not r.is_zero():
        raise AssertionError("gcd failed to divide")
    return q.monic()


def _certify_via_fixed_point(h: RatFunc, gamma: CycNum, d: int):
    head = h.num - h.den.scale(gamma)
    if head.deg != d:
        return STATUS_NOT_SPECIAL
    target = Poly([-gamma, CycNum.one]).pow(d).scale(head.leading())
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

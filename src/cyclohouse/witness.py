"""Witness identities h(S(x)) = sum of beta_i e_i x^(n_i) and their search.

A witness certifies that h sends infinitely many cyclotomic arguments
into the bounded-house integers: specializing x to roots of unity makes
the right side a short sum of roots of unity.  Over Q the coefficient
set E is {1}, so every nonzero coefficient of the collapsed Laurent
polynomial must itself be a root of unity.

The search is explicitly bounded: inner maps S are drawn from
  (1) the identity,
  (2) structure-guided candidates (certificates from special-map
      detection, the depressed affine shift),
  (3) over a finite grid of roots of unity and bounded-height rationals,
      the pole-matching maps a x + gamma (h with one finite pole gamma)
      or the quadratic family a x + b + c x^(-1) (h a polynomial), both
      decided from Taylor coefficients, the second through an exact
      screen in F_p.
"None" always means "no witness on that grid", never a proof of
avoidance: no candidate is rejected on floating-point evidence.  Every
hit is re-verified by the exact identity before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import (
    CycNum,
    LoxtonProfile,
    RootOfUnity,
    _screen_field,
    is_root_of_unity,
    residue_mod_p,
)
from .errors import DomainError
from .ratfunc import (
    LaurentPoly,
    Poly,
    RatFunc,
    compose,
    degree,
    iterate,
    is_binomial_shape,
    is_trinomial_shape,
    substitute_poly_laurent,
    term_count,
    to_laurent,
)
from .special import STATUS_SPECIAL, STATUS_UNKNOWN, is_special


@dataclass(frozen=True)
class Witness:
    """Terms (beta_i, e_i, n_i) plus the inner map S.

    Terms may repeat (the sum is a list, not a set); the collapsed
    Laurent polynomial must be nonconstant, as must S.
    """

    terms: tuple[tuple[RootOfUnity, CycNum, int], ...]
    S: RatFunc

    def __post_init__(self):
        if not self.terms:
            raise DomainError("witness needs at least one term")
        if self.S.is_constant():
            raise DomainError("witness inner map must be nonconstant")
        lp = witness_laurent(self)
        if lp.is_constant():
            raise DomainError("witness sum must be nonconstant in x")

    def term_count(self) -> int:
        return len(self.terms)

    def to_dict(self) -> dict:
        from .formatting import format_value

        return {
            "S": format_value(self.S),
            "terms": [
                {"beta": beta.to_dict(), "e": format_value(e), "n": n}
                for beta, e, n in self.terms
            ],
        }


def witness_laurent(w: Witness) -> LaurentPoly:
    """The collapsed Laurent polynomial sum of beta_i e_i x^(n_i)."""
    return LaurentPoly([(n, beta.to_cycnum() * e) for beta, e, n in w.terms])


def witness_check(h: RatFunc, w: Witness) -> bool:
    """Exact identity test compose(h, S) == collapsed witness sum."""
    return compose(h, w.S) == witness_laurent(w).to_ratfunc()


def is_A_short(w: Witness, A, profile: LoxtonProfile) -> bool:
    """Term count within the profile budget at A * B."""
    allowed = {e for e in profile.E}
    for _beta, e, _n in w.terms:
        if e not in allowed:
            raise DomainError("witness coefficient outside the profile set E")
    return w.term_count() <= profile.budget_value(Fraction(A) * profile.B)


# ---------------------------------------------------------------------------
# bounded witness search, deg S <= 2


@dataclass(frozen=True)
class SearchGrid:
    """Finite parameter grid for the quadratic inner-map family."""

    rou_order_cap: int = 12
    rational_height_cap: int = 8

    def entries(self) -> tuple["_GridValue", ...]:
        """The grid values in search order, built once per grid."""
        return _grid_entries(self)


@lru_cache(maxsize=8)
def _grid_entries(grid: SearchGrid) -> tuple["_GridValue", ...]:
    out = []
    for order in range(1, grid.rou_order_cap + 1):
        for k in range(order):
            if math.gcd(k, order) == 1 or (order == 1 and k == 0):
                out.append(_GridValue(rou=(order, k)))
    rationals = []
    cap = grid.rational_height_cap
    for den in range(1, cap + 1):
        for num in range(1, cap + 1):
            if math.gcd(num, den) == 1:
                rationals.append((max(num, den), num, den))
    rationals.sort()
    for _h, num, den in rationals:
        q = Fraction(num, den)
        if q != 1:  # 1 and -1 are listed as roots of unity
            out.append(_GridValue(rational=q))
            out.append(_GridValue(rational=-q))
    return tuple(out)


@dataclass(frozen=True)
class _GridValue:
    """Grid scalar: the root of unity zeta_order^k or a rational."""

    rou: tuple[int, int] | None = None
    rational: Fraction | None = None
    value: CycNum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rou is not None:
            value = CycNum.zeta(*self.rou)
        else:
            value = CycNum.from_rational(self.rational)
        object.__setattr__(self, "value", value)

    def is_root(self) -> bool:
        """True for a root of unity (1 and -1 are listed as such)."""
        return self.rou is not None


_ZERO_VALUE = _GridValue(rational=Fraction(0))


def witness_search_deg2(
    h: RatFunc,
    d_max: int,
    grid: SearchGrid | None = None,
) -> Witness | None:
    """Search for a witness with deg S <= 2; bounded and grid-limited.

    Returns the first verified witness in a fixed deterministic order:
    the identity inner map, then structure-guided candidates, then, in
    grid order, the pole-matching maps a x + gamma (h with one finite
    pole) or the quadratic family (h a polynomial).
    """
    if d_max < 1:
        raise DomainError("d_max must be >= 1")
    grid = grid or SearchGrid()

    for s_cand in _identity_candidate() + _targeted_candidates(h):
        w = _try_inner_map(h, s_cand, d_max)
        if w is not None:
            return w
    if not h.is_poly():
        return _pole_matching_search(h, d_max, grid)
    if degree(h) >= 1:
        return _grid_search_polynomial(h, d_max, grid)
    return None


def _identity_candidate() -> list[RatFunc]:
    return [RatFunc.x()]


def _targeted_candidates(h: RatFunc) -> list[RatFunc]:
    """Structure-guided inner maps tried before the grid."""
    out: list[RatFunc] = []
    d = degree(h)
    if d >= 2:
        try:
            verdict = is_special(h)
        except DomainError:
            verdict = None
        if verdict is not None and verdict.status == STATUS_SPECIAL:
            cert = verdict.certificate
            if cert.model_kind == "chebyshev":
                out.append(
                    compose(
                        cert.mobius.as_ratfunc(),
                        LaurentPoly.x_plus_inverse_x().to_ratfunc(),
                    )
                )
            else:
                out.append(cert.mobius.as_ratfunc())
    if h.is_poly() and d >= 2:
        p = h.num
        v = (-p[d - 1]) * (p[d] * d).inverse()
        if v:
            out.append(RatFunc.from_poly(Poly([v, CycNum.one])))
    return out


def _try_inner_map(h: RatFunc, s_map: RatFunc, d_max: int) -> Witness | None:
    """Exact check of one candidate inner map."""
    if s_map.is_constant() or degree(s_map) > 2:
        return None
    try:
        composed = compose(h, s_map)
    except DomainError:
        return None
    lp = to_laurent(composed)
    if lp is None or lp.is_constant():
        return None
    return _witness_from_laurent(h, s_map, lp, d_max)


def _witness_from_laurent(
    h: RatFunc, s_map: RatFunc, lp: LaurentPoly, d_max: int
) -> Witness | None:
    if lp.num_terms() > d_max:
        return None
    terms = []
    for e, c in reversed(lp.terms):
        rou = is_root_of_unity(c)
        if rou is None:
            return None
        terms.append((rou, CycNum.one, e))
    w = Witness(tuple(terms), s_map)
    if not witness_check(h, w):
        raise AssertionError("search produced a witness that fails verification")
    return w


def _pole_matching_search(
    h: RatFunc, d_max: int, grid: SearchGrid
) -> Witness | None:
    """S = a x + gamma over the grid, for h whose denominator is (x - gamma)^e.

    For non-polynomial h the quadratic family a x + b + c x^(-1) with
    a, c both nonzero can never make h(S(x)) a Laurent polynomial (the
    preimage of any finite pole of h is a nonzero finite point), so the
    search reduces to S = a x + gamma and S = gamma + a x^(-1) where
    gamma is the unique finite pole, if there is exactly one.  With c_k
    the Taylor coefficients of the numerator at gamma,
    h(a x + gamma) = sum c_k a^(k-e) x^(k-e), and h(gamma + a/x) has the
    same coefficients at mirrored exponents: the second map is a witness
    exactly when the first is, so only a x + gamma is tried, and one
    Taylor shift serves every grid value a.
    """
    den = h.den
    e = den.deg
    gamma = (-den[e - 1]) * CycNum.from_rational(Fraction(1, e))
    if Poly([-gamma, CycNum.one]).pow(e) != den:
        return None
    shifted = h.num.taylor_shift(gamma)
    if shifted.num_terms() > d_max:  # the term count is the same for every a
        return None
    for gv in grid.entries():
        a = gv.value
        s_map = RatFunc.from_poly(Poly([gamma, a]))
        w = _witness_from_laurent(h, s_map, _pole_laurent(shifted, e, a), d_max)
        if w is not None:
            return w
    return None


def _pole_laurent(shifted: Poly, e: int, a: CycNum) -> LaurentPoly:
    """h(a x + gamma) = a^-e * sum of c_k a^k x^(k-e), from the numerator's
    Taylor coefficients c_k at gamma: one running product and one inverse."""
    terms, power = [], CycNum.one
    for k, c in enumerate(shifted.coeffs):
        terms.append((k - e, c * power))
        power = power * a
    return LaurentPoly(terms).scale(a ** -e)


def _grid_search_polynomial(
    h: RatFunc, d_max: int, grid: SearchGrid
) -> Witness | None:
    """The quadratic family a x + b + c x^(-1) over the grid.

    With p_k(b) the Taylor coefficients of h at b, the coefficient of
    x^m in h(a x + b + c/x) is the sum over k = m (mod 2) of
    p_k(b) C(k, (k+m)/2) a^((k+m)/2) c^((k-m)/2), and each must vanish
    or be a root of unity.  Two are tested first: h_d a^d, which picks
    a (and c, by symmetry), and p_(d-1)(b) a^(d-1), which picks b, with
    p_(d-1)(b) = d h_d b + h_(d-1).  For a root of unity a the second
    does not depend on a.  ``_ModularScreen`` is the only pre-filter: it
    tests both in F_p, then walks the remaining coefficients there.  It
    rejects no witness; a coefficient that is neither 0 nor a root of
    unity survives it with probability about lcm(2, L)/p, and every
    survivor is expanded and verified exactly.
    """
    poly = h.num
    d = poly.deg
    screen = _ModularScreen(poly, grid)
    a_values = [
        gv for gv in grid.entries() if screen.may_be_root(screen.lead(gv.value), gv.value.n)
    ]
    if not a_values:
        return None
    b_values = [_ZERO_VALUE, *grid.entries()]

    def b_survivors(a: CycNum) -> list[tuple[_GridValue, list[int]]]:
        """The b whose image of p_(d-1)(b) a^(d-1) may be zero or a root of unity."""
        scale = screen.powers(a)[d - 1]
        return [
            (gv, screen.taylor(gv.value))
            for gv in b_values
            if screen.may_be_root(screen.next_to_lead(gv.value) * scale % screen.p, gv.value.n)
        ]

    cs = [(gv, screen.powers(gv.value)) for gv in [_ZERO_VALUE, *a_values]]
    root_bs = b_survivors(CycNum.one)
    for a_gv in a_values:
        bs = root_bs if a_gv.is_root() else b_survivors(a_gv.value)
        a = a_gv.value
        ap = screen.powers(a)
        for c_gv, cp in cs:
            c = c_gv.value
            order = math.lcm(screen.order, a.n, c.n)
            for b_gv, tb in bs:
                b = b_gv.value
                if not screen.keeps(ap, tb, cp, math.lcm(order, b.n), d_max):
                    continue
                inner = LaurentPoly([(1, a), (0, b), (-1, c)])
                lp = substitute_poly_laurent(poly, inner)
                w = _witness_from_laurent(h, inner.to_ratfunc(), lp, d_max)
                if w is not None:
                    return w
    return None


class _ModularScreen:
    """The coefficients of h(a x + b + c/x) reduced into F_p.

    p = 1 (mod N) is prime and g has exact order N mod p, where N is a
    multiple of lcm(2, conductors of h and of the grid), so zeta_N -> g
    is a ring map into F_p (``residue_mod_p``).  A coefficient in
    Q(zeta_L) that vanishes or is a root of unity maps to 0 or to v with
    v^lcm(2, L) = 1, and a nonzero image means a nonzero coefficient, so
    the screen never rejects a witness.  A coefficient that is neither
    passes with probability about lcm(2, L)/p, p > 2^24, and each
    survivor is verified exactly.
    """

    def __init__(self, poly: Poly, grid: SearchGrid):
        self.order = math.lcm(2, *(c.n for c in poly.coeffs))
        big_n = math.lcm(self.order, *range(1, grid.rou_order_cap + 1))
        # p must not divide a denominator of h or of the grid
        while True:
            p, g = _screen_field(big_n)
            if p > grid.rational_height_cap and all(c.den % p for c in poly.coeffs):
                break
            big_n *= 2
        self.p, self.g, self.big_n = p, g, big_n
        self.d = d = poly.deg
        self.coeffs = [residue_mod_p(c, p, g, big_n) for c in poly.coeffs]
        self.binom = [[math.comb(k, i) % p for i in range(k + 1)] for k in range(d + 1)]
        self._taylor: dict[int, list[int]] = {}

    def image(self, v: CycNum) -> int:
        return residue_mod_p(v, self.p, self.g, self.big_n)

    def powers(self, v: CycNum) -> list[int]:
        """Images of v^0, ..., v^d."""
        x, out = self.image(v), [1]
        for _ in range(self.d):
            out.append(out[-1] * x % self.p)
        return out

    def taylor(self, b: CycNum) -> list[int]:
        """Images of the Taylor coefficients p_0(b), ..., p_d(b) of h at b."""
        x = self.image(b)
        t = self._taylor.get(x)
        if t is None:
            t, p, d = list(self.coeffs), self.p, self.d
            for i in range(d):
                for j in range(d - 1, i - 1, -1):
                    t[j] = (t[j] + x * t[j + 1]) % p
            self._taylor[x] = t
        return t

    def lead(self, a: CycNum) -> int:
        """Image of h_d a^d."""
        return self.coeffs[-1] * self.powers(a)[-1] % self.p

    def next_to_lead(self, b: CycNum) -> int:
        """Image of p_(d-1)(b) = d h_d b + h_(d-1)."""
        return (self.d * self.coeffs[-1] * self.image(b) + self.coeffs[-2]) % self.p

    def may_be_root(self, v: int, n: int) -> bool:
        """False only if a value of conductor dividing lcm(n, conductors
        of h) with image v is neither 0 nor a root of unity."""
        return not v or pow(v, math.lcm(self.order, n), self.p) == 1

    def keeps(self, ap, t, cp, order: int, d_max: int) -> bool:
        """False only if h(a x + b + c/x) is no witness within d_max terms.

        ap and cp are the ``powers`` of a and c, t is ``taylor`` at b and
        order is lcm(2, L), L the conductor of h, a, b and c.  The images
        of the x^d and x^(d-1) coefficients were screened already (``lead``
        and ``next_to_lead``); the walk starts at x^(d-2) and stops at the
        first image that is neither 0 nor of order dividing lcm(2, L), or
        once more than d_max are nonzero.
        """
        p, d, binom = self.p, self.d, self.binom
        nonzero = 1 + (t[d - 1] != 0)
        # with c = 0 (image 0) every coefficient below x^0 vanishes
        for m in range(d - 2, -d - 1 if cp[1] else -1, -1):
            s = 0
            for k in range(abs(m), d + 1, 2):
                i = (k + m) >> 1
                s += t[k] * binom[k][i] * ap[i] * cp[k - i]
            s %= p
            if s:
                nonzero += 1
                if nonzero > d_max or pow(s, order, p) != 1:
                    return False
        return nonzero <= d_max


# ---------------------------------------------------------------------------
# composition term-count bounds


def fz_degree_cap(l: int) -> tuple[int, int]:
    """Degree caps (2016 * 5^l, 2(2l-1)(l-1)) for an l-term composition."""
    if l < 1:
        raise DomainError("term count must be >= 1")
    return 2016 * 5**l, 2 * (2 * l - 1) * (l - 1)


def iterate_term_lower_bound(d: int, n: int) -> float:
    """log base 5 of d^(n-2)/2016: minimum terms of h^n o q, h non-special."""
    if d < 3:
        raise DomainError("degree must be >= 3")
    if n < 3:
        raise DomainError("iteration count must be >= 3")
    return ((n - 2) * math.log(d) - math.log(2016)) / math.log(5)


@dataclass(frozen=True)
class FZReport:
    """All intermediates of one degree-cap consistency check."""

    degree_h: int
    composition_terms: int
    rational_cap: int
    laurent_cap: int
    q_binomial_shaped: bool
    q_trinomial_shaped: bool | None
    rational_branch_checked: bool
    rational_bound_holds: bool | None
    laurent_branch_checked: bool
    laurent_bound_holds: bool | None
    violations: tuple[str, ...] = field(default=())

    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "degree_h": self.degree_h,
            "composition_terms": self.composition_terms,
            "rational_cap": self.rational_cap,
            "laurent_cap": self.laurent_cap,
            "q_binomial_shaped": self.q_binomial_shaped,
            "q_trinomial_shaped": self.q_trinomial_shaped,
            "rational_branch_checked": self.rational_branch_checked,
            "rational_bound_holds": self.rational_bound_holds,
            "laurent_branch_checked": self.laurent_branch_checked,
            "laurent_bound_holds": self.laurent_bound_holds,
            "violations": list(self.violations),
        }


def verify_fz(h: RatFunc, q: RatFunc) -> FZReport:
    """Exact consistency check of the composition degree caps.

    Expands p = h o q, counts terms, tests the hypothesis shapes of q,
    and asserts the applicable caps on deg h.  Violations (none are
    expected; the caps are theorems) are collected, not raised.
    """
    if q.is_constant():
        raise DomainError("inner map must be nonconstant")
    p = compose(h, q)
    terms = term_count(p)
    rational_cap, laurent_cap = fz_degree_cap(terms)
    d_h = degree(h)
    binom = is_binomial_shape(q) is not None
    violations = []

    rational_checked = not binom
    rational_holds: bool | None = None
    if rational_checked:
        rational_holds = d_h <= rational_cap
        if not rational_holds:
            violations.append("rational-branch degree cap violated")

    q_laurent = to_laurent(q)
    trinom: bool | None = None
    laurent_checked = False
    laurent_holds: bool | None = None
    if h.is_poly() and q_laurent is not None:
        trinom = is_trinomial_shape(q_laurent) is not None
        if not trinom:
            laurent_checked = True
            laurent_holds = d_h <= laurent_cap
            if not laurent_holds:
                violations.append("laurent-branch degree cap violated")

    return FZReport(
        degree_h=d_h,
        composition_terms=terms,
        rational_cap=rational_cap,
        laurent_cap=laurent_cap,
        q_binomial_shaped=binom,
        q_trinomial_shaped=trinom,
        rational_branch_checked=rational_checked,
        rational_bound_holds=rational_holds,
        laurent_branch_checked=laurent_checked,
        laurent_bound_holds=laurent_holds,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class SpecialTermsReport:
    degree_h: int
    iterations: int
    composition_terms: int
    lower_bound: float
    bound_holds: bool

    def to_dict(self) -> dict:
        return {
            "degree_h": self.degree_h,
            "iterations": self.iterations,
            "composition_terms": self.composition_terms,
            "lower_bound": self.lower_bound,
            "bound_holds": self.bound_holds,
        }


def verify_specialterms(h: RatFunc, q: RatFunc, n: int) -> SpecialTermsReport:
    """Exact check that h^n o q has at least log_5(d^(n-2)/2016) terms.

    Preconditions: deg h >= 3, h not special (decided, not merely
    unknown), n >= 3, q nonconstant.
    """
    d = degree(h)
    if d < 3:
        raise DomainError("degree of h must be >= 3")
    if n < 3:
        raise DomainError("iteration count must be >= 3")
    if q.is_constant():
        raise DomainError("inner map must be nonconstant")
    verdict = is_special(h)
    if verdict.status == STATUS_SPECIAL:
        raise DomainError("h is special; the bound does not apply")
    if verdict.status == STATUS_UNKNOWN:
        raise DomainError("specialness of h is undecided at this degree")
    iterated = iterate(h, n)
    p = compose(iterated, q)
    terms = term_count(p)
    return SpecialTermsReport(
        degree_h=d,
        iterations=n,
        composition_terms=terms,
        lower_bound=iterate_term_lower_bound(d, n),
        # terms >= log_5(d^(n-2)/2016), decided in integers
        bound_holds=2016 * 5**terms >= d ** (n - 2),
    )

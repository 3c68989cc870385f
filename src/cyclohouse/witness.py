"""Witness identities h(S(x)) = sum of beta_i e_i x^(n_i) and their search.

A witness certifies that h sends infinitely many cyclotomic arguments
into the bounded-house integers: specializing x to roots of unity makes
the right side a short sum of roots of unity.  Over Q the coefficient
set E is {1}, so every nonzero coefficient of the collapsed Laurent
polynomial must itself be a root of unity.

The search is explicitly bounded: inner maps S are drawn from
  (1) the identity,
  (2) structure-guided candidates (certificates from special-map
      detection, the depressed affine shift, pole-matching affine maps),
  (3) the quadratic family a x + b + c x^(-1) over a finite grid of
      roots of unity and bounded-height rationals.
"None" always means "no witness on that grid", never a proof of
avoidance.  Every hit is re-verified by the exact identity before being
returned.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclotomic import (
    CycNum,
    LoxtonProfile,
    RootOfUnity,
    is_root_of_unity,
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

    def entries(self) -> list["_GridValue"]:
        out = []
        for order in range(1, self.rou_order_cap + 1):
            for k in range(order):
                if math.gcd(k, order) == 1 or (order == 1 and k == 0):
                    out.append(_GridValue(rou=(order, k)))
        rationals = []
        cap = self.rational_height_cap
        for den in range(1, cap + 1):
            for num in range(1, cap + 1):
                if math.gcd(num, den) == 1:
                    rationals.append((max(num, den), num, den))
        rationals.sort()
        for _h, num, den in rationals:
            q = Fraction(num, den)
            if q != 1:
                out.append(_GridValue(rational=q))
            out.append(_GridValue(rational=-q))
        return out


@dataclass(frozen=True)
class _GridValue:
    """Grid scalar, tagged so embeddings are cheap to evaluate numerically."""

    rou: tuple[int, int] | None = None
    rational: Fraction | None = None

    def to_cycnum(self) -> CycNum:
        if self.rou is not None:
            return CycNum.zeta(*self.rou)
        return CycNum.from_rational(self.rational)

    def embed(self, t: int, n: int) -> complex:
        """Numeric image under sigma_t inside Q(zeta_n)."""
        if self.rational is not None:
            return complex(self.rational)
        order, k = self.rou
        return cmath.exp(2j * cmath.pi * ((t * k) % order) / order)

    def conductor(self) -> int:
        if self.rational is not None:
            return 1
        return self.rou[0]

    def is_zero(self) -> bool:
        return self.rational == 0


_ZERO_VALUE = _GridValue(rational=Fraction(0))


def witness_search_deg2(
    h: RatFunc,
    d_max: int,
    grid: SearchGrid | None = None,
) -> Witness | None:
    """Search for a witness with deg S <= 2; bounded and grid-limited.

    Returns the first verified witness in a fixed deterministic order:
    the identity inner map, then structure-guided candidates, then the
    quadratic grid family in lexicographic grid order.
    """
    if d_max < 1:
        raise DomainError("d_max must be >= 1")
    grid = grid or SearchGrid()

    for s_cand in _identity_candidate() + _targeted_candidates(h, grid):
        w = _try_inner_map(h, s_cand, d_max)
        if w is not None:
            return w
    if h.is_poly() and degree(h) >= 1:
        w = _grid_search_polynomial(h, d_max, grid)
        if w is not None:
            return w
    return None


def _identity_candidate() -> list[RatFunc]:
    return [RatFunc.x()]


def _targeted_candidates(h: RatFunc, grid: SearchGrid) -> list[RatFunc]:
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
    if not h.is_poly():
        out.extend(_pole_matching_candidates(h, grid))
    return out


def _pole_matching_candidates(h: RatFunc, grid: SearchGrid) -> list[RatFunc]:
    """Affine-type inner maps compatible with a single finite pole.

    For non-polynomial h the quadratic family a x + b + c x^(-1) with
    a, c both nonzero can never make h(S(x)) a Laurent polynomial (the
    preimage of any finite pole of h is a nonzero finite point), so the
    search reduces to S = a x + gamma and S = gamma + a x^(-1) where
    gamma is the unique finite pole, if there is exactly one.
    """
    den = h.den
    if den.deg < 1:
        return []
    # den = (x - gamma)^e exactly?
    e = den.deg
    gamma = (-den[e - 1]) * CycNum.from_rational(Fraction(1, e))
    if Poly([-gamma, CycNum.one]).pow(e) != den:
        return []
    out = []
    x = Poly.x()
    for gv in grid.entries():
        a = gv.to_cycnum()
        if not a:
            continue
        out.append(RatFunc.from_poly(Poly([gamma, a])))
        out.append(RatFunc(Poly([a, gamma * CycNum.one]), x))
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
    for e, c in sorted(lp.terms, key=lambda t: -t[0]):
        rou = is_root_of_unity(c)
        if rou is None:
            return None
        terms.append((rou, CycNum.one, e))
    w = Witness(tuple(terms), s_map)
    if not witness_check(h, w):
        raise AssertionError("search produced a witness that fails verification")
    return w


def _grid_search_polynomial(
    h: RatFunc, d_max: int, grid: SearchGrid
) -> Witness | None:
    """The quadratic family over the grid, with exact coefficient pruning.

    The extreme coefficients of h(a x + b + c x^(-1)) are
    h_d a^d and h_d c^d, and the next-to-extreme ones factor as
    (power of a or c) * (d h_d b + h_{d-1}); all must be roots of unity
    or vanish, which cuts the grid down to a handful of candidates
    before any full expansion.  A one-embedding numeric screen (sound:
    true witnesses have coefficients of modulus exactly 0 or 1) removes
    the rest; survivors are expanded and verified exactly.
    """
    p = h.num
    d = p.deg
    h_d = p[d]
    h_dm1 = p[d - 1]
    entries = grid.entries()

    a_values = [
        gv
        for gv in entries
        if not gv.is_zero() and is_root_of_unity(h_d * gv.to_cycnum() ** d) is not None
    ]
    c_values = [_ZERO_VALUE] + a_values
    bracket_ok: list[_GridValue] = []
    d_hd = h_d * d
    for gv in [_ZERO_VALUE] + entries:
        val = d_hd * gv.to_cycnum() + h_dm1
        if (not val) or is_root_of_unity(val) is not None:
            bracket_ok.append(gv)

    h_floats = [complex(0)] * (d + 1)
    for i in range(d + 1):
        h_floats[i] = _embed_cycnum_numeric(p[i])

    for a_gv in a_values:
        a_num = a_gv.embed(1, 1)
        for c_gv in c_values:
            c_num = c_gv.embed(1, 1)
            for b_gv in bracket_ok:
                if not _numeric_screen(
                    h_floats, a_num, b_gv.embed(1, 1), c_num, d_max
                ):
                    continue
                s_map = _quadratic_inner(a_gv, b_gv, c_gv)
                if s_map is None:
                    continue
                lp = substitute_poly_laurent(
                    p, LaurentPoly(_inner_terms(a_gv, b_gv, c_gv))
                )
                if lp.is_constant():
                    continue
                w = _witness_from_laurent(h, s_map, lp, d_max)
                if w is not None:
                    return w
    return None


def _inner_terms(a_gv, b_gv, c_gv):
    terms = []
    if not a_gv.is_zero():
        terms.append((1, a_gv.to_cycnum()))
    if not b_gv.is_zero():
        terms.append((0, b_gv.to_cycnum()))
    if not c_gv.is_zero():
        terms.append((-1, c_gv.to_cycnum()))
    return terms


def _quadratic_inner(a_gv, b_gv, c_gv) -> RatFunc | None:
    terms = _inner_terms(a_gv, b_gv, c_gv)
    if not terms or all(e == 0 for e, _ in terms):
        return None
    return LaurentPoly(terms).to_ratfunc()


def _embed_cycnum_numeric(v: CycNum) -> complex:
    den = v.den
    if v.is_rational:
        return complex(v.num[0] / den)
    acc = 0j
    for j, c in enumerate(v.num):
        if c:
            acc += (c / den) * cmath.exp(2j * cmath.pi * j / v.n)
    return acc


_SCREEN_TOL = 0.02


def _numeric_screen(h_floats, a, b, c, d_max: int) -> bool:
    """Sound float filter: every coefficient near modulus 0 or 1, and at
    most d_max are away from 0.  True witnesses always pass."""
    # Horner over the Laurent argument a x + b + c/x
    coeffs = {0: h_floats[-1]}
    for hf in reversed(h_floats[:-1]):
        nxt: dict[int, complex] = {}
        for e, v in coeffs.items():
            if a:
                nxt[e + 1] = nxt.get(e + 1, 0j) + v * a
            if b:
                nxt[e] = nxt.get(e, 0j) + v * b
            if c:
                nxt[e - 1] = nxt.get(e - 1, 0j) + v * c
        nxt[0] = nxt.get(0, 0j) + hf
        coeffs = nxt
    nonzero = 0
    for v in coeffs.values():
        m = abs(v)
        if m < _SCREEN_TOL:
            continue
        if abs(m - 1.0) > _SCREEN_TOL:
            return False
        nonzero += 1
    return 1 <= nonzero <= d_max


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

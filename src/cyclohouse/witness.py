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
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import (
    CycNum,
    RootOfUnity,
    _screen_field,
    is_root_of_unity,
    residue_mod_p,
)
from .errors import DomainError, ResourceLimitError
from .ratfunc import (
    LaurentPoly,
    Poly,
    RatFunc,
    _powers,
    compose,
    degree,
    iterate,
    is_binomial_shape,
    is_trinomial_shape,
    term_count,
    to_laurent,
)
from .record import Record, fill


class Witness(Record):
    """Terms (beta_i, e_i, n_i) plus the inner map S.

    Terms may repeat (the sum is a list, not a set); the collapsed
    Laurent polynomial must be nonconstant, as must S.
    """

    __slots__ = ("terms", "S")

    def __init__(self, terms: tuple[tuple[RootOfUnity, CycNum, int], ...], S: RatFunc):
        if not terms:
            raise DomainError("witness needs at least one term")
        if S.is_constant():
            raise DomainError("witness inner map must be nonconstant")
        fill(self, terms, S)
        if all(n == 0 for n, _ in _collapsed_terms(self)):
            raise DomainError("witness sum must be nonconstant in x")

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


def _collapsed_terms(w: Witness) -> tuple[tuple[int, CycNum], ...]:
    """The nonzero (exponent, coefficient) pairs of the collapsed sum,
    ascending; sparse, so an exponent of any size allocates nothing in
    proportion to it."""
    acc: dict[int, CycNum] = {}
    for beta, e, n in w.terms:
        acc[n] = acc.get(n, CycNum.zero) + beta.to_cycnum() * e
    return tuple(sorted((n, c) for n, c in acc.items() if c))


def witness_check(h: RatFunc, w: Witness) -> bool:
    """Exact identity test compose(h, S) == collapsed witness sum.

    The composition, whose size ``compose`` bounds, is read as a Laurent
    polynomial and compared term by term with ``_collapsed_terms``: a
    composition whose denominator is not a monomial is no Laurent
    polynomial and fails.
    """
    lp = to_laurent(compose(h, w.S))
    return lp is not None and lp.terms == _collapsed_terms(w)


# ---------------------------------------------------------------------------
# bounded witness search, deg S <= 2


#: Most grid entries, bounded by M(M+1)/2 + 2H^2 from the caps M and H.
GRID_ENTRY_CEILING = 20_000


class SearchGrid(Record):
    """Finite parameter grid for the quadratic inner-map family; caps M
    and H that allow more than ``GRID_ENTRY_CEILING`` entries (at most
    M(M+1)/2 roots of unity and 2H^2 rationals) raise ResourceLimitError."""

    __slots__ = ("rou_order_cap", "rational_height_cap")

    def __init__(self, rou_order_cap: int = 12, rational_height_cap: int = 8):
        m, h = max(rou_order_cap, 0), max(rational_height_cap, 0)
        if m * (m + 1) // 2 + 2 * h * h > GRID_ENTRY_CEILING:
            raise ResourceLimitError(f"a grid with caps M = {rou_order_cap} and H = "
                                     f"{rational_height_cap} may hold more than "
                                     f"{GRID_ENTRY_CEILING} entries")
        fill(self, rou_order_cap, rational_height_cap)

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


class _GridValue(Record):
    """Grid scalar: the root of unity zeta_order^k or a rational; ``value``
    is that scalar as a CycNum, left out of ==, hash and the repr."""

    __slots__ = ("rou", "rational", "value")
    _fields = ("rou", "rational")

    def __init__(self, rou: tuple[int, int] | None = None, rational: Fraction | None = None):
        if rou is not None:
            value = CycNum.zeta(*rou)
        else:
            value = CycNum.from_rational(rational)
        fill(self, rou, rational, value)

    def is_root(self) -> bool:
        """True for a root of unity (1 and -1 are listed as such)."""
        return self.rou is not None


_ZERO_VALUE = _GridValue(rational=Fraction(0))


@lru_cache(maxsize=32)
def _grid_images(grid: SearchGrid, p: int, g: int, big_n: int) -> tuple[int, ...]:
    """Images in the field (p, g, N) of ``residue_mod_p`` of 0 and the grid values."""
    return tuple(residue_mod_p(gv.value, p, g, big_n) for gv in (_ZERO_VALUE, *grid.entries()))


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
        from .special import STATUS_SPECIAL, is_special

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
    or be a root of unity.  ``_ModularScreen`` is the only pre-filter,
    and it reads every grid value by its position.  Three coefficients
    are tested first: h_d a^d, which picks a (and c, by symmetry);
    p_(d-1)(b) a^(d-1), which picks b, with p_(d-1)(b) = d h_d b +
    h_(d-1) (for a root of unity a it does not depend on a); and, once
    per pair (a, b) over the whole c list, the x^(d-2) coefficient
    alpha + beta gamma_c, alpha = p_(d-2)(b) a^(d-2), beta = d h_d a^(d-1)
    and gamma_c the image of c: a c stays when that image lies in
    ``_pair_ring``, which holds every image the exact test below passes.
    The triples that stay are taken in (c, b) grid order; each is tested
    exactly, ``keeps`` walks the rest, and each survivor is expanded from
    the p_k(b) (``_quadratic_laurent``).
    The screen rejects no witness; a coefficient that is neither 0 nor
    a root of unity survives it with probability about lcm(2, L)/p, and
    every survivor is expanded and verified exactly.
    """
    poly = h.num
    d = poly.deg
    screen = _ModularScreen(poly, grid)
    p, images = screen.p, screen.images
    values = (_ZERO_VALUE, *grid.entries())  # b's list; the a and c lists index it too
    top, lead = d * screen.coeffs[-1], screen.coeffs[-1]
    a_pos = [  # h_d a^d
        i for i in range(1, len(values))
        if screen.may_be_root(lead * pow(images[i], d, p) % p, values[i].value.n)
    ]
    if not a_pos:
        return None

    def b_survivors(scale: int) -> list[tuple[_GridValue, int, int, int]]:
        """(b, image of b, terms counted at x^d and x^(d-1), image of
        p_(d-2)(b)) for each b whose image of p_(d-1)(b) a^(d-1) may be
        zero or a root of unity; d = 1 has no p_(d-2)."""
        out = []
        for gv, x in zip(values, images):
            v = (top * x + screen.coeffs[-2]) * scale % p  # p_(d-1)(b) = d h_d b + h_(d-1)
            if screen.may_be_root(v, gv.value.n):
                out.append((gv, x, 1 + (v != 0), screen.taylor(x)[d - 2] if d > 1 else 0))
        return out

    c_pos = (0, *a_pos)
    gammas = [images[i] for i in c_pos]
    c_orders = tuple(sorted({values[i].value.n for i in c_pos}))
    powers = {i: screen.powers(images[i]) for i in c_pos}
    root_bs = b_survivors(1)
    for ia in a_pos:
        a_gv, ap = values[ia], powers[ia]
        bs = root_bs if a_gv.is_root() else b_survivors(ap[d - 1])
        a = a_gv.value
        order = math.lcm(screen.order, a.n)
        # the x^(d-2) coefficient's image is u tau_b + beta gamma_c (tau_b = 0 for d = 1)
        u, beta = ap[d - 2], top * ap[d - 1] % p
        c_terms = [beta * gamma for gamma in gammas]
        triples = []
        for jb, (b_gv, _x, _counted, tau) in enumerate(bs):
            alpha = u * tau
            ring = _pair_ring(p, screen.g, screen.big_n, math.lcm(order, b_gv.value.n), c_orders)
            if ring is None:  # too many roots to list: every c goes to the exact test
                triples += [(jc, jb) for jc in range(len(c_terms))]
            else:
                triples += [(jc, jb) for jc, v in enumerate(c_terms) if (alpha + v) % p in ring]
        triples.sort()
        for jc, jb in triples:
            b_gv, x, counted, tau = bs[jb]
            c_gv, cp = values[c_pos[jc]], powers[c_pos[jc]]
            s = (u * tau + c_terms[jc]) % p
            if counted + (s != 0) > d_max:
                continue
            b, c = b_gv.value, c_gv.value
            b_order = math.lcm(order, b.n, c.n)
            if s and pow(s, b_order, p) != 1 or not screen.keeps(
                ap, screen.taylor(x), cp, b_order, d_max
            ):
                continue
            lp = _quadratic_laurent(poly, a, b, c)
            inner = LaurentPoly([(1, a), (0, b), (-1, c)])
            w = _witness_from_laurent(h, inner.to_ratfunc(), lp, d_max)
            if w is not None:
                return w
    return None


#: Largest pair ring listed, as a bound on its size: the sum of its orders m.
_PAIR_RING_CEILING = 1024


@lru_cache(maxsize=32)
def _pair_ring(
    p: int, g: int, big_n: int, order: int, c_orders: tuple[int, ...]
) -> frozenset[int] | None:
    """0 and the images in the field (p, g, N) of the roots of unity of
    order dividing m = lcm(order, k) for some k in c_orders, or None
    when those m add up past ``_PAIR_RING_CEILING``.

    With order = lcm(2, L) for the conductors L of h, a and b, and
    c_orders the conductors of the c values, this holds the image of
    every root of unity the exact test of a triple (a, b, c) admits.
    The default grid's rings for h over Q or one small field stay below
    the ceiling.  Conductors of h, a, b and c whose lcm is large (near 30
    each on a larger grid) would list 10^4 to 10^5 roots per ring, so
    those triples go to the exact test one at a time instead.
    """
    orders = {math.lcm(order, k) for k in c_orders}
    if sum(orders) > _PAIR_RING_CEILING:
        return None
    ring = {0}
    for m in orders:
        w = pow(g, big_n // m, p)
        x = 1
        for _ in range(m):
            ring.add(x)
            x = x * w % p
    return frozenset(ring)


def _quadratic_laurent(poly: Poly, a: CycNum, b: CycNum, c: CycNum) -> LaurentPoly:
    """poly(a x + b + c/x) from the Taylor coefficients p_k(b) of poly at b.

    The x^m coefficient is the sum over k = m (mod 2) of p_k(b)
    C(k, (k+m)/2) a^((k+m)/2) c^((k-m)/2), which is a^m S_m for m >= 0
    and c^(-m) S_(-m) for m < 0, with S_r = sum over j of
    C(r + 2j, j) (a c)^j p_(r+2j)(b).  The p_k(b) are poly's kept shift.
    """
    t = poly.taylor_shift(b).coeffs
    d = len(t) - 1
    w = _powers(a * c, d // 2)
    sums = []
    for r in range(d + 1):
        s = CycNum.zero
        for j in range((d - r) // 2 + 1):
            k = r + 2 * j
            if t[k] and w[j]:
                s = s + t[k] * w[j] * math.comb(k, j)
        sums.append(s)
    ap, cp = _powers(a, d), _powers(c, d)
    return LaurentPoly._of(
        -d,
        Poly([cp[r] * sums[r] for r in range(d, 0, -1)] + [ap[r] * sums[r] for r in range(d + 1)]),
    )


class _ModularScreen:
    """The coefficients of h(a x + b + c/x) reduced into F_p.

    p = 1 (mod N) is prime and g has exact order N mod p, where N is a
    multiple of lcm(2, conductors of h and of the grid), so zeta_N -> g
    is a ring map into F_p (``residue_mod_p``).  A coefficient in
    Q(zeta_L) that vanishes or is a root of unity maps to 0 or to v with
    v^lcm(2, L) = 1, and a nonzero image means a nonzero coefficient, so
    the screen never rejects a witness.  A coefficient that is neither
    passes with probability about lcm(2, L)/p, p > 2^24, and each
    survivor is verified exactly.  ``images`` holds the images of 0 and
    of the grid values, shared by every screen in the same field.
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
        self.coeffs = [self.image(c) for c in poly.coeffs]
        self.images = _grid_images(grid, p, g, big_n)
        self.binom = [[math.comb(k, i) % p for i in range(k + 1)] for k in range(d + 1)]
        self._taylor: dict[int, list[int]] = {}

    def image(self, v: CycNum) -> int:
        return residue_mod_p(v, self.p, self.g, self.big_n)

    def powers(self, x: int) -> list[int]:
        """x^0, ..., x^d for the image x of a value v: the images of its powers."""
        out = [1]
        for _ in range(self.d):
            out.append(out[-1] * x % self.p)
        return out

    def taylor(self, x: int) -> list[int]:
        """Images of the Taylor coefficients p_0(b), ..., p_d(b) of h at b, x the image of b."""
        t = self._taylor.get(x)
        if t is None:
            t, p, d = list(self.coeffs), self.p, self.d
            for i in range(d):
                for j in range(d - 1, i - 1, -1):
                    t[j] = (t[j] + x * t[j + 1]) % p
            self._taylor[x] = t
        return t

    def may_be_root(self, v: int, n: int) -> bool:
        """False only if a value of conductor dividing lcm(n, conductors
        of h) with image v is neither 0 nor a root of unity."""
        return not v or pow(v, math.lcm(self.order, n), self.p) == 1

    def keeps(self, ap, t, cp, order: int, d_max: int) -> bool:
        """False only if h(a x + b + c/x) is no witness within d_max terms.

        ap and cp are the ``powers`` of a and c, t is ``taylor`` at b and
        order is lcm(2, L), L the conductor of h, a, b and c.  The images
        of the x^d and x^(d-1) coefficients were screened already; the
        walk starts at x^(d-2), which the search tests first per pair
        (a, c), and stops at the first image that is neither 0 nor of
        order dividing lcm(2, L), or once more than d_max are nonzero.
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


def iterate_term_lower_bound(d: int, n: int) -> int:
    """Minimum terms of h^n o q, h non-special: ceil(log_5(d^(n-2)/2016)).

    The least integer L with 2016 * 5^L >= d^(n-2), decided in integers;
    for L < 0 the test reads 2016 >= d^(n-2) * 5^(-L).
    """
    if d < 3:
        raise DomainError("degree must be >= 3")
    if n < 3:
        raise DomainError("iteration count must be >= 3")
    power = d ** (n - 2)
    terms = -4  # L = -5 fails: 2016 < 5^5 <= power * 5^5
    while 2016 * 5 ** max(terms, 0) < power * 5 ** max(-terms, 0):
        terms += 1
    return terms


class FZReport(Record):
    """All intermediates of one degree-cap consistency check."""

    __slots__ = ("degree_h", "composition_terms", "rational_cap", "laurent_cap",
                 "q_binomial_shaped", "q_trinomial_shaped", "rational_branch_checked",
                 "rational_bound_holds", "laurent_branch_checked", "laurent_bound_holds",
                 "violations")

    def __init__(
        self,
        degree_h: int,
        composition_terms: int,
        rational_cap: int,
        laurent_cap: int,
        q_binomial_shaped: bool,
        q_trinomial_shaped: bool | None,
        rational_branch_checked: bool,
        rational_bound_holds: bool | None,
        laurent_branch_checked: bool,
        laurent_bound_holds: bool | None,
        violations: tuple[str, ...] = (),
    ):
        fill(self, degree_h, composition_terms, rational_cap, laurent_cap, q_binomial_shaped,
             q_trinomial_shaped, rational_branch_checked, rational_bound_holds,
             laurent_branch_checked, laurent_bound_holds, violations)

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


class SpecialTermsReport(Record):
    __slots__ = ("degree_h", "iterations", "composition_terms", "lower_bound", "bound_holds")

    def __init__(
        self,
        degree_h: int,
        iterations: int,
        composition_terms: int,
        lower_bound: int,
        bound_holds: bool,
    ):
        fill(self, degree_h, iterations, composition_terms, lower_bound, bound_holds)

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
    from .special import STATUS_SPECIAL, STATUS_UNKNOWN, is_special

    verdict = is_special(h)
    if verdict.status == STATUS_SPECIAL:
        raise DomainError("h is special; the bound does not apply")
    if verdict.status == STATUS_UNKNOWN:
        raise DomainError("specialness of h is undecided at this degree")
    iterated = iterate(h, n)
    p = compose(iterated, q)
    terms = term_count(p)
    lower_bound = iterate_term_lower_bound(d, n)
    return SpecialTermsReport(
        degree_h=d,
        iterations=n,
        composition_terms=terms,
        lower_bound=lower_bound,
        bound_holds=terms >= lower_bound,
    )

"""Orbit machinery: monic normalization, escape radii, orbit tracking,
root-of-unity scans and the composite avoidance verdict.

A rational function h = p/q with deg p > deg q + 1 factors as
h(x) = c^-1 * ht(c x) where ht has monic numerator and denominator; the
scaling constant c solves c^(deg p - deg q - 1) = lead(p)/lead(q).
With D clearing the denominators of c^-1 and the scaled coefficients,
the orbit lemma holds: whenever the n-th orbit value is integral (resp.
has house at most A), every earlier D-scaled value is integral (resp.
has house bounded in terms of a constant depending only on h).

The house bullet is checked against a computed, verified escape radius
R for the monic model: |ht(z)| >= |z| for every |z| >= R, at every
complex embedding, certified through a triangle-inequality bound on
exact house enclosures of the coefficients.  Once an orbit value
crosses R at some embedding it can never return, so the reported bound
max(house(c^-1) * max(R, house(c) * A), A) is sound: a violation before
the endpoint would propagate to the endpoint and contradict its house
premise, after pulling the whole orbit back through the scaling.
"""

from __future__ import annotations

import math
import weakref
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .cyclotomic import (
    MEMBER,
    NONMEMBER,
    UNDECIDED,
    CycNum,
    HouseResult,
    LoxtonProfile,
    RootOfUnity,
    compare_house,
    conjugate,
    house,
    in_PA,
    is_algebraic_integer,
    quotient_outside_PA,
)
from .errors import DomainError, ResourceLimitError, printable
from .ratfunc import (
    POWER_BITS_CEILING,
    Poly,
    RatFunc,
    coefficient_conductor,
    degree,
    distinct_pole_count,
    evaluate,
    root_vectors,
    size_bits,
)
from .record import Record, fill

if TYPE_CHECKING:  # loaded at run time by avoidance_verdict alone
    from .witness import SearchGrid, Witness


class MonicNormalization(Record):
    """Scaling data (c, ht, D, R) with h(x) = c^-1 * ht(c x) exactly."""

    __slots__ = ("c", "h_tilde", "D", "R")

    def __init__(self, c: CycNum, h_tilde: RatFunc, D: int, R: Fraction):
        fill(self, c, h_tilde, D, R)

    def to_dict(self) -> dict:
        from .formatting import format_value

        return {
            "c": format_value(self.c),
            "h_tilde": format_value(self.h_tilde),
            "D": printable(self.D),
            "R": str(printable(self.R)),
        }


def monic_normalize(h: RatFunc) -> MonicNormalization:
    """Monic model of h = p/q, requiring deg p > deg q + 1: the model
    (c, h~, D) of ``_monic_model`` and the verified escape radius."""
    c, h_tilde, big_d = _monic_model(h)
    return MonicNormalization(c=c, h_tilde=h_tilde, D=big_d, R=_verified_escape_radius(h_tilde))


def _monic_model(h: RatFunc) -> tuple[CycNum, RatFunc, int]:
    """(c, h~, D) for h = p/q with deg p > deg q + 1.

    Solves c^(d-e-1) = lead(p) in the closed form of
    ``special.nth_root_in_cyclotomic`` (a rational, or for an even root
    the square root of one, times a root of unity); h~ is the monic
    model and D the minimal integer making D*c^-1 times {1} and every
    model coefficient integral.  No house is computed.
    """
    p, q = h.num, h.den
    d, e = p.deg, q.deg
    if d <= e + 1:
        raise DomainError("monic normalization requires deg num > deg den + 1")
    r = d - e - 1
    c = p[d]  # denominator is monic, so the ratio of leads is lead(p)
    if r > 1:  # c = lead(p) itself for r = 1, without loading special
        from .special import nth_root_in_cyclotomic

        c, _ = nth_root_in_cyclotomic(c, r)
        if c is None:
            raise DomainError(f"unsupported scaling: c^{r} = lead(p) has no closed-form solution")
    c_inv = c.inverse()
    # ht = pt/qt with pt(y) = c^(e+1) p(y/c), qt(y) = c^e q(y/c)
    pt = Poly([p[i] * (c ** (e + 1 - i) if i <= e + 1 else c_inv ** (i - e - 1))
               for i in range(d + 1)])
    qt = Poly([q[j] * c ** (e - j) for j in range(e + 1)])
    if pt.leading() != CycNum.one or qt.leading() != CycNum.one:
        raise AssertionError("normalization failed to produce monic model")
    return c, RatFunc(pt, qt), _minimal_clearing_integer(c_inv, pt, qt)


def _minimal_clearing_integer(c_inv: CycNum, pt: Poly, qt: Poly) -> int:
    """Least D >= 1 with D*c^-1*v integral for v in {1} and all coefficients."""
    big_d = 1
    values = [c_inv]
    for poly in (pt, qt):
        for coeff in poly.coeffs:
            if coeff:
                values.append(c_inv * coeff)
    for v in values:
        big_d = math.lcm(big_d, v.den)
    return big_d


def _verified_escape_radius(h_tilde: RatFunc) -> Fraction:
    """Radius R with |ht(z)| >= |z| verified for all |z| >= R, all embeddings.

    R is 1 + 2M rounded up to a multiple of 1/64, M the largest of 1 and
    the rigorous house upper bounds H_i, G_j of the non-leading
    coefficients; house bounds dominate every complex embedding at once.
    A triangle-inequality criterion certifies the inequality on the
    whole exterior region:

        K1 := 1 - sum H_i / R^(d-i)  > 0   (numerator lower bound)
        K2 := 1 + sum G_j / R^(e-j)        (denominator upper bound)
        R^(d-e-1) * K1 >= K2

    and this R always meets it.  As R >= 1 + 2M >= 3, the sums are
    geometric series: K1 >= 1 - M/(R - 1) >= 1/2 and K2 <= 1 +
    M/(R - 1) <= 3/2, so R^(d-e-1) K1 >= 3 * 1/2 >= K2.  The criterion
    is still checked exactly, and a failure raises AssertionError.
    """
    pt, qt = h_tilde.num, h_tilde.den
    d, e = pt.deg, qt.deg
    if d <= e + 1:
        raise DomainError("escape radius requires the degree gap")
    h_upper: dict[int, Fraction] = {}
    for i in range(d):
        if pt[i]:
            h_upper[i] = house(pt[i]).upper
    g_upper: dict[int, Fraction] = {}
    for j in range(e):
        if qt[j]:
            g_upper[j] = house(qt[j]).upper
    coeff_max = max([Fraction(1)] + list(h_upper.values()) + list(g_upper.values()))
    raw = 1 + 2 * coeff_max
    # Rounding up to a coarse dyadic spares later orbit arithmetic from
    # house-enclosure-sized denominators; the proof above holds for any
    # R >= 1 + 2M.
    radius = Fraction(-((-raw.numerator * 64) // raw.denominator), 64)
    k1 = Fraction(1) - sum(
        (u / radius ** (d - i) for i, u in h_upper.items()), Fraction(0)
    )
    k2 = Fraction(1) + sum(
        (u / radius ** (e - j) for j, u in g_upper.items()), Fraction(0)
    )
    if not (k1 > 0 and radius ** (d - e - 1) * k1 >= k2):
        raise AssertionError(f"escape radius {radius} failed its criterion")
    return radius


class OrbitRecord(Record):
    """Forward orbit with house enclosures, integrality flags and hits."""

    __slots__ = ("points", "houses", "integral_after_D", "hit_indices", "undecided_indices",
                 "truncated_at", "D")

    def __init__(
        self,
        points: tuple[CycNum, ...],
        houses: tuple[HouseResult, ...],
        integral_after_D: tuple[bool, ...] | None,
        hit_indices: tuple[int, ...],
        undecided_indices: tuple[int, ...],
        truncated_at: int | None,
        D: int | None,
    ):
        fill(self, points, houses, integral_after_D, hit_indices, undecided_indices,
             truncated_at, D)

    def to_dict(self) -> dict:
        from .formatting import format_value

        return {
            "points": [format_value(p) for p in self.points],
            "houses": [hr.to_dict() for hr in self.houses],
            "integral_after_D": (
                list(self.integral_after_D)
                if self.integral_after_D is not None
                else None
            ),
            "hit_indices": list(self.hit_indices),
            "undecided_indices": list(self.undecided_indices),
            "truncated_at": self.truncated_at,
            "D": None if self.D is None else printable(self.D),
        }


def _orbit_points(h: RatFunc, a: CycNum, n_steps: int) -> list[CycNum]:
    """a, h(a), ..., h^n_steps(a), cut short before a pole; ResourceLimitError
    at the first point of more than ``POWER_BITS_CEILING`` ``size_bits``."""
    points = [a]
    for _ in range(n_steps):
        nxt = evaluate(h, points[-1])
        if nxt is None:
            break
        if size_bits(nxt) > POWER_BITS_CEILING:
            raise ResourceLimitError(f"orbit point {len(points)} exceeds {POWER_BITS_CEILING} bits")
        points.append(nxt)
    return points


def orbit(h: RatFunc, a: CycNum, n_steps: int, A) -> OrbitRecord:
    """Track a, h(a), ..., h^N(a) with houses, D-integrality and P_A hits.

    D-integrality flags are present only when the degree gap holds and
    the scaling is supported; the orbit truncates cleanly at poles.
    """
    if n_steps < 0:
        raise DomainError("orbit length must be nonnegative")
    A = Fraction(A)
    try:
        big_d: int | None = _monic_model(h)[2]
    except DomainError:
        big_d = None
    points = _orbit_points(h, a, n_steps)
    truncated_at = len(points) - 1 if len(points) <= n_steps else None
    houses = tuple(house(p) for p in points)
    integral_flags = (
        tuple(is_algebraic_integer(CycNum.from_rational(big_d) * p) for p in points)
        if big_d is not None
        else None
    )
    hits = []
    undecided = []
    for j, p in enumerate(points):
        verdict = in_PA(p, A)
        if verdict == MEMBER:
            hits.append(j)
        elif verdict == UNDECIDED:
            undecided.append(j)
    return OrbitRecord(
        points=tuple(points),
        houses=houses,
        integral_after_D=integral_flags,
        hit_indices=tuple(hits),
        undecided_indices=tuple(undecided),
        truncated_at=truncated_at,
        D=big_d,
    )


class OrbitLemmaReport(Record):
    """Outcome of checking both orbit-lemma bullets on one (h, a, n, A).

    substitute_bound documents the verified stand-in for the lemma's
    external constant: max(house(c^-1) * max(R, house(c)*A), A).  A
    house check's ``within_bound`` is True or False once its enclosure
    lies on one side of the bound (False is also a counterexample), and
    None while the enclosure straddles it.
    """

    __slots__ = ("n", "A", "truncated", "premise_house_holds", "house_bound", "house_checks",
                 "premise_integral_holds", "integral_checks", "counterexamples", "D",
                 "substitute_bound_formula")

    def __init__(
        self,
        n: int,
        A: Fraction,
        truncated: bool,
        premise_house_holds: bool | None,
        house_bound: Fraction | None,
        house_checks: tuple[dict, ...],
        premise_integral_holds: bool | None,
        integral_checks: tuple[bool, ...],
        counterexamples: tuple[dict, ...],
        D: int,
        substitute_bound_formula: str = "max(house(c^-1)*max(R, house(c)*A), A)",
    ):
        fill(self, n, A, truncated, premise_house_holds, house_bound, house_checks,
             premise_integral_holds, integral_checks, counterexamples, D,
             substitute_bound_formula)

    def ok(self) -> bool:
        """No counterexample, and nothing undecided: every house check and,
        unless the orbit was truncated, the house premise."""
        decided = [e["within_bound"] for e in self.house_checks]
        if not self.truncated:
            decided.append(self.premise_house_holds)
        return not self.counterexamples and None not in decided

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "A": str(self.A),
            "truncated": self.truncated,
            "premise_house_holds": self.premise_house_holds,
            "house_bound": str(self.house_bound) if self.house_bound is not None else None,
            "house_checks": list(self.house_checks),
            "premise_integral_holds": self.premise_integral_holds,
            "integral_checks": list(self.integral_checks),
            "counterexamples": list(self.counterexamples),
            "D": self.D,
            "substitute_bound_formula": self.substitute_bound_formula,
        }


def verify_orbit_lemma(h: RatFunc, a: CycNum, n: int, A) -> OrbitLemmaReport:
    """Check both orbit-lemma bullets; emit counterexample candidates.

    Each bullet is asserted only when its premise on the n-th orbit
    value holds; a violated conclusion is reported with full data (it
    would indicate an implementation bug, not new mathematics).  An
    undecided house premise (None) skips the house bullet, and the
    report's ``ok()`` is then False.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    A = Fraction(A)
    norm = monic_normalize(h)
    points = _orbit_points(h, a, n)
    if len(points) <= n:
        return OrbitLemmaReport(
            n=n,
            A=A,
            truncated=True,
            premise_house_holds=None,
            house_bound=None,
            house_checks=(),
            premise_integral_holds=None,
            integral_checks=(),
            counterexamples=(),
            D=norm.D,
        )

    hc_upper = house(norm.c).upper
    hcinv_upper = house(norm.c.inverse()).upper
    bound = max(hcinv_upper * max(norm.R, hc_upper * A), A)

    premise_house = compare_house(points[n], A)

    counterexamples = []
    house_checks = []
    if premise_house:
        for j in range(n):
            hr = house(points[j])
            within = True if hr.upper <= bound else False if hr.lower > bound else None
            house_checks.append({
                "j": j,
                "house_upper": str(hr.upper),
                "bound": str(bound),
                "within_bound": within,
            })
            if within is False:
                counterexamples.append(
                    {
                        "bullet": "house",
                        "j": j,
                        "house_lower": str(hr.lower),
                        "bound": str(bound),
                    }
                )

    premise_integral = is_algebraic_integer(points[n])
    integral_checks = []
    if premise_integral:
        d_scale = CycNum.from_rational(norm.D)
        for j in range(n):
            ok = is_algebraic_integer(d_scale * points[j])
            integral_checks.append(ok)
            if not ok:
                counterexamples.append(
                    {"bullet": "integrality", "j": j, "D": norm.D}
                )

    return OrbitLemmaReport(
        n=n,
        A=A,
        truncated=False,
        premise_house_holds=premise_house,
        house_bound=bound,
        house_checks=tuple(house_checks),
        premise_integral_holds=premise_integral,
        integral_checks=tuple(integral_checks),
        counterexamples=tuple(counterexamples),
        D=norm.D,
    )


class ScanHit(Record):
    __slots__ = ("root", "value", "house")

    def __init__(self, root: RootOfUnity, value: CycNum, house: HouseResult):
        _set_hit_root(self, root)
        _set_hit_value(self, value)
        _set_hit_house(self, house)

    def to_dict(self) -> dict:
        from .formatting import format_value

        return {
            "order": self.root.order,
            "exponent": self.root.exponent,
            "value": format_value(self.value),
            "house": self.house.to_dict(),
        }


_set_hit_root, _set_hit_value, _set_hit_house = ScanHit._setters


class ScanResult(Record):
    __slots__ = ("hits", "undecided", "poles_skipped", "__weakref__")

    def __init__(
        self,
        hits: tuple[ScanHit, ...],
        undecided: tuple[ScanHit, ...],
        poles_skipped: tuple[RootOfUnity, ...],
    ):
        fill(self, hits, undecided, poles_skipped)

    def to_dict(self) -> dict:
        return {
            "hits": [h.to_dict() for h in self.hits],
            "undecided": [h.to_dict() for h in self.undecided],
            "poles_skipped": [r.to_dict() for r in self.poles_skipped],
        }


# Equal scan results share one object while any copy of it is alive, so
# a caller that keeps the results of repeated scans holds each one once;
# entries go away with the last reference to their result.
_SCAN_RESULTS: weakref.WeakValueDictionary[tuple, ScanResult] = weakref.WeakValueDictionary()


# c * order_cap bounds every conductor N = lcm(c, m) that a scan reaches,
# and so the root tables, exponent vectors and orbit plans it builds.
SCAN_CONDUCTOR_CEILING = 1 << 11


@lru_cache(maxsize=128)
def _orbit_plan(order: int, c: int) -> tuple[tuple[int, int, int], ...]:
    """The Galois orbits of the primitive order-th roots of unity under
    the sigma_t that fix Q(zeta_c).

    There is one row (k, rep, t) per exponent k coprime to order, in
    ascending k: rep is the smallest exponent of k's orbit and t the
    lift with t = 1 (mod c) and k = rep * t (mod order), so sigma_t fixes
    every coefficient over Q(zeta_c) and sends zeta_order^rep to
    zeta_order^k.  Those t are the u + order * s that are 1 mod c for
    the units u = 1 (mod gcd(order, c)); t = 1 exactly at k = rep.
    """
    g = math.gcd(order, c)
    inv = pow(order // g, -1, c // g)
    lifts = [
        (u, u + order * ((1 - u) // g * inv % (c // g)))
        for u in range(1, order + 1)
        if math.gcd(u, order) == 1 and (u - 1) % g == 0
    ]
    orbit_of: dict[int, tuple[int, int]] = {}
    for k in range(order):
        if math.gcd(k, order) == 1 and k not in orbit_of:
            for u, t in lifts:
                orbit_of[k * u % order] = (k, t)
    return tuple((k, rep, t) for k, (rep, t) in sorted(orbit_of.items()))


def scan_roots_of_unity(h: RatFunc, order_cap: int, A) -> ScanResult:
    """All roots of unity of order <= cap whose image lands in P_A.

    Hits are exact where decidable; enclosure-straddling cases are
    listed separately as undecided.  Ordered by (order, exponent).

    h is evaluated once per Galois orbit.  With c the conductor of the
    coefficients of h, sigma_t for t = u (mod m), t = 1 (mod c) fixes h
    and sends zeta_m^k to zeta_m^(k*u), so h(zeta_m^(k*u)) =
    sigma_t(h(zeta_m^k)).  Poles, integrality, torsion and the house are
    Galois-invariant, so the pole status, the P_A verdict and the house
    enclosure of the smallest exponent of an orbit hold for the whole
    orbit: each is decided once, there.  The orbits, their smallest
    exponents and the lifts t of each order come from a plan cached per
    (order, c) (``_orbit_plan``), in exponent order.

    A value whose house is above A is outside P_A, and so is a nonzero
    value whose norm is no integer.  So the sparse exponent vectors of
    num and den at the orbit's root (``root_vectors``, one
    exponent-shifted sum each) are first bounded conjugate by conjugate
    from the 64-bit root table (``quotient_outside_PA``, at every order),
    which stops at the first conjugate that proves the house above A.  An orbit is a
    nonmember without an exact value when the bounds prove den nonzero
    and either |num| > A * |den| at one conjugate or a norm range that
    holds no integer >= 1.  Any other orbit is valued from the same
    vectors by ``evaluate`` (one dense row and one reduction each, no
    Horner pass; a rational map adds one inverse and one product) and
    decided by ``in_PA``.

    Raises ResourceLimitError, before any root, when c * order_cap, a
    bound on every conductor lcm(c, m) the scan reaches, exceeds
    ``SCAN_CONDUCTOR_CEILING``.
    """
    if order_cap < 1:
        raise DomainError("order cap must be >= 1")
    A = Fraction(A)
    if A < 1:
        raise DomainError("A must be at least 1")
    c = coefficient_conductor(h)
    if c * order_cap > SCAN_CONDUCTOR_CEILING:
        raise ResourceLimitError(
            f"scan ceiling exceeded: coefficient conductor {c} times order cap "
            f"{order_cap} is above {SCAN_CONDUCTOR_CEILING}"
        )
    hits = []
    undecided = []
    poles = []
    for order in range(1, order_cap + 1):
        rows = _orbit_plan(order, c)
        # representative -> (verdict or None at a pole, value, house); the
        # representative is the smallest exponent, so its row comes first
        found: dict[int, tuple] = {}
        for k, rep, t in rows:
            if k == rep:
                root = RootOfUnity(order, k)
                vectors = root_vectors(h, root, c)
                value = hr = None
                if quotient_outside_PA(*vectors, A):
                    verdict = NONMEMBER
                else:
                    value = evaluate(h, root, vectors)
                    verdict = None if value is None else in_PA(value, A)
                    if verdict not in (None, NONMEMBER):
                        hr = house(value)
                found[k] = (verdict, value, hr)
            verdict, value, hr = found[rep]
            if verdict is None:
                poles.append(RootOfUnity(order, k))
            elif verdict != NONMEMBER:
                hit = ScanHit(RootOfUnity(order, k), conjugate(value, t), hr)
                (hits if verdict == MEMBER else undecided).append(hit)
    result = ScanResult(tuple(hits), tuple(undecided), tuple(poles))
    return _SCAN_RESULTS.setdefault((result.hits, result.undecided, result.poles_skipped), result)


CERTIFIED_AVOIDING = "certified_avoiding"
WITNESS_FOUND = "witness_found"
UNKNOWN = "unknown"


class AvoidanceVerdict(Record):
    __slots__ = ("kind", "reason", "witness", "diagnostics")

    def __init__(
        self,
        kind: str,
        reason: str | None = None,
        witness: Witness | None = None,
        diagnostics: dict | None = None,
    ):
        fill(self, kind, reason, witness, {} if diagnostics is None else diagnostics)

    def to_dict(self) -> dict:
        out = {"verdict": self.kind}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        if self.diagnostics:
            out["diagnostics"] = self.diagnostics
        return out


def avoidance_verdict(
    h: RatFunc,
    A,
    profile: LoxtonProfile,
    grid: SearchGrid | None = None,
) -> AvoidanceVerdict:
    """Decision cascade: pole certificate, witness search, degree filter.

    More than two poles certifies avoidance outright.  Otherwise a
    bounded witness search runs within the profile budget; a verified
    witness is definitive non-avoidance evidence.  When the degree
    clears the applicable threshold (2016*5^(budget+1), or
    (2*budget+1)^2 for polynomials) a failed search is additionally
    shape-complete: any witness would have needed deg S <= 2, which the
    search family covers up to its grid.
    """
    from .witness import SearchGrid, witness_search_deg2

    if h.is_constant():
        raise DomainError("avoidance verdict requires a nonconstant function")
    A = Fraction(A)
    grid = grid or SearchGrid()
    poles = distinct_pole_count(h)
    if poles > 2:
        return AvoidanceVerdict(
            kind=CERTIFIED_AVOIDING,
            reason=f"pole_count={poles}",
            diagnostics={"pole_count": poles},
        )
    budget = profile.budget_value(A * profile.B)
    witness = witness_search_deg2(h, budget, grid) if budget >= 1 else None
    if witness is not None:
        return AvoidanceVerdict(
            kind=WITNESS_FOUND,
            witness=witness,
            diagnostics={"pole_count": poles, "budget": budget},
        )
    deg_h = degree(h)
    if h.is_poly():
        threshold = (2 * budget + 1) ** 2
        rule = "polynomial:(2*budget+1)^2"
    else:
        threshold = 2016 * 5 ** (budget + 1)
        rule = "rational:2016*5^(budget+1)"
    shape_complete = deg_h > threshold
    diagnostics = {
        "pole_count": poles,
        "degree": deg_h,
        "budget": budget,
        "threshold": threshold,
        "threshold_rule": rule,
        "search_shape_complete": shape_complete,
        "grid": {
            "rou_order_cap": grid.rou_order_cap,
            "rational_height_cap": grid.rational_height_cap,
        },
    }
    if shape_complete:
        diagnostics["note"] = (
            "degree exceeds the threshold, so any witness would need "
            "deg S <= 2; the bounded search covered that shape up to its grid"
        )
    return AvoidanceVerdict(kind=UNKNOWN, diagnostics=diagnostics)

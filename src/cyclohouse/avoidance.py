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
from dataclasses import dataclass, field
from fractions import Fraction

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
)
from .errors import DomainError, UndecidedError
from .ratfunc import (
    Poly,
    RatFunc,
    degree,
    distinct_pole_count,
    evaluate,
)
from .special import as_positive_rational_times_rou, exact_nth_root_fraction
from .witness import SearchGrid, Witness, witness_search_deg2

DEFAULT_HOUSE_BITS = 64


@dataclass(frozen=True)
class MonicNormalization:
    """Scaling data (c, ht, D, R) with h(x) = c^-1 * ht(c x) exactly."""

    c: CycNum
    h_tilde: RatFunc
    D: int
    R: Fraction

    def to_dict(self) -> dict:
        from .formatting import format_value

        return {
            "c": format_value(self.c),
            "h_tilde": format_value(self.h_tilde),
            "D": self.D,
            "R": str(self.R),
        }


def monic_normalize(h: RatFunc, accuracy_bits: int = DEFAULT_HOUSE_BITS) -> MonicNormalization:
    """Monic model of h = p/q, requiring deg p > deg q + 1.

    Solves c^(d-e-1) = lead(p) in the supported closed form (a positive
    rational with an exact rational root, times a root of unity);
    returns the monic model, the minimal integer D making D*c^-1 times
    {1} and every model coefficient integral, and the verified escape
    radius.
    """
    p, q = h.num, h.den
    d, e = p.deg, q.deg
    if d <= e + 1:
        raise DomainError("monic normalization requires deg num > deg den + 1")
    r = d - e - 1
    lead = p[d]  # denominator is monic, so the ratio of leads is lead(p)
    c = _solve_scaling(lead, r)
    c_inv = c.inverse()
    # ht = pt/qt with pt(y) = c^(e+1) p(y/c), qt(y) = c^e q(y/c)
    pt = Poly([p[i] * c ** (e + 1 - i) for i in range(d + 1)])
    qt = Poly([q[j] * c ** (e - j) for j in range(e + 1)])
    if pt.leading() != CycNum.one or qt.leading() != CycNum.one:
        raise AssertionError("normalization failed to produce monic model")
    h_tilde = RatFunc(pt, qt)
    big_d = _minimal_clearing_integer(c_inv, pt, qt)
    radius = _verified_escape_radius(h_tilde, accuracy_bits)
    return MonicNormalization(c=c, h_tilde=h_tilde, D=big_d, R=radius)


def _solve_scaling(lead: CycNum, r: int) -> CycNum:
    dec = as_positive_rational_times_rou(lead)
    if dec is None:
        raise DomainError("unsupported scaling: leading ratio is not a rational "
                          "multiple of a root of unity")
    s, rou = dec
    root = exact_nth_root_fraction(s, r)
    if root is None:
        raise DomainError(
            f"unsupported scaling: {s} has no rational {r}-th root"
        )
    return CycNum.from_rational(root) * CycNum.zeta(rou.order * r, rou.exponent)


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


def escape_radius(
    norm: MonicNormalization, accuracy_bits: int = DEFAULT_HOUSE_BITS
) -> Fraction:
    """Recompute and verify the escape radius of the monic model."""
    return _verified_escape_radius(norm.h_tilde, accuracy_bits)


def _verified_escape_radius(h_tilde: RatFunc, accuracy_bits: int) -> Fraction:
    """Radius R with |ht(z)| >= |z| verified for all |z| >= R, all embeddings.

    Starts from 1 + 2*max(1, max coefficient house) and doubles until a
    triangle-inequality criterion certifies the inequality on the whole
    exterior region:

        K1 := 1 - sum H_i / R^(d-i)  > 0   (numerator lower bound)
        K2 := 1 + sum G_j / R^(e-j)        (denominator upper bound)
        R^(d-e-1) * K1 >= K2

    with H_i, G_j rigorous house upper bounds of the non-leading
    coefficients; house bounds dominate every complex embedding at once.
    """
    pt, qt = h_tilde.num, h_tilde.den
    d, e = pt.deg, qt.deg
    if d <= e + 1:
        raise DomainError("escape radius requires the degree gap")
    h_upper: dict[int, Fraction] = {}
    for i in range(d):
        if pt[i]:
            h_upper[i] = house(pt[i], accuracy_bits).upper
    g_upper: dict[int, Fraction] = {}
    for j in range(e):
        if qt[j]:
            g_upper[j] = house(qt[j], accuracy_bits).upper
    coeff_max = max([Fraction(1)] + list(h_upper.values()) + list(g_upper.values()))
    raw = 1 + 2 * coeff_max
    # The verification inequality is monotone in R, so rounding the
    # candidate up to a coarse dyadic keeps it verified while sparing
    # later orbit arithmetic from house-enclosure-sized denominators.
    radius = Fraction(-((-raw.numerator * 64) // raw.denominator), 64)
    for _ in range(64):
        k1 = Fraction(1) - sum(
            (u / radius ** (d - i) for i, u in h_upper.items()), Fraction(0)
        )
        k2 = Fraction(1) + sum(
            (u / radius ** (e - j) for j, u in g_upper.items()), Fraction(0)
        )
        if k1 > 0 and radius ** (d - e - 1) * k1 >= k2:
            return radius
        radius *= 2
    raise UndecidedError("escape radius verification failed to converge")


@dataclass(frozen=True)
class OrbitRecord:
    """Forward orbit with house enclosures, integrality flags and hits."""

    points: tuple[CycNum, ...]
    houses: tuple[HouseResult, ...]
    integral_after_D: tuple[bool, ...] | None
    hit_indices: tuple[int, ...]
    undecided_indices: tuple[int, ...]
    truncated_at: int | None
    D: int | None

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
            "D": self.D,
        }


def _orbit_points(h: RatFunc, a: CycNum, n_steps: int) -> list[CycNum]:
    """a, h(a), ..., h^n_steps(a), cut short before a pole."""
    points = [a]
    for _ in range(n_steps):
        nxt = evaluate(h, points[-1])
        if nxt is None:
            break
        points.append(nxt)
    return points


def orbit(
    h: RatFunc,
    a: CycNum,
    n_steps: int,
    A,
    *,
    accuracy_bits: int = DEFAULT_HOUSE_BITS,
) -> OrbitRecord:
    """Track a, h(a), ..., h^N(a) with houses, D-integrality and P_A hits.

    D-integrality flags are present only when the degree gap holds and
    the scaling is supported; the orbit truncates cleanly at poles.
    """
    if n_steps < 0:
        raise DomainError("orbit length must be nonnegative")
    A = Fraction(A)
    try:
        norm = monic_normalize(h, accuracy_bits)
        big_d: int | None = norm.D
    except DomainError:
        big_d = None
    points = _orbit_points(h, a, n_steps)
    truncated_at = len(points) - 1 if len(points) <= n_steps else None
    houses = tuple(house(p, accuracy_bits) for p in points)
    integral_flags = (
        tuple(is_algebraic_integer(CycNum.from_rational(big_d) * p) for p in points)
        if big_d is not None
        else None
    )
    hits = []
    undecided = []
    for j, p in enumerate(points):
        verdict = in_PA(p, A, accuracy_bits)
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


@dataclass(frozen=True)
class OrbitLemmaReport:
    """Outcome of checking both orbit-lemma bullets on one (h, a, n, A).

    substitute_bound documents the verified stand-in for the lemma's
    external constant: max(house(c^-1) * max(R, house(c)*A), A).
    """

    n: int
    A: Fraction
    truncated: bool
    premise_house_holds: bool | None
    house_bound: Fraction | None
    house_checks: tuple[dict, ...]
    premise_integral_holds: bool | None
    integral_checks: tuple[bool, ...]
    counterexamples: tuple[dict, ...]
    D: int
    substitute_bound_formula: str = "max(house(c^-1)*max(R, house(c)*A), A)"

    def ok(self) -> bool:
        return not self.counterexamples

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


def verify_orbit_lemma(
    h: RatFunc,
    a: CycNum,
    n: int,
    A,
    *,
    accuracy_bits: int = DEFAULT_HOUSE_BITS,
) -> OrbitLemmaReport:
    """Check both orbit-lemma bullets; emit counterexample candidates.

    Each bullet is asserted only when its premise on the n-th orbit
    value holds; a violated conclusion is reported with full data (it
    would indicate an implementation bug, not new mathematics).
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    A = Fraction(A)
    norm = monic_normalize(h, accuracy_bits)
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

    hc_upper = house(norm.c, accuracy_bits).upper
    hcinv_upper = house(norm.c.inverse(), accuracy_bits).upper
    bound = max(hcinv_upper * max(norm.R, hc_upper * A), A)

    premise_house = compare_house(points[n], A, accuracy_bits)

    counterexamples = []
    house_checks = []
    if premise_house:
        for j in range(n):
            hr = house(points[j], accuracy_bits)
            entry = {
                "j": j,
                "house_upper": str(hr.upper),
                "bound": str(bound),
                "within_bound": bool(hr.upper <= bound),
            }
            house_checks.append(entry)
            if hr.lower > bound:
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


@dataclass(frozen=True, slots=True)
class ScanHit:
    root: RootOfUnity
    value: CycNum
    house: HouseResult

    def to_dict(self) -> dict:
        from .formatting import format_value

        return {
            "order": self.root.order,
            "exponent": self.root.exponent,
            "value": format_value(self.value),
            "house": self.house.to_dict(),
        }


@dataclass(frozen=True)
class ScanResult:
    hits: tuple[ScanHit, ...]
    undecided: tuple[ScanHit, ...]
    poles_skipped: tuple[RootOfUnity, ...]

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


def scan_roots_of_unity(
    h: RatFunc,
    order_cap: int,
    A,
    *,
    accuracy_bits: int = DEFAULT_HOUSE_BITS,
) -> ScanResult:
    """All roots of unity of order <= cap whose image lands in P_A.

    Hits are exact where decidable; enclosure-straddling cases are
    listed separately as undecided.  Ordered by (order, exponent).

    h is evaluated once per Galois orbit.  With c the conductor of the
    coefficients of h, sigma_t for t = u (mod m), t = 1 (mod c) fixes h
    and sends zeta_m^k to zeta_m^(k*u), so h(zeta_m^(k*u)) =
    sigma_t(h(zeta_m^k)).  Poles, integrality, torsion and the house are
    Galois-invariant, so the pole status and any decided P_A verdict of
    the smallest exponent of an orbit hold for the whole orbit; an
    undecided verdict is rerun on each conjugate.
    """
    if order_cap < 1:
        raise DomainError("order cap must be >= 1")
    A = Fraction(A)
    hits = []
    undecided = []
    poles = []
    enclosures: dict[HouseResult, HouseResult] = {}
    c = 1
    for poly in (h.num, h.den):
        for coeff in poly.coeffs:
            c = math.lcm(c, coeff.n)

    for order in range(1, order_cap + 1):
        primitive = [k for k in range(order) if math.gcd(k, order) == 1]
        g = math.gcd(order, c)
        inv = pow(order // g, -1, c // g)
        # the units u = 1 (mod g), each with its lift t = u (mod order),
        # t = 1 (mod c); t = 1 only for u = 1
        lifts = [
            (u, u + order * ((1 - u) // g * inv % (c // g)))
            for u in range(1, order + 1)
            if math.gcd(u, order) == 1 and (u - 1) % g == 0
        ]
        # exponent -> (value at the orbit representative, t, verdict); the
        # representative is the smallest exponent, so it is met first
        found: dict[int, tuple] = {}
        for k in primitive:
            if k not in found:
                value = evaluate(h, CycNum.zeta(order, k))
                verdict = None if value is None else in_PA(value, A, accuracy_bits)
                for u, t in lifts:
                    found[k * u % order] = (value, t, verdict)
            value, t, verdict = found[k]
            xi = RootOfUnity.make(order, k)
            if value is None:
                poles.append(xi)
                continue
            if verdict == NONMEMBER:
                continue
            value = conjugate(value, t)
            if verdict == UNDECIDED and t != 1:
                verdict = in_PA(value, A, accuracy_bits)
            # conjugates often get equal enclosures; the result keeps one copy
            hr = house(value, accuracy_bits)
            hr = enclosures.setdefault(hr, hr)
            if verdict == MEMBER:
                hits.append(ScanHit(xi, value, hr))
            elif verdict == UNDECIDED:
                undecided.append(ScanHit(xi, value, hr))
    result = ScanResult(tuple(hits), tuple(undecided), tuple(poles))
    return _SCAN_RESULTS.setdefault((result.hits, result.undecided, result.poles_skipped), result)


CERTIFIED_AVOIDING = "certified_avoiding"
WITNESS_FOUND = "witness_found"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class AvoidanceVerdict:
    kind: str
    reason: str | None = None
    witness: Witness | None = None
    diagnostics: dict = field(default_factory=dict)

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

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest

from cyclohouse import (
    CycNum,
    UndecidedError,
    conjugates,
    house,
    in_PA,
    is_root_of_unity,
)
from cyclohouse import cyclotomic as cyc
from cyclohouse.avoidance import scan_roots_of_unity
from cyclohouse.cyclotomic import compare_house, is_algebraic_integer
from cyclohouse.intervals import root_table
from cyclohouse.ratfunc import Poly, RatFunc

from . import house_reference
from .conftest import random_cycnum


def z(n, k=1):
    return CycNum.zeta(n, k)


# (1+sqrt(5))/2 bracketed by two 30-digit rationals
GOLDEN_LO = Fraction("1.61803398874989484820458683436")
GOLDEN_HI = Fraction("1.61803398874989484820458683437")


def test_root_of_unity_house_is_one():
    hr = house(z(7, 3))
    assert hr.lower <= 1 <= hr.upper
    assert hr.upper - hr.lower <= Fraction(1, 2**64)


def test_rational_house_exact():
    hr = house(CycNum.from_rational(-3))
    assert hr.lower == 3 == hr.upper


def test_golden_ratio_anchor():
    # [GOLDEN_LO, GOLDEN_HI] brackets (1+sqrt(5))/2 to 30 digits; the
    # rigorous enclosure must intersect it and be at least 1e-10 tight.
    hr = house(CycNum.from_rational(1) + z(5), 128)
    assert hr.lower <= GOLDEN_HI and GOLDEN_LO <= hr.upper
    assert hr.upper - hr.lower <= Fraction(1, 10**10)


def test_requested_accuracy_met():
    a = z(7) + z(5) * 3 - 1
    for bits in (16, 64, 128):
        hr = house(a, bits)
        assert hr.upper - hr.lower <= Fraction(1, 2**bits)


def test_precision_cap_raises(monkeypatch):
    monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", "256")
    a = CycNum.from_rational(1) + z(5)
    with pytest.raises(UndecidedError):
        house(a, 10**6)


def test_house_invariant_under_galois(rng):
    for _ in range(10):
        a = random_cycnum(rng, max_conductor=12, height=4)
        hr = house(a)
        for c in conjugates(a):
            hc = house(c)
            # same underlying number: enclosures must overlap
            assert hc.lower <= hr.upper and hr.lower <= hc.upper


def test_submultiplicative_and_subadditive(rng):
    for _ in range(12):
        a = random_cycnum(rng, max_conductor=8, height=4)
        b = random_cycnum(rng, max_conductor=8, height=4)
        hab = house(a * b)
        ha, hb = house(a), house(b)
        assert hab.lower <= ha.upper * hb.upper
        hsum = house(a + b)
        assert hsum.lower <= ha.upper + hb.upper


def test_kronecker_equivalence_small_corpus():
    thresh = 1 + Fraction(1, 2**30)
    corpus = []
    for m in (1, 2, 3, 4, 5, 7, 8):
        for k in range(m):
            corpus.append(z(m, k))
    for a in corpus:
        for b in corpus:
            v = a + b
            if not v:
                continue
            assert is_algebraic_integer(v)
            analytic = house(v, 64).upper <= thresh
            exact = is_root_of_unity(v) is not None
            assert analytic == exact, v


# -- enclosures kept on the element ---------------------------------------------


@pytest.fixture
def table_lookups(monkeypatch):
    """Counts root_table lookups by working precision: one per kernel run."""
    counts: dict[int, int] = {}
    real = cyc.root_table

    def counting(n, prec, slack):
        counts[prec] = counts.get(prec, 0) + 1
        return real(n, prec, slack)

    monkeypatch.setattr(cyc, "root_table", counting)
    return counts


def _sample():
    # an algebraic integer at conductor 420 of house about 4.47
    return z(420) + z(7, 3) * 2 - z(60, 7) + z(105) + 1


def test_kernel_runs_once_per_element_and_precision(table_lookups):
    a = _sample()
    first = [house(a, 64), house(a, 256), in_PA(a, 5)]
    once = dict(table_lookups)
    assert len(once) >= 2 and all(c == 1 for c in once.values())
    again = [house(a, 64), house(a, 256)]
    assert in_PA(a, 5) == "member" and in_PA(a, 4) == "nonmember"
    assert compare_house(a, 5) is True
    assert table_lookups == once
    assert again == first[:2]


def test_equal_element_computes_its_own_bounds(table_lookups):
    a = _sample()
    house(a, 64)
    b = CycNum(a.n, a.coords)
    assert b == a and b is not a
    before = sum(table_lookups.values())
    house(b, 64)
    assert sum(table_lookups.values()) == before + 1


def test_memo_gives_the_enclosures_of_a_fresh_element():
    for value in (_sample(), z(7) + z(5) * 3 - 1, z(60, 11) * 2 + z(9)):
        kept = CycNum(value.n, value.coords)
        # climb the ladder once on the kept element, in an unhelpful order
        for bits in (256, 64, 128, 64, 256):
            house(kept, bits)
        in_PA(kept, 5)
        for bits in (64, 128, 256):
            fresh = CycNum(value.n, value.coords)
            got, want = house(kept, bits), house(fresh, bits)
            assert (got.lower, got.upper, got.precision_bits) == (
                want.lower, want.upper, want.precision_bits)


def _orbit_key(order, k, c):
    """The least exponent of the Galois orbit of zeta_order^k over Q(zeta_c)."""
    g = math.gcd(order, c)
    units = [u for u in range(1, order + 1) if math.gcd(u, order) == 1 and (u - 1) % g == 0]
    return min(k * u % order for u in units)


@pytest.mark.parametrize(
    "h, c",
    [
        (RatFunc.from_poly(Poly([-2, 0, 1])), 1),  # x^2 - 2: one orbit per order
        (RatFunc.from_poly(Poly([z(4), 1, 1])), 4),  # x^2 + x + i: up to two
        # 1 + x + x^2 + x^3: members at orders 2-9, house above 3 near x = 1
        (RatFunc.from_poly(Poly([1, 1, 1, 1])), 1),
    ],
    ids=["over_Q", "over_Q_i", "over_Q_rejecting"],
)
def test_scan_computes_verdict_and_house_once_per_orbit(monkeypatch, h, c):
    from collections import Counter

    import cyclohouse.avoidance as avoidance_mod

    calls = {"in_PA": [], "house": []}
    # the root of each orbit as its vectors are built, and the root of each
    # decision: a proven house above A, or an in_PA verdict
    built, decided = [], []

    def counted(name, real):
        def wrapper(value, *args, **kwargs):
            calls[name].append(value)
            if name == "in_PA":
                decided.append(built[-1])
            return real(value, *args, **kwargs)

        return wrapper

    def building(f, a, *c):
        built.append(a)
        return real_vectors(f, a, *c)

    def testing(*args):
        rejected = real_test(*args)
        if rejected:
            decided.append(built[-1])
        return rejected

    real_vectors = avoidance_mod.root_vectors
    real_test = avoidance_mod.quotient_outside_PA
    monkeypatch.setattr(avoidance_mod, "in_PA", counted("in_PA", in_PA))
    monkeypatch.setattr(avoidance_mod, "house", counted("house", house))
    monkeypatch.setattr(avoidance_mod, "root_vectors", building)
    monkeypatch.setattr(avoidance_mod, "quotient_outside_PA", testing)
    result = scan_roots_of_unity(h, 25, 3)
    orbits = {
        (m, _orbit_key(m, k, c))
        for m in range(1, 26)
        for k in range(m)
        if math.gcd(k, m) == 1
    }
    assert len(built) == len(orbits)
    assert {(r.order, r.exponent) for r in built} == orbits
    # a polynomial: every value is finite, and each orbit is decided once
    assert Counter(decided) == Counter(built)
    assert len(calls["house"]) <= len(orbits)
    shared = {}
    for hit in result.hits + result.undecided:
        key = (hit.root.order, _orbit_key(hit.root.order, hit.root.exponent, c))
        assert shared.setdefault(key, hit.house) is hit.house
    assert len(shared) == len(calls["house"]) < len(result.hits)


# F_101/F_100 is about 2^-138 above the golden ratio, the house of 1 + z5
FIB_RATIO = Fraction(573147844013817084101, 354224848179261915075)


def test_compare_house_ladder(monkeypatch):
    golden = CycNum.from_rational(1) + z(5)  # house (1 + sqrt 5)/2
    assert compare_house(golden, Fraction(17, 10)) is True
    assert compare_house(golden, Fraction(3, 2)) is False
    # no rung up to 128 bits separates the house from FIB_RATIO
    monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", "128")
    assert compare_house(golden, FIB_RATIO) is None
    assert in_PA(golden, FIB_RATIO) == "undecided"
    monkeypatch.delenv("CYCLOHOUSE_PRECISION_CAP")
    assert compare_house(golden, FIB_RATIO) is True


def test_compare_house_decides_zero_and_torsion_exactly(monkeypatch):
    import cyclohouse.cyclotomic as cyc

    def refuse(*_a, **_k):
        raise AssertionError("house or isqrt called")

    for name in ("house", "isqrt_floor", "isqrt_ceil"):
        monkeypatch.setattr(cyc, name, refuse)
    assert compare_house(CycNum.zero, 3) is True
    assert compare_house(z(7, 3), 1) is True
    assert compare_house(-z(36, 5), Fraction(1)) is True
    assert compare_house(z(7) + 1, 1) is False
    assert in_PA(z(9, 2), 1) == "member"
    # the ladder alone separates, and the boundary is exact at a low cap
    golden = CycNum.from_rational(1) + z(5)
    assert compare_house(golden, Fraction(17, 10)) is True
    assert compare_house(golden, Fraction(3, 2)) is False
    monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", "64")
    assert compare_house(z(3) * 2, 2) is True


def test_negative_bound_is_never_met():
    for a in (CycNum.zero, z(3), CycNum.from_rational(-3), z(3) * 2):
        assert compare_house(a, -1) is False
        assert compare_house(a, Fraction(-3)) is False


def _house_mp(a: CycNum, prec: int = 1024):
    """Oracle: the house of a by mpmath at prec bits, from its coordinates."""
    with mpmath.workprec(prec):
        best = mpmath.mpf(0)
        for t in range(1, a.n + 1):
            if math.gcd(t, a.n) == 1:
                v = mpmath.fsum(
                    mpmath.mpf(c.numerator) / c.denominator
                    * mpmath.expjpi(mpmath.mpf(2 * t * j % (2 * a.n)) / a.n)
                    for j, c in enumerate(a.coords)
                )
                best = max(best, abs(v))
        return best


_BOUNDARY = [(z(3) * 2, 2), (z(4) * 4 + 3, 5), (z(3) * 8 + 5, 7)] + [
    ((z(4) * 4 + 3) * z(m), 5) for m in (3, 5, 8, 12)
]


@pytest.mark.parametrize("a, A", _BOUNDARY)
def test_boundary_is_decided_exactly(a, A, monkeypatch):
    assert abs(_house_mp(a) - A) < mpmath.mpf(2) ** -900
    for cap in ("64", "128", None):
        if cap is None:
            monkeypatch.delenv("CYCLOHOUSE_PRECISION_CAP")
        else:
            monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", cap)
        assert compare_house(a, A) is True
        assert in_PA(a, A) == "member"
    eps = Fraction(1, 2**200)
    assert compare_house(a, A + eps) is True
    assert compare_house(a, A - eps) is False


def test_cold_boundary_at_a_large_conductor():
    # compare_house climbs every rung to the 4096-bit cap before its exact
    # boundary test, so a cold boundary builds a root table at each rung
    a = (z(4) * 4 + 3) * z(2520)
    root_table.cache_clear()
    start = time.process_time()
    assert compare_house(a, 5) is True
    assert time.process_time() - start < 3.0


@pytest.mark.parametrize("a", [z(5) + 1, z(7) + z(7, 3) + 1])
def test_near_boundary_matches_mpmath(a):
    with mpmath.workprec(1024):
        h = _house_mp(a)
        centre = Fraction(int(mpmath.nint(h * mpmath.mpf(2) ** 400)), 2**400)
    for A in (centre - Fraction(1, 2**200), centre + Fraction(1, 2**200)):
        with mpmath.workprec(1024):
            truth = h <= mpmath.mpf(A.numerator) / A.denominator
        assert compare_house(a, A) is truth
        assert in_PA(a, A) == ("member" if truth else "nonmember")


# -- the screened ladder and the house memo ---------------------------------------

SCREEN_CONDUCTORS = (3, 4, 5, 7, 8, 12, 15, 20, 60, 420, 2520)


def _sweep_elements(rng, n):
    """Dense, sparse, den > 1, real and several-maxima elements at conductor n."""
    phi = cyc.euler_phi(n)
    sparse = sum((z(n, rng.randrange(n)) * rng.choice((1, -1, 2)) for _ in range(3)), z(n))
    fractional = CycNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(phi)])
    real = sparse + cyc.conjugate(sparse, -1)
    out = [sparse, fractional, real]
    if n <= 420:  # dense integers; at 2520 the fractional element is dense already
        out.append(CycNum(n, [rng.randint(-5, 5) for _ in range(phi)]))
    # b * zeta_m with b in Q(zeta_5) or Q(i): |sigma_t| depends on t mod 5 or 4
    # only, so the house is attained at several units t <= lcm / 2
    for base, m in ((1 + z(5) * 2, 7), (z(4) + 3, 15), (z(5) - z(5, 2) + 1, n)):
        out.append(base * z(m, rng.randrange(1, m)))
    return [a for a in out if not a.is_rational]


def _fresh(a):
    return CycNum(a.n, a.coords)


@pytest.fixture
def kernel_calls(monkeypatch):
    """(number of units evaluated, number of units t <= n/2) per kernel call."""
    calls = []
    real = cyc._square_bounds

    def recording(n, prec, nz, units):
        calls.append((len(units), len(cyc._units_half(n))))
        return real(n, prec, nz, units)

    monkeypatch.setattr(cyc, "_square_bounds", recording)
    return calls


def _assert_rungs_match_the_reference(a):
    memo = a._house
    for prec, bounds in memo.squares.items():
        assert bounds == house_reference.max_square_bounds(_fresh(a), prec), (a, prec)
    # the screen may come from the Zumbroich form, so its thr need not be the
    # power-basis loop's; what the screened rungs rely on is that thr bounds
    # every screened-out conjugate, whose reference lo is below its exact value
    prec0, survivors, thr = memo.screen
    pairs = house_reference.square_bounds_per_unit(_fresh(a), prec0)
    others = [lo for t, (lo, _) in pairs.items() if t not in survivors]
    assert (thr is None) == (not others), (a, memo.screen)
    assert all(lo <= thr for lo in others), (a, memo.screen)


def test_screened_rungs_equal_the_unscreened_loop(kernel_calls):
    rng = random.Random(20261018)
    screened = 0
    elements = []
    for n in SCREEN_CONDUCTORS:
        for a in _sweep_elements(rng, n):
            elements.append(a)
            kernel_calls.clear()
            hr = house(a, 64)
            assert hr.upper - hr.lower <= Fraction(1, 2**64)
            near = house(a, 256)
            gap = Fraction(1, 2**240)
            assert compare_house(a, near.upper + gap) is True
            assert compare_house(a, near.lower - gap) is False
            if is_algebraic_integer(a) and near.lower - gap >= 1:
                assert in_PA(a, near.upper + gap) == "member"
                assert in_PA(a, near.lower - gap) == "nonmember"
            screened += sum(done < total for done, total in kernel_calls)
            assert len(a._house.squares) >= 2
            _assert_rungs_match_the_reference(a)
    assert screened > 20
    # the highest rung first: its screen serves the lower rungs
    screened = 0
    for a in map(_fresh, elements):
        kernel_calls.clear()
        for bits in (256, 64, 128):
            house(a, bits)
        screened += sum(done < total for done, total in kernel_calls)
        _assert_rungs_match_the_reference(a)
    assert screened > 20


def test_near_tie_takes_the_full_loop(kernel_calls):
    # the conjugates of 2^320 + z7 differ in modulus by about 2^-320 of it, and
    # W = 2 * (2^320 + 1) counts the rational coordinate, whose table entry is
    # exact, so the test's slack exceeds that gap and the 320-bit rung cannot
    # rule out the screened-out conjugates
    a = z(7) + 2**320
    house(a, 64)
    assert kernel_calls == [(3, 3)]
    assert a._house.screen[1] == (1,)
    house(a, 256)
    assert kernel_calls == [(3, 3), (1, 3), (3, 3)]
    for prec, bounds in a._house.squares.items():
        assert bounds == house_reference.max_square_bounds(_fresh(a), prec)


def test_large_conductor_screen_comes_from_the_zumbroich_form(kernel_calls, monkeypatch):
    # the house pool's shape at 2520: three primitive roots, the first past
    # phi so that its power-basis form is dense; each root is at most 2
    # Zumbroich terms, the screen is read off them and the power basis is
    # evaluated on the survivors alone
    n, phi = 2520, cyc.euler_phi(2520)
    rng = random.Random(2520)
    units = [e for e in range(n) if math.gcd(e, n) == 1]
    sizes = []
    recording = cyc._square_bounds

    def sized(n, prec, nz, units):
        sizes.append(len(nz))
        return recording(n, prec, nz, units)

    monkeypatch.setattr(cyc, "_square_bounds", sized)
    for first in [e for e in units if phi <= e < phi + 64]:
        a = z(n, first) + z(n, rng.choice(units)) + z(n, rng.choice(units))
        sizes.clear()
        kernel_calls.clear()
        house(a, 64)
        nnz = len(a.num) - a.num.count(0)
        survivors = a._house.screen[1]
        assert sizes == [sizes[0], nnz] and sizes[0] <= 6, (a, sizes)
        assert kernel_calls == [(288, 288), (len(survivors), 288)], (a, kernel_calls)
        assert len(survivors) < 288
        _assert_rungs_match_the_reference(a)


def test_house_result_kept_on_the_element():
    a = _sample()
    assert house(a) is house(a)
    assert house(a, 256) is house(a, 256)
    assert house(a) is not house(a, 256)
    b = _fresh(a)
    assert house(b) == house(a) and house(b) is not house(a)


def test_kept_result_above_a_lowered_cap_is_not_returned(monkeypatch):
    a = z(7) * 2**80 + z(7, 2)  # house(a, 64) needs the 256-bit rung
    kept = house(a, 64)
    assert kept.precision_bits == 256
    monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", "128")
    with pytest.raises(UndecidedError, match="128-bit precision cap"):
        house(a, 64)
    monkeypatch.delenv("CYCLOHOUSE_PRECISION_CAP")
    assert house(a, 64) is kept

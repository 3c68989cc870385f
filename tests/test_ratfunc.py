import contextlib
import math
import signal
import sys
from fractions import Fraction

import pytest

from cyclohouse import (
    CycNum,
    DomainError,
    LaurentPoly,
    Mobius,
    Poly,
    RatFunc,
    ResourceLimitError,
    chebyshev,
    compose,
    degree,
    distinct_pole_count,
    evaluate,
    is_binomial_shape,
    is_trinomial_shape,
    iterate,
    mobius_conjugate,
    ratfunc_new,
    substitute_poly_laurent,
    term_count,
    to_laurent,
)

from .conftest import random_cycnum, random_poly, random_ratfunc


def z(n, k=1):
    return CycNum.zeta(n, k)


def P(*coeffs):
    return Poly(coeffs)


class TestConstruction:
    def test_common_factor_cancels(self):
        assert ratfunc_new(P(-1, 0, 1), P(-1, 1)) == RatFunc.from_poly(P(1, 1))

    def test_already_coprime(self):
        h = ratfunc_new(P(0, 0, 0, 2), P(1, 1))
        assert h.num == P(0, 0, 0, 2) and h.den == P(1, 1)

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            ratfunc_new(P(0, 1), P())

    def test_denominator_made_monic(self):
        h = ratfunc_new(P(0, 1), P(0, 0, 3))
        assert h.den.leading() == CycNum.one

    def test_gcd_reduction_idempotent(self, rng):
        for _ in range(10):
            num = random_poly(rng, 2)
            den = random_poly(rng, 2)
            g = random_poly(rng, 1)
            assert ratfunc_new(num * g, den * g) == ratfunc_new(num, den)


class TestDegree:
    def test_examples(self):
        assert degree(ratfunc_new(P(0, 0, 0, 2), P(1, 1))) == 3
        assert degree(ratfunc_new(P(1, 0, 1), P(0, -1, 0, 1))) == 3
        assert degree(RatFunc.const(5)) == 0

    def test_multiplicative_under_composition(self, rng):
        for _ in range(25):
            h1 = random_ratfunc(rng, 3, rng.randint(0, 2), max_conductor=8, height=3)
            h2 = random_ratfunc(rng, 2, rng.randint(0, 1), max_conductor=8, height=3)
            if degree(h1) == 0 or degree(h2) == 0:
                continue
            assert degree(compose(h1, h2)) == degree(h1) * degree(h2)


class TestComposeIterate:
    def test_power_composition(self):
        assert compose(
            RatFunc.from_poly(P(0, 0, 1)), RatFunc.from_poly(P(0, 0, 0, 1))
        ) == RatFunc.from_poly(P(0, 0, 0, 0, 0, 0, 1))

    def test_iterate_quadratic(self):
        assert iterate(RatFunc.from_poly(P(-2, 0, 1)), 2) == RatFunc.from_poly(
            P(2, 0, -4, 0, 1)
        )

    def test_iterate_zero_is_identity(self):
        assert iterate(RatFunc.from_poly(P(-2, 0, 1)), 0) == RatFunc.x()

    def test_iterate_resource_ceiling(self):
        h = RatFunc.from_poly(P(0, 0, 1))
        with pytest.raises(ResourceLimitError):
            iterate(h, 64)

    def test_evaluate_commutes_with_compose(self, rng):
        for _ in range(15):
            h1 = random_ratfunc(rng, 2, 1, max_conductor=8, height=3)
            h2 = random_ratfunc(rng, 2, 0, max_conductor=8, height=3)
            if degree(h2) == 0:
                continue
            a = random_cycnum(rng, max_conductor=8, height=3)
            inner = evaluate(h2, a)
            if inner is None:
                continue
            outer = evaluate(h1, inner)
            composed = evaluate(compose(h1, h2), a)
            if outer is None:
                continue
            assert composed == outer


class TestEvaluate:
    def test_sqrt2_root(self):
        s2 = z(8) + z(8, 7)
        assert evaluate(RatFunc.from_poly(P(-2, 0, 1)), s2) == CycNum.zero

    def test_pole_returns_none(self):
        assert evaluate(ratfunc_new(P(1), P(-1, 1)), CycNum.one) is None

    def test_monomial_at_root_of_unity(self):
        assert evaluate(RatFunc.from_poly(P(0, 0, 0, 1)), z(5)) == z(5, 3)


def _sweep_map(rng, fields, den):
    """Seeded numerator with coefficients in Q(zeta_n), n in fields, over den."""
    from cyclohouse.cyclotomic import euler_phi

    def coeff():
        n = rng.choice(fields)
        coords = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 6))) for _ in range(euler_phi(n))]
        return CycNum(n, coords)

    num = [coeff() if rng.random() < 0.7 else CycNum.zero for _ in range(rng.randint(1, 3))]
    return ratfunc_new(Poly(num + [coeff() or CycNum.one]), den)


# Coefficient fields, and a denominator that vanishes at roots of unity.
ROOT_SWEEP = [
    ((1,), P(1, 1)),  # x + 1
    ((3,), P(1, 1, 1)),  # x^2 + x + 1
    ((4,), P(1, 0, 1)),  # x^2 + 1
    ((5,), P(1, 1, 1, 1, 1)),  # Phi_5
    ((3, 4), P(-z(3), 1)),  # x - zeta_3, c = 12
]


@pytest.mark.parametrize("fields, den", ROOT_SWEEP)
def test_root_of_unity_sum_equals_horner(fields, den):
    """evaluate at RootOfUnity(m, k), one exponent-shifted sum, against
    Horner at CycNum.zeta(m, k) (None exactly where Horner's denominator
    is 0): every order up to 60, every k < m."""
    import random

    from cyclohouse import RootOfUnity

    rng = random.Random(f"root-sweep:{fields}")
    h = _sweep_map(rng, fields, den)
    while h.den.deg == 0:  # the numerator cancelled the denominator
        h = _sweep_map(rng, fields, den)
    poles = 0
    for m in range(1, 61):
        for k in range(m):
            got = evaluate(h, RootOfUnity(m, k))
            want = evaluate(h, z(m, k))
            if want is None:
                assert got is None, (h, m, k)
                poles += 1
            else:
                assert (got.n, got.num, got.den) == (want.n, want.num, want.den), (h, m, k)
    assert poles


class TestPoles:
    def test_three_simple_poles(self):
        assert distinct_pole_count(ratfunc_new(P(1), P(0, -1, 0, 1))) == 3

    def test_pole_at_infinity_counted(self):
        assert distinct_pole_count(ratfunc_new(P(0, 0, 0, 1), P(1, 1))) == 2

    def test_multiple_pole_counted_once(self):
        assert distinct_pole_count(ratfunc_new(P(1), P(1, -2, 1))) == 1

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            distinct_pole_count(RatFunc.const(3))

    def test_invariant_under_mobius_samples(self):
        # the count is geometric: check explicit conjugations
        h = ratfunc_new(P(1), P(0, -1, 0, 1))  # poles 0, 1, -1
        m = Mobius.affine(CycNum.from_rational(2), CycNum.from_rational(3))
        assert distinct_pole_count(mobius_conjugate(h, m)) == 3
        h2 = ratfunc_new(P(0, 0, 0, 1), P(1, 1))  # poles -1, infinity
        assert distinct_pole_count(mobius_conjugate(h2, m)) == 2


class TestChebyshev:
    def test_t2(self):
        assert chebyshev(2) == P(-2, 0, 1)

    def test_t3(self):
        assert chebyshev(3) == P(0, -3, 0, 1)

    def test_defining_identity_up_to_16(self):
        arg = LaurentPoly.x_plus_inverse_x()
        for d in range(1, 17):
            lhs = substitute_poly_laurent(chebyshev(d), arg)
            assert lhs == LaurentPoly([(d, 1), (-d, 1)]), d

    @staticmethod
    def _at_t_plus_inverse_t(d):
        """T_d(t + 1/t) by integer Horner; entry i is the coefficient of t^(i - d)."""
        acc = [0] * (2 * d + 1)
        for c in reversed(chebyshev(d).coeffs):
            acc = [a + b for a, b in zip([0, *acc[:-1]], [*acc[1:], 0])]
            acc[d] += int(c.as_rational())
        return acc

    def test_defining_identity_by_integer_horner(self):
        # chebyshev builds T_d from the Dickson closed form and checks
        # nothing at run time; this is the check of the identity
        for d in [*range(1, 301), 2000]:
            assert self._at_t_plus_inverse_t(d) == [1] + [0] * (2 * d - 1) + [1], d

    def test_invalid_index(self):
        with pytest.raises(DomainError):
            chebyshev(0)

    def test_unprintable_degree_is_refused_only_when_a_coefficient_is_too_long(
        self, monkeypatch
    ):
        # the coefficients' absolute values sum to the Lucas number L_d
        lucas = [2, 1]
        while len(lucas) <= 3107:
            lucas.append(lucas[-1] + lucas[-2])
        for d in range(1, 41):
            assert sum(abs(c.as_rational()) for c in chebyshev(d).coeffs) == lucas[d], d
        # so T_3107, refused at 640 digits, has a coefficient of at least
        # L_d / (d + 1) >= 10^640, which cannot print
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640, raising=False)
        with pytest.raises(ResourceLimitError, match="more than 640 digits"):
            chebyshev(3107)
        assert lucas[3107] >= 3108 * 10**640


class TestMobius:
    def test_conjugation_orientation(self):
        # m(x) = x - 1: m^-1(h(m(x))) for h = x^2 gives (x-1)^2 + 1
        m = Mobius.affine(1, -1)
        g = mobius_conjugate(RatFunc.from_poly(P(0, 0, 1)), m)
        assert g == RatFunc.from_poly(P(2, -2, 1))

    def test_identity(self):
        h = ratfunc_new(P(0, 1, 0, 2), P(3, 1))
        assert mobius_conjugate(h, Mobius(1, 0, 0, 1)) == h

    def test_round_trip(self, rng):
        for _ in range(8):
            h = random_ratfunc(rng, 2, 1, max_conductor=8, height=3)
            if degree(h) == 0:
                continue
            m = Mobius(
                random_cycnum(rng, 8, 3, allow_zero=False),
                random_cycnum(rng, 8, 3),
                CycNum.zero,
                CycNum.one,
            )
            assert mobius_conjugate(mobius_conjugate(h, m), m.inverse()) == h

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            Mobius(CycNum.one, CycNum.one, CycNum.one, CycNum.one)


class TestTermCount:
    def test_examples(self):
        assert term_count(ratfunc_new(P(0, 0, 0, 1), P(2, 1))) == 3
        assert term_count(RatFunc.from_poly(P(-2, 0, 1))) == 3
        assert term_count(ratfunc_new(P(0, 1, 0, 0, 1), P(1, 1, 1))) == 5


class TestLaurent:
    def test_to_laurent_requires_monomial_denominator(self):
        assert to_laurent(ratfunc_new(P(1), P(1, 1))) is None
        lp = to_laurent(ratfunc_new(P(1, 0, 2), P(0, 0, 1)))
        assert lp == LaurentPoly([(-2, 1), (0, 2)])

    def test_round_trip(self):
        lp = LaurentPoly([(3, z(5)), (0, 2), (-2, -1)])
        assert to_laurent(lp.to_ratfunc()) == lp

    def test_multiplication(self):
        a = LaurentPoly([(1, 1), (-1, 1)])
        sq = a * a
        assert sq == LaurentPoly([(2, 1), (0, 2), (-2, 1)])


class TestShapes:
    def test_x_plus_one_is_binomial_shaped(self):
        shape = is_binomial_shape(RatFunc.from_poly(P(1, 1)))
        assert shape is not None
        assert shape.a == CycNum.one and shape.b == CycNum.zero and shape.n == 1

    def test_x2_plus_x_is_not(self):
        assert is_binomial_shape(RatFunc.from_poly(P(0, 1, 1))) is None

    def test_genuine_binomial_composition_detected(self):
        # q = lam(2 x^3 + 5 x^-3) with lam(y) = (y + 1)/(y - 2)
        inner = ratfunc_new(P(5, 0, 0, 0, 0, 0, 2), P(0, 0, 0, 1))
        lam = Mobius(CycNum.one, CycNum.one, CycNum.one, CycNum.from_rational(-2))
        q = compose(lam.as_ratfunc(), inner)
        shape = is_binomial_shape(q)
        assert shape is not None and shape.n == 3
        assert compose(shape.lam.as_ratfunc(), shape.inner()) == q

    def test_trinomial_examples(self):
        res = is_trinomial_shape(LaurentPoly([(2, 3), (0, 1), (-2, -1)]))
        assert res == (
            CycNum.from_rational(3),
            CycNum.one,
            CycNum.from_rational(-1),
            2,
        )
        assert is_trinomial_shape(LaurentPoly([(2, 1), (1, 1)])) is None
        assert is_trinomial_shape(LaurentPoly([(0, 5)])) is None

    def test_monomial_is_trinomial_shaped(self):
        assert is_trinomial_shape(LaurentPoly([(1, 1)])) == (
            CycNum.one,
            CycNum.zero,
            CycNum.zero,
            1,
        )


class TestPolyBasics:
    def test_taylor_shift(self):
        p = P(1, 2, 1)  # (x+1)^2
        assert p.taylor_shift(CycNum.from_rational(-1)) == P(0, 0, 1)

    def test_divmod(self):
        q, r = P(-1, 0, 0, 1).divmod(P(-1, 1))
        assert q == P(1, 1, 1) and r.is_zero()

    def test_fraction_coefficients(self):
        p = P(Fraction(1, 2), Fraction(3, 4))
        assert p.evaluate(CycNum.from_rational(2)) == CycNum.from_rational(2)


@contextlib.contextmanager
def _cpu_deadline(seconds):
    """Raise TimeoutError in the body once it has used `seconds` of CPU."""

    def expire(*_):
        raise TimeoutError("still running")

    previous = signal.signal(signal.SIGVTALRM, expire)
    signal.setitimer(signal.ITIMER_VIRTUAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, previous)


class TestPolyPow:
    @pytest.mark.parametrize(
        "base, k",
        [(P(1, 1), -1), (P(0, 1), -3), (P(2), -1), (LaurentPoly.x_plus_inverse_x(), -2)],
    )
    def test_negative_power_raises_at_once(self, base, k):
        # a negative k must not reach the squaring loop, where k >>= 1 stays -1
        with _cpu_deadline(1), pytest.raises(DomainError):
            base.pow(k)

    def test_monomial_power_shares_the_zero(self):
        p = Poly.x().pow(50)
        assert p.deg == 50 and p.leading() == CycNum.one
        assert all(c is CycNum.zero for c in p.coeffs[:-1])
        assert all(c is CycNum.zero for c in Poly([0, z(7)]).pow(9).coeffs[:-1])

    @pytest.mark.parametrize("a, b", [(1, 1), (2, -3), (z(7), Fraction(1, 3)), (z(4), z(3))])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 12])
    def test_affine_power_matches_repeated_product(self, a, b, k):
        base = P(b, a)
        expected = P(1)
        for _ in range(k):
            expected = expected * base
        assert base.pow(k) == expected

    @pytest.mark.parametrize("a, b, products", [(1, 1, 13), (2, 1, 25), (1, -3, 25), (2, -3, 50)])
    def test_unit_side_adds_no_product(self, a, b, products, monkeypatch):
        # k + 1 binomial scalings, k for each non-unit power list, k + 1 if both are
        counted = []
        mul = CycNum.__mul__

        def counting(self, other):
            counted.append(other)
            return mul(self, other)

        monkeypatch.setattr(CycNum, "__mul__", counting)
        power = P(b, a).pow(12)
        monkeypatch.undo()
        assert len(counted) == products
        assert power == P(b, a) * P(b, a).pow(11)

    def test_expansion_size_ceiling(self):
        assert P(1, 1).pow(20000).coeffs[10000] == CycNum.from_rational(math.comb(20000, 10000))
        with _cpu_deadline(1), pytest.raises(ResourceLimitError, match="expansion ceiling"):
            P(1, 1).pow(1_000_000)
        # a large conductor counts every coordinate: 3456 per power of zeta_4199
        with _cpu_deadline(1), pytest.raises(ResourceLimitError, match="expansion ceiling"):
            P(1, z(4199)).pow(2000)

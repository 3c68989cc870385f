import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclohouse import (
    CycNum,
    DomainError,
    LoxtonProfile,
    RootOfUnity,
    conjugates,
    cyc_add,
    cyc_inv,
    cyc_mul,
    cyc_neg,
    embed_at_conductor,
    in_PA,
    is_algebraic_integer,
    is_root_of_unity,
    loxton_decompose,
)
from cyclohouse.cyclotomic import euler_phi

from .conftest import random_cycnum


def z(n, k=1):
    return CycNum.zeta(n, k)


def rat(v):
    return CycNum.from_rational(v)


class TestArithmetic:
    def test_add_reduces_via_cyclotomic_polynomial(self):
        # 1 + z3 + z3^2 = 0
        assert cyc_add(z(3), z(3, 2)) == rat(-1)

    def test_mul_i_squared(self):
        assert cyc_mul(z(4), z(4)) == rat(-1)

    def test_inv_rational(self):
        assert cyc_inv(rat(2)) == rat(Fraction(1, 2))

    def test_inv_zero_raises(self):
        with pytest.raises(DomainError):
            cyc_inv(CycNum.zero)

    def test_neg(self):
        assert cyc_neg(z(5)) + z(5) == CycNum.zero

    def test_conductor_combination_and_minimization(self):
        # z3 * z4 has conductor 12; z3 * conj lands back at小 conductor
        v = z(3) * z(4)
        assert v.n == 12
        w = z(3) + (rat(1) - z(3))
        assert w == rat(1) and w.n == 1

    def test_division_round_trip(self):
        a = rat(3) + z(7) * 2
        b = z(5) - rat(Fraction(1, 3))
        assert (a / b) * b == a

    def test_power_negative(self):
        assert z(5) ** -2 == z(5, 3)


class TestEmbedding:
    def test_embed_rational_at_5(self):
        assert embed_at_conductor(rat(-1), 5) == [
            Fraction(-1),
            Fraction(0),
            Fraction(0),
            Fraction(0),
        ]

    def test_embed_z3_at_12(self):
        # z3 = z12^4; x^4 mod Phi_12 = x^2 - 1
        assert embed_at_conductor(z(3), 12) == [
            Fraction(-1),
            Fraction(0),
            Fraction(1),
            Fraction(0),
        ]

    def test_embed_incompatible_conductor(self):
        with pytest.raises(DomainError):
            embed_at_conductor(z(5), 3)

    def test_embed_round_trips_through_constructor(self):
        a = rat(2) + z(5) - z(5, 3)
        coords = embed_at_conductor(a, 15)
        assert CycNum(15, coords) == a


class TestConjugates:
    def test_rational_single(self):
        assert conjugates(rat(Fraction(3, 2))) == [rat(Fraction(3, 2))]

    def test_z4(self):
        assert conjugates(z(4)) == [z(4), -z(4)]

    def test_multiset_with_repeats(self):
        a = z(5) + z(5, 4)
        b = z(5, 2) + z(5, 3)
        assert conjugates(a) == [a, b, b, a]

    def test_length_is_phi(self):
        a = z(7) + rat(1)
        assert len(conjugates(a)) == euler_phi(7)

    def test_galois_closure_sum_and_product_rational(self, rng):
        for _ in range(20):
            a = random_cycnum(rng, max_conductor=12, height=5)
            total = CycNum.zero
            prod = CycNum.one
            for c in conjugates(a):
                total = total + c
                prod = prod * c
            assert total.is_rational
            assert prod.is_rational


class TestIntegrality:
    def test_integer_examples(self):
        assert is_algebraic_integer(rat(1) + z(8))
        assert not is_algebraic_integer(rat(Fraction(1, 2)))
        assert is_algebraic_integer(rat(1) + z(3))

    def test_half_zeta_not_integral(self):
        assert not is_algebraic_integer(z(5) / 2)


class TestRootOfUnity:
    def test_minus_z9_squared(self):
        r = is_root_of_unity(-z(9, 2))
        assert r == RootOfUnity(18, 13)

    def test_one_plus_z3(self):
        r = is_root_of_unity(rat(1) + z(3))
        assert r == RootOfUnity(6, 1)

    def test_one_plus_z5_is_not(self):
        assert is_root_of_unity(rat(1) + z(5)) is None

    def test_zero_is_not(self):
        assert is_root_of_unity(CycNum.zero) is None

    def test_canonical_pair_is_minimal(self):
        r = is_root_of_unity(z(12, 8))  # z12^8 = z3^2
        assert r == RootOfUnity(3, 2)

    def test_power_identity_cross_check(self, rng):
        # spec's defining test: a^lcm(2, n) == 1 exactly
        for m in range(1, 16):
            for k in range(m):
                a = z(m, k)
                r = is_root_of_unity(a)
                assert r is not None
                big_m = a.n if a.n % 2 == 0 else 2 * a.n
                assert a**big_m == CycNum.one
                assert a == z(r.order, r.exponent)
                assert math.gcd(r.exponent, r.order) == 1 or r.order == 1


class TestInPA:
    def test_z12_in_p1(self):
        assert in_PA(z(12), 1) == "member"

    def test_one_plus_z5_above_threshold(self):
        assert in_PA(rat(1) + z(5), Fraction(3, 2)) == "nonmember"

    def test_one_plus_z5_below_threshold(self):
        assert in_PA(rat(1) + z(5), 2) == "member"

    def test_non_integral_never_member(self):
        assert in_PA(rat(Fraction(1, 2)), 100) == "nonmember"

    def test_zero_is_member(self):
        assert in_PA(CycNum.zero, 1) == "member"

    def test_A_below_one_rejected(self):
        with pytest.raises(DomainError):
            in_PA(rat(1), Fraction(1, 2))


class TestLoxton:
    def test_two_as_one_plus_one(self):
        d = loxton_decompose(rat(2), 4)
        assert [r for _, r in d] == [RootOfUnity(1, 0), RootOfUnity(1, 0)]

    def test_sum_of_three_fifth_roots(self):
        a = rat(1) + z(5) + z(5, 2)
        d = loxton_decompose(a, 4)
        assert d is not None and len(d) == 2
        assert {r for _, r in d} == {RootOfUnity(10, 1), RootOfUnity(10, 3)}
        total = CycNum.zero
        for e, r in d:
            assert e == CycNum.one
            total = total + r.to_cycnum()
        assert total == a

    def test_non_integral_rejected(self):
        with pytest.raises(DomainError):
            loxton_decompose(rat(Fraction(1, 3)), 4)

    def test_zero_is_empty_sum(self):
        assert loxton_decompose(CycNum.zero, 3) == []

    def test_no_representation_within_budget(self):
        assert loxton_decompose(rat(5), 3) is None

    def test_minimality_against_exhaustive(self):
        # brute force over all sums of <= 3 roots in mu_lcm(2, n)
        import itertools

        cases = [rat(3), z(3) + 1, z(4) * 2, z(12) + z(12, 5), rat(-2), z(3) - 1]
        cases += [z(12, 5), rat(-1), z(9, 2)]  # single roots of unity
        for a in cases:
            n = a.n
            m_tor = n if n % 2 == 0 else 2 * n
            roots = [z(m_tor, k) for k in range(m_tor)]
            best = None
            for d in range(0, 4):
                for combo in itertools.combinations_with_replacement(roots, d):
                    total = CycNum.zero
                    for r in combo:
                        total = total + r
                    if total == a:
                        best = d
                        break
                if best is not None:
                    break
            mine = loxton_decompose(a, 3)
            if best is None:
                assert mine is None
            else:
                assert mine is not None and len(mine) == best


class TestCyclotomicPolynomials:
    def test_known_values(self):
        from cyclohouse.cyclotomic import cyclotomic_polynomial

        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
        assert cyclotomic_polynomial(105)[7] == -2  # first coefficient beyond +-1

    def test_matches_sympy(self):
        # Every n <= 200, every 13-smooth n <= 4000 (the conductors built
        # from small primes, where Phi_rad(n)(x^(n/rad n)) does the most
        # work) and a prime near the top; sympy takes minutes for all of
        # n <= 4000, most of it on large prime factors.
        sympy = pytest.importorskip("sympy")
        from cyclohouse.cyclotomic import cyclotomic_polynomial, factorize

        ns = set(range(1, 201)) | {3989, 4000}
        ns |= {n for n in range(201, 4001) if factorize(n)[-1][0] <= 13}
        for n in sorted(ns):
            want = sympy.cyclotomic_poly(n, polys=True).all_coeffs()[::-1]
            assert list(cyclotomic_polynomial(n)) == want, n

    def test_product_over_divisors_is_x_n_minus_1(self):
        from cyclohouse.cyclotomic import cyclotomic_polynomial

        for n in (6, 12, 30):
            prod = [1]
            for d in (d for d in range(1, n + 1) if n % d == 0):
                phi_d = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        out[i + j] += a * b
                prod = out
            expected = [-1] + [0] * (n - 1) + [1]
            assert prod == expected


class TestCanonicalForm:
    def test_constructor_accepts_2_mod_4(self):
        # conductor 6 normalizes to 3: z6 = -z3^2 = 1 + z3
        v = CycNum(6, [Fraction(0), Fraction(1)])
        assert v.n == 3
        assert v == rat(1) + z(3)

    def test_idempotence(self, rng):
        for _ in range(30):
            a = random_cycnum(rng)
            b = CycNum(a.n, list(a.coords))
            assert b.n == a.n and b.coords == a.coords

    def test_equality_independent_of_construction_conductor(self):
        a = CycNum(12, embed_at_conductor(z(3), 12))
        assert a == z(3) and a.n == 3

    def test_hidden_rational(self):
        coords = embed_at_conductor(rat(Fraction(7, 2)), 8)
        v = CycNum(8, coords)
        assert v.n == 1 and v.as_rational() == Fraction(7, 2)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_serialization_round_trip(self, seed):
        import random as _r

        rng = _r.Random(seed)
        a = random_cycnum(rng)
        assert CycNum.from_dict(a.to_dict()) == a


@st.composite
def cycnums(draw):
    choices = [1, 3, 4, 5, 8, 12, 24]
    n = draw(st.sampled_from(choices))
    phi = euler_phi(n)
    coords = draw(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=4),
            min_size=phi,
            max_size=phi,
        )
    )
    return CycNum(n, coords)


class TestFieldAxioms:
    @given(cycnums(), cycnums(), cycnums())
    @settings(max_examples=40)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(cycnums())
    @settings(max_examples=40)
    def test_multiplicative_inverse(self, a):
        if a:
            assert a * cyc_inv(a) == CycNum.one

    @given(cycnums(), cycnums())
    @settings(max_examples=40)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a


class TestLoxtonProfile:
    def test_default_budget(self):
        p = LoxtonProfile.default(4)
        assert p.budget_value(1) == 4
        assert p.budget_value(100) == 4

    def test_empty_budget(self):
        p = LoxtonProfile.empty()
        assert p.budget_value(10) == 0

    def test_step_budget_monotone(self):
        p = LoxtonProfile(
            B=Fraction(1),
            E=(CycNum.one,),
            budget=((Fraction(1), 2), (Fraction(5), 7)),
        )
        assert p.budget_value(Fraction(1, 2)) == 0
        assert p.budget_value(3) == 2
        assert p.budget_value(5) == 7

    def test_nonmonotone_rejected(self):
        with pytest.raises(DomainError):
            LoxtonProfile(
                B=Fraction(1),
                E=(CycNum.one,),
                budget=((Fraction(1), 5), (Fraction(2), 3)),
            )

    def test_empty_E_rejected(self):
        with pytest.raises(DomainError):
            LoxtonProfile(B=Fraction(1), E=(), budget=())

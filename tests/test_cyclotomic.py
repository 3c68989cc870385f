import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclohouse import (
    CycNum,
    DomainError,
    LoxtonProfile,
    ResourceLimitError,
    RootOfUnity,
    conjugates,
    embed_at_conductor,
    in_PA,
    is_algebraic_integer,
    is_root_of_unity,
    loxton_decompose,
)
from cyclohouse import cyclotomic
from cyclohouse.cyclotomic import (
    _canonicalize,
    _cyclotomy,
    _scatter,
    _try_drop_prime,
    _units_half,
    conjugate,
    euler_phi,
    factorize,
    residue_mod_p,
)

from . import canonical_reference, torsion_reference
from .conftest import _random_cycnum_in, random_cycnum
from .util import cycnum_from_dict, empty_profile, forbid_loxton_tables


def z(n, k=1):
    return CycNum.zeta(n, k)


def rat(v):
    return CycNum.from_rational(v)


class TestArithmetic:
    def test_add_reduces_via_cyclotomic_polynomial(self):
        # 1 + z3 + z3^2 = 0
        assert z(3) + z(3, 2) == rat(-1)

    def test_mul_i_squared(self):
        assert z(4) * z(4) == rat(-1)

    def test_inv_rational(self):
        assert rat(2).inverse() == rat(Fraction(1, 2))

    def test_inv_zero_raises(self):
        with pytest.raises(DomainError):
            CycNum.zero.inverse()

    def test_neg(self):
        assert -z(5) + z(5) == CycNum.zero

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

    @pytest.mark.parametrize("base", [Fraction(2, 3), Fraction(-2, 3), -5, 7, 1, -1, 0])
    def test_rational_power_equals_square_and_multiply(self, base):
        a = rat(base)
        for k in range(-5, 6):
            if base == 0 and k < 0:
                with pytest.raises(DomainError):
                    a**k
                continue
            expected = CycNum.one
            for _ in range(abs(k)):
                expected = expected * a
            if k < 0:
                expected = expected.inverse()
            got = a**k
            assert (got.n, got.num, got.den) == (expected.n, expected.num, expected.den)
            assert got == rat(Fraction(base) ** k)

    def test_rational_power_takes_no_gcd_per_product(self):
        from cyclohouse.parser import parse_ratfunc

        # squaring with a gcd per product took 0.4-0.6 s
        start = time.process_time()
        h = parse_ratfunc("(2/3)^262144")
        assert time.process_time() - start < 0.2
        assert h.num.coeffs[0] == rat(Fraction(2, 3) ** 262144)


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

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 8, 12, 15, 420])
    def test_every_unit_in_ascending_order(self, n):
        # the units t <= n/2 of the bounded list, then n - t for those t
        rng = random.Random(5100 + n)
        units = [t for t in range(1, n + 1) if math.gcd(t, n) == 1]
        for _ in range(3):
            a = _random_cycnum_in(rng, n, 5)
            while a.n != n:  # a rational draw at n = 4, say
                a = _random_cycnum_in(rng, n, 5)
            assert conjugates(a) == [conjugate(a, t) for t in units]

    def test_unit_list_cache_is_bounded(self):
        assert _units_half.cache_info().maxsize == 128

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


MINIMALITY_CASES = [rat(3), z(3) + 1, z(4) * 2, z(12) + z(12, 5), rat(-2), z(3) - 1]
MINIMALITY_CASES += [z(12, 5), rat(-1), z(9, 2)]  # single roots of unity


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

    def test_dmax_one_builds_no_torsion_list(self, monkeypatch):
        # the 8398 torsion vectors of 3456 ints took 1.36 s and 238 MB
        a = 1 + z(4199)
        forbid_loxton_tables(monkeypatch)
        start = time.process_time()
        assert loxton_decompose(a, 1) is None
        assert time.process_time() - start < 0.1

    def test_ceiling_is_checked_before_the_torsion_list(self, monkeypatch):
        from cyclohouse import cyclotomic

        monkeypatch.setattr(cyclotomic, "LOXTON_HALF_TABLE_CEILING", 13)
        forbid_loxton_tables(monkeypatch)
        with pytest.raises(ResourceLimitError):
            loxton_decompose(1 + z(7), 2)  # 14 roots of unity, one per entry

    def test_ceiling_counts_the_larger_half(self):
        # M = 8398: 8398 left sums, but C(8399, 2) = 35.3 million right sums,
        # which the walk used to stream for minutes
        start = time.process_time()
        with pytest.raises(ResourceLimitError, match="2000000 sums"):
            loxton_decompose(3 + z(4199), 3)
        assert time.process_time() - start < 1.0
        found = loxton_decompose(1 + z(4199), 3)  # answered at d = 2
        assert [r for _, r in found] == [RootOfUnity(1, 0), RootOfUnity(4199, 1)]

    def test_minimality_against_exhaustive(self):
        # brute force over all sums of <= 3 roots in mu_lcm(2, n)
        for a in MINIMALITY_CASES:
            best = torsion_reference.shortest_sum_length(a, 3)
            mine = loxton_decompose(a, 3)
            if best is None:
                assert mine is None
            else:
                assert mine is not None and len(mine) == best

    def test_forced_collisions_are_rejected_exactly(self, monkeypatch):
        # in F_p with p the least prime = 1 (mod M) most image matches are
        # false; the answers must still be the dense search's and, on the
        # cases above, as short as the brute force's
        from cyclohouse import cyclotomic

        def small_field(big_m):
            primes = (q for q in itertools.count(big_m + 1, big_m)
                      if all(q % r for r in range(2, math.isqrt(q) + 1)))
            p = next(primes)
            g = next(g for g in range(2, p) if pow(g, big_m, p) == 1
                     and all(pow(g, big_m // q, p) != 1 for q, _ in factorize(big_m)))
            return p, g

        rejected = 0
        exact = cyclotomic._loxton_result

        def counted(a, roots):
            nonlocal rejected
            found = exact(a, roots)
            rejected += found is None
            return found

        monkeypatch.setattr(cyclotomic, "_screen_field", small_field)
        monkeypatch.setattr(cyclotomic, "_loxton_result", counted)
        assert [small_field(m) for m in (10, 14, 60)] == [(11, 2), (29, 4), (61, 2)]
        for a in MINIMALITY_CASES:
            got = loxton_decompose(a, 3)
            assert got == torsion_reference.loxton_decompose(a, 3), a
            best = torsion_reference.shortest_sum_length(a, 3)
            assert got is None if best is None else len(got) == best, a
        rng = random.Random(61)
        for _ in range(150):
            m = rng.choice((10, 14, 60))
            a = CycNum.zero
            for _ in range(rng.randint(1, 3)):
                a = a + rng.choice((1, -1, 2)) * z(m, rng.randrange(m))
            # four roots at M = 60 re-sum ~10^4 false matches in F_61
            d_max = rng.randint(1, 3 if m == 60 else 4)
            assert loxton_decompose(a, d_max) == torsion_reference.loxton_decompose(a, d_max), (
                a, d_max)
        assert rejected > 1000


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

    def test_reduce_folds_exponents_past_n(self):
        # reduce is linear, so the monomials x^e, e < 3n, cover every input
        # up to that length; the reference is the power walk through Phi_n
        for n in (1, 2, 5, 8, 12, 15, 16, 28, 59, 105):
            ctx = _cyclotomy(n)
            walk = torsion_reference.torsion_vectors(n)
            step = len(walk) // n
            for e in range(3 * n):
                acc = [0] * max(e + 1, ctx.phi)
                acc[e] = 1
                assert tuple(ctx.reduce(acc)) == walk[step * e % len(walk)], (n, e)

    @pytest.mark.parametrize(
        "n, examples",
        # a prime, 4p, a product of three odd primes, then 420 and 27720,
        # whose long divisions take seconds
        [(1, 20), (2, 20), (8, 20), (64, 20), (211, 10), (844, 10), (1001, 10), (420, 10),
         (27720, 2)],
    )
    def test_reduce_equals_long_division_by_phi(self, n, examples):
        from .fraction_reference import cyclotomic_polynomial as reference_phi

        if n == 27720:
            # the reference divides x^n - 1 by Phi_d for all 95 proper
            # divisors d, a minute here; Phi_27720(x) = Phi_2310(x^12)
            phi_n = [0] * (12 * euler_phi(2310) + 1)
            phi_n[::12] = reference_phi(2310)
        else:
            phi_n = reference_phi(n)
        d = len(phi_n) - 1
        low = [(j, c) for j, c in enumerate(phi_n[:d]) if c]
        ctx = _cyclotomy(n)

        @settings(max_examples=examples)
        @given(st.integers(d, 2 * n + 3), st.integers(0, 2**32), st.sampled_from((1, 30)))
        def check(length, seed, digits):
            rng = random.Random(seed)
            row = [rng.randint(-(10**digits), 10**digits) for _ in range(length)]
            rem = list(row)
            for i in range(length - 1, d - 1, -1):
                c = rem[i]
                if c:
                    for j, cj in low:
                        rem[i - d + j] -= c * cj
            assert ctx.reduce(row) == rem[:d]

        check()

    def test_product_row_at_4p_folds_by_half_the_conductor(self):
        # a product at n = 4 * 10007 has 2*phi - 1 = n - 5 exponents; one
        # dense row of Phi_n per exponent past phi took 23 s
        ctx = _cyclotomy(4 * 10007)
        rng = random.Random(40028)
        row = [rng.randint(-(10**30), 10**30) for _ in range(2 * ctx.phi - 1)]
        start = time.process_time()
        ctx.reduce(row)
        assert time.process_time() - start < 0.5


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
        assert cycnum_from_dict(a.to_dict()) == a


def _screen_rows(rng, n):
    """Rows at conductor n: two random dense rows, a sparse one, and for each
    divisor d an element of Q(zeta_d), alone and plus one from another divisor,
    scattered in."""
    phi = euler_phi(n)
    rows = [[rng.randint(-9, 9) for _ in range(phi)] for _ in range(2)]
    sparse = [0] * phi
    for _ in range(2):
        sparse[rng.randrange(phi)] += rng.choice((1, -1, 2))
    rows.append(sparse)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for d in divisors:
        row = _scatter(n, [rng.randint(-5, 5) for _ in range(euler_phi(d))], n // d)
        other = rng.choice(divisors)
        extra = _scatter(n, [rng.randint(-3, 3) for _ in range(euler_phi(other))], n // other)
        rows += [row, [a + b for a, b in zip(row, extra)]]
    return rows


class TestPrimeDropScreen:
    """``_try_drop_prime`` rejects a prime by F_p images before the exact
    buckets; the canonical forms are those of the bucket-only reference."""

    def test_canonical_forms_equal_the_bucket_reference(self):
        rng = random.Random(7)
        cases = dropped = 0
        for n in [*range(1, 201), 420, 840, 2520, 3960]:
            for row in _screen_rows(rng, n) + _screen_rows(rng, n):
                got = _canonicalize(n, list(row))
                assert got == canonical_reference.canonicalize(n, list(row)), (n, row)
                cases += 1
                dropped += got[0] != n
        assert cases > 6000 and 4000 < dropped < cases

    def test_agreeing_images_leave_the_decision_to_the_buckets(self, monkeypatch):
        # zeta_21 + zeta_21^2 lies in no subfield; with every image forced to
        # 0 the screen rejects nothing, and the exact buckets must keep 3 and 7
        num = list(_scatter(21, [0, 1, 1]))
        scattered = []
        scatter = cyclotomic._scatter

        def counted(*args):
            scattered.append(args[0])
            return scatter(*args)

        monkeypatch.setattr(cyclotomic, "_scatter", counted)
        assert _try_drop_prime(21, num, 3) is None and _try_drop_prime(21, num, 7) is None
        assert scattered == []  # the true images differ: no bucket is built
        monkeypatch.setattr(cyclotomic._Cyclotomy, "field", lambda self: (1, 0, [0] * self.phi))
        assert _try_drop_prime(21, num, 3) is None and _try_drop_prime(21, num, 7) is None
        assert set(scattered) == {7, 3}
        assert _canonicalize(21, num) == (21, num)
        assert CycNum(21, num) == z(21) + z(21, 2)

    def test_the_field_is_kept_on_the_conductor_context(self):
        q, g, pows = _cyclotomy(60).field()
        assert _cyclotomy(60).field()[2] is pows and len(pows) == euler_phi(60)
        assert (q - 1) % 60 == 0 and pow(g, 60, q) == 1
        assert all(pow(g, 60 // p, q) != 1 for p, _ in factorize(60))
        assert pows == [pow(g, j, q) for j in range(euler_phi(60))]


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
            assert a * a.inverse() == CycNum.one

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
        p = empty_profile()
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


class TestResidueModP:
    """zeta_120 -> g of exact order 120 mod p = 241 is a ring map."""

    P, N = 241, 120
    G = next(
        pow(r, 2, 241)
        for r in range(2, 241)
        if all(pow(r, 2 * 120 // q, 241) != 1 for q in (2, 3, 5))
    )

    def res(self, a):
        return residue_mod_p(a, self.P, self.G, self.N)

    def test_generator_has_exact_order(self):
        assert pow(self.G, self.N, self.P) == 1
        assert all(pow(self.G, self.N // q, self.P) != 1 for q in (2, 3, 5))

    @given(cycnums(), cycnums())
    @settings(max_examples=40)
    def test_ring_map(self, a, b):
        p = self.P
        assert self.res(a + b) == (self.res(a) + self.res(b)) % p
        assert self.res(a * b) == self.res(a) * self.res(b) % p
        assert self.res(-a) == -self.res(a) % p

    def test_roots_of_unity_land_in_the_torsion(self):
        for m in (1, 2, 3, 4, 5, 6, 8, 10, 12, 24, 40):
            for k in range(m):
                v = self.res(z(m, k))
                assert pow(v, m, self.P) == 1
        assert self.res(z(8)) == pow(self.G, 15, self.P)
        assert self.res(rat(Fraction(3, 4))) == 3 * pow(4, -1, self.P) % self.P
        assert self.res(CycNum.zero) == 0

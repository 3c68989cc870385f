from fractions import Fraction

import pytest

from cyclohouse import (
    CycNum,
    DomainError,
    HouseResult,
    LoxtonProfile,
    Poly,
    RatFunc,
    ResourceLimitError,
    chebyshev,
    compose,
    monic_normalize,
    orbit,
    ratfunc_new,
    scan_roots_of_unity,
    verify_orbit_lemma,
)
from cyclohouse.avoidance import avoidance_verdict
from cyclohouse.cyclotomic import is_algebraic_integer

from .util import (
    circle_sample_boxes,
    coefficient_embeddings,
    embedding_abs_squared,
    empty_profile,
    poly_box_at,
)


def z(n, k=1):
    return CycNum.zeta(n, k)


def P(*coeffs):
    return Poly(coeffs)


def scale_map(c: CycNum) -> RatFunc:
    return RatFunc.from_poly(Poly([CycNum.zero, c]))


class TestMonicNormalize:
    def test_worked_example(self):
        h = ratfunc_new(P(0, 0, 0, 2), P(1, 1))
        norm = monic_normalize(h)
        assert norm.c == CycNum.from_rational(2)
        assert norm.h_tilde == ratfunc_new(P(0, 0, 0, 1), P(2, 1))
        assert norm.D == 2
        assert norm.R == 5

    def test_already_monic(self):
        norm = monic_normalize(RatFunc.from_poly(P(1, 0, 0, 1)))
        assert norm.c == CycNum.one and norm.D == 1
        assert norm.h_tilde == RatFunc.from_poly(P(1, 0, 0, 1))

    def test_degree_gap_required(self):
        with pytest.raises(DomainError):
            monic_normalize(ratfunc_new(P(0, 0, 1), P(1, 1)))

    def test_unsupported_scaling(self):
        # leading coefficient 3 with gap 3 would need a cube root of 3
        with pytest.raises(DomainError):
            monic_normalize(RatFunc.from_poly(P(0, 1, 0, 0, 3)))

    def test_square_root_scaling(self):
        # leading coefficient 2 with gap 2: c = sqrt(2), a Gauss sum
        h = RatFunc.from_poly(P(0, 0, 0, 2))
        norm = monic_normalize(h)
        assert norm.c ** 2 == CycNum.from_rational(2) and norm.D == 2
        assert norm.h_tilde == RatFunc.from_poly(P(0, 0, 0, 1))
        lhs = compose(scale_map(norm.c.inverse()), compose(norm.h_tilde, scale_map(norm.c)))
        assert lhs == h

    def test_rou_multiple_scaling(self):
        # leading 4*z3 with gap 2: c = 2*z6... solvable in closed form
        h = RatFunc.from_poly(Poly([1, 0, 0, z(3) * 4]))
        norm = monic_normalize(h)
        assert norm.c ** 2 == z(3) * 4

    def test_identity_and_integrality_random_corpus(self):
        corpus = _normalization_corpus()
        assert len(corpus) >= 50
        for h in corpus:
            norm = monic_normalize(h)
            # h(x) = c^-1 * ht(c x) exactly
            lhs = compose(
                scale_map(norm.c.inverse()),
                compose(norm.h_tilde, scale_map(norm.c)),
            )
            assert lhs == h
            # D-integrality, and D is minimal
            c_inv = norm.c.inverse()
            values = [c_inv]
            for poly in (norm.h_tilde.num, norm.h_tilde.den):
                for coeff in poly.coeffs:
                    if coeff:
                        values.append(c_inv * coeff)
            d_scale = CycNum.from_rational(norm.D)
            assert all(is_algebraic_integer(d_scale * v) for v in values)
            for p in _prime_divisors(norm.D):
                smaller = CycNum.from_rational(Fraction(norm.D, p))
                assert not all(
                    is_algebraic_integer(smaller * v) for v in values
                ), (h, norm.D, p)


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _normalization_corpus():
    """50+ rational functions with the degree gap and supported scalings."""
    corpus = []
    # gap 1: any rational or rou-multiple leading coefficient works
    for lead in (1, 2, 3, Fraction(1, 2), Fraction(5, 3), -2, 7):
        corpus.append(ratfunc_new(Poly([0, 1, 0, lead]), P(1, 1)))
        corpus.append(ratfunc_new(Poly([1, 0, 0, lead]), P(2, 1)))
    corpus.append(ratfunc_new(Poly([0, 0, 0, z(3)]), P(1, 1)))
    corpus.append(ratfunc_new(Poly([0, 0, 0, 0, z(5) * 2]), Poly([1, Fraction(1, 2), 1])))
    # gap 2 polynomials: leading must be s * rou with s a rational square
    for lead in (1, 4, 9, Fraction(1, 4), Fraction(9, 16), 16):
        corpus.append(RatFunc.from_poly(Poly([0, 2, 0, lead])))
        corpus.append(RatFunc.from_poly(Poly([1, 0, Fraction(1, 3), lead])))
    corpus.append(RatFunc.from_poly(Poly([1, 0, 0, z(3) * 4])))
    corpus.append(RatFunc.from_poly(Poly([0, z(8), 0, 4])))
    # gap 3: cubes
    for lead in (1, 8, 27, Fraction(8, 27)):
        corpus.append(RatFunc.from_poly(Poly([0, 1, 0, 0, lead])))
        corpus.append(ratfunc_new(Poly([0, 0, 1, 0, 0, lead]), P(3, 1)))
    corpus.append(RatFunc.from_poly(Poly([2, 0, 0, 0, z(5) * 8])))
    # rational denominators of degree 1 and 2 with gaps
    for lead in (1, 2, -3, Fraction(3, 2)):
        corpus.append(ratfunc_new(Poly([0, 0, 0, 0, lead]), P(1, 3, 1)))
        corpus.append(ratfunc_new(Poly([5, 0, 0, lead]), P(4, 1)))
    corpus.append(ratfunc_new(Poly([0, 0, 0, 0, 0, 4]), Poly([1, 0, 0, 1])))
    corpus.append(ratfunc_new(Poly([z(4), 0, 0, 0, 9]), Poly([1, 1, 1])))
    corpus.append(ratfunc_new(Poly([0, 0, 0, 0, z(12) * Fraction(9, 4)]), P(1, 0, 1)))
    corpus.append(RatFunc.from_poly(Poly([z(7), 1, 0, -4])))
    return corpus


class TestEscapeRadius:
    def test_worked_examples(self):
        norm = monic_normalize(ratfunc_new(P(0, 0, 0, 2), P(1, 1)))
        assert norm.R == 5
        norm = monic_normalize(ratfunc_new(P(0, 0, 0, 0, 1), P(1, 1)))
        assert norm.R == 3
        norm = monic_normalize(RatFunc.from_poly(P(0, 0, 0, 1)))
        assert norm.R == 3

    def test_sampled_circle_bound_and_strict_growth(self):
        for h in _normalization_corpus()[:12]:
            norm = monic_normalize(h)
            _check_escape(norm)

    def test_strict_growth_five_steps(self):
        norm = monic_normalize(ratfunc_new(P(0, 0, 0, 2), P(1, 1)))
        ht = norm.h_tilde
        v = CycNum.from_rational(norm.R + 1)
        prev_sq = embedding_abs_squared(v, 1)
        from cyclohouse import evaluate

        for _ in range(5):
            nxt = evaluate(ht, v)
            assert nxt is not None
            cur_sq = embedding_abs_squared(nxt, 1)
            assert cur_sq.lo > prev_sq.hi
            v, prev_sq = nxt, cur_sq


def _check_escape(norm, samples=16):
    """|ht(z)| >= |z| on sampled |z| = R at every embedding."""
    ht = norm.h_tilde
    radius = norm.R
    radius_sq = radius * radius
    for t in coefficient_embeddings(ht.num * ht.den):
        for zbox in circle_sample_boxes(radius, samples):
            num_sq = poly_box_at(ht.num, zbox, t).abs_squared()
            den_sq = poly_box_at(ht.den, zbox, t).abs_squared()
            # |num(z)|^2 >= R^2 |den(z)|^2, allowing for box slack
            assert num_sq.hi >= radius_sq * den_sq.lo, (t, zbox)


class TestOrbit:
    def test_root_of_unity_cycle(self):
        rec = orbit(RatFunc.from_poly(P(0, 0, 1)), z(3), 3, 1)
        assert rec.points == (z(3), z(3, 2), z(3), z(3, 2))
        assert rec.hit_indices == (0, 1, 2, 3)
        assert rec.D == 1
        assert rec.integral_after_D == (True, True, True, True)

    def test_sqrt2_orbit(self):
        s2 = z(8) + z(8, 7)
        rec = orbit(RatFunc.from_poly(P(-2, 0, 1)), s2, 2, 1)
        assert rec.points == (s2, CycNum.zero, CycNum.from_rational(-2))
        assert rec.hit_indices == (1,)
        rec2 = orbit(RatFunc.from_poly(P(-2, 0, 1)), s2, 2, 2)
        # house(sqrt2) and house(-2) are both at most 2
        assert rec2.hit_indices == (0, 1, 2)

    def test_pole_truncation(self):
        rec = orbit(ratfunc_new(P(1), P(-1, 1)), CycNum.one, 5, 1)
        assert rec.truncated_at == 0
        assert rec.points == (CycNum.one,)
        rec = orbit(ratfunc_new(P(1), P(-1, 1)), CycNum.from_rational(2), 5, 1)
        assert rec.truncated_at == 1
        assert rec.points == (CycNum.from_rational(2), CycNum.one)

    def test_no_degree_gap_omits_flags(self):
        rec = orbit(ratfunc_new(P(0, 0, 1), P(1, 1)), z(3), 2, 1)
        assert rec.D is None and rec.integral_after_D is None


class TestOrbitLemma:
    def test_house_premise_fails_vacuous(self):
        rep = verify_orbit_lemma(RatFunc.from_poly(P(1, 0, 0, 1)), CycNum.one, 3, 10)
        assert rep.premise_house_holds is False
        assert rep.premise_integral_holds is True
        assert rep.ok()

    def test_integral_premise_example(self):
        h = ratfunc_new(P(0, 0, 0, 2), P(1, 1))
        rep = verify_orbit_lemma(h, CycNum.one, 1, 1)
        assert rep.premise_integral_holds is True
        assert rep.integral_checks == (True,)
        assert rep.ok()

    def test_power_map_both_bullets(self):
        rep = verify_orbit_lemma(RatFunc.from_poly(P(0, 0, 0, 1)), z(5), 4, 1)
        assert rep.premise_house_holds is True
        assert rep.premise_integral_holds is True
        assert all(e["within_bound"] for e in rep.house_checks)
        assert rep.ok()

    @pytest.mark.parametrize("offset, within", [(Fraction(-1, 8), None), (Fraction(1, 8), False)])
    def test_house_checks_say_when_the_enclosure_decides(self, monkeypatch, offset, within):
        # x^3 at zeta_5: c = 1, so only the orbit points have irrational houses
        from cyclohouse import avoidance

        h, a = RatFunc.from_poly(P(0, 0, 0, 1)), z(5)
        bound = verify_orbit_lemma(h, a, 4, 1).house_bound
        real = avoidance.house

        def enclosure(x, *args):
            if x.is_rational:
                return real(x, *args)
            return HouseResult(bound + offset, bound + Fraction(1, 4), 64)

        monkeypatch.setattr(avoidance, "house", enclosure)
        rep = verify_orbit_lemma(h, a, 4, 1)
        assert rep.house_bound == bound
        assert [e["within_bound"] for e in rep.house_checks] == [within] * 4
        assert len(rep.counterexamples) == (0 if within is None else 4)
        assert not rep.ok()

    def test_undecided_house_premise_is_not_ok(self, monkeypatch):
        from cyclohouse import avoidance

        monkeypatch.setattr(avoidance, "compare_house", lambda *_: None)
        rep = verify_orbit_lemma(RatFunc.from_poly(P(0, 0, 0, 1)), z(5), 4, 1)
        assert rep.premise_house_holds is None and rep.house_checks == ()
        assert rep.premise_integral_holds is True and not rep.counterexamples
        assert not rep.ok()

    def test_truncated_orbit_is_ok(self):
        rep = verify_orbit_lemma(ratfunc_new(P(0, 0, 0, 1), P(-1, 1)), CycNum.one, 2, 1)
        assert rep.truncated and rep.premise_house_holds is None
        assert rep.ok()

    def test_corpus_no_counterexamples(self):
        for h, a, n, big_a in _lemma_corpus():
            rep = verify_orbit_lemma(h, a, n, big_a)
            assert rep.ok(), (h, a, n, big_a)

    def test_gap_required(self):
        with pytest.raises(DomainError):
            verify_orbit_lemma(ratfunc_new(P(0, 0, 1), P(1, 1)), z(3), 2, 1)

    def test_point_past_the_power_ceiling_is_a_resource_error(self):
        # h^k(2) has about 2^k bits: point 20 is the first past 2^20
        with pytest.raises(ResourceLimitError, match="orbit point 20 exceeds 1048576 bits"):
            verify_orbit_lemma(RatFunc.from_poly(P(1, 0, 1)), CycNum.from_rational(2), 40, 2)


def _lemma_corpus():
    s2 = z(8) + z(8, 7)
    cubic = RatFunc.from_poly(P(1, 0, 0, 1))
    scaled = ratfunc_new(P(0, 0, 0, 2), P(1, 1))
    power3 = RatFunc.from_poly(P(0, 0, 0, 1))
    cheb3 = RatFunc.from_poly(chebyshev(3))
    quintic = ratfunc_new(P(0, 0, 1, 0, 0, 1), P(3, 1))
    return [
        (cubic, CycNum.one, 3, Fraction(10)),
        (cubic, CycNum.one, 2, Fraction(1000)),
        (cubic, z(3), 2, Fraction(100)),
        (cubic, CycNum.from_rational(Fraction(1, 2)), 2, Fraction(100)),
        (scaled, CycNum.one, 1, Fraction(1)),
        (scaled, CycNum.one, 3, Fraction(2)),
        (scaled, z(4), 2, Fraction(50)),
        (scaled, CycNum.from_rational(Fraction(1, 2)), 2, Fraction(10)),
        (power3, z(5), 4, Fraction(1)),
        (power3, z(7, 2), 3, Fraction(1)),
        (power3, s2, 2, Fraction(20)),
        (power3, CycNum.from_rational(-1), 5, Fraction(1)),
        (cheb3, s2, 3, Fraction(2)),
        (cheb3, z(5) + z(5, 4), 3, Fraction(2)),
        (cheb3, CycNum.from_rational(2), 2, Fraction(10)),
        (quintic, CycNum.one, 1, Fraction(5)),
        (quintic, z(3), 1, Fraction(5)),
    ]


class TestScan:
    def test_squares_preserve_roots_of_unity(self):
        import math

        result = scan_roots_of_unity(RatFunc.from_poly(P(0, 0, 1)), 6, 1)
        expected = sum(
            1
            for m in range(1, 7)
            for k in range(m)
            if (m == 1 and k == 0) or (m > 1 and math.gcd(k, m) == 1)
        )
        assert len(result.hits) == expected
        assert not result.undecided

    def test_exhaustive_against_brute_force(self):
        import math

        h = RatFunc.from_poly(P(0, 1, 1))  # x^2 + x
        result = scan_roots_of_unity(h, 4, 1)
        from cyclohouse import evaluate, in_PA

        expected = []
        for m in range(1, 5):
            for k in range(m):
                if m > 1 and math.gcd(k, m) != 1:
                    continue
                xi = z(m, k)
                v = evaluate(h, xi)
                if v is not None and in_PA(v, 1) == "member":
                    expected.append((m, k))
        assert [(s.root.order, s.root.exponent) for s in result.hits] == expected

    def test_poles_skipped(self):
        result = scan_roots_of_unity(ratfunc_new(P(1), P(0, -1, 0, 1)), 10, 5)
        assert {(r.order, r.exponent) for r in result.poles_skipped} == {
            (1, 0),
            (2, 1),
        }

    def test_prefix_stability_under_extension(self):
        h = RatFunc.from_poly(P(0, 1, 1))
        small = scan_roots_of_unity(h, 4, 1)
        large = scan_roots_of_unity(h, 8, 1)
        small_keys = [(s.root.order, s.root.exponent) for s in small.hits]
        large_keys = [(s.root.order, s.root.exponent) for s in large.hits]
        assert large_keys[: len(small_keys)] == small_keys

    def test_ordering(self):
        result = scan_roots_of_unity(RatFunc.from_poly(P(0, 0, 1)), 8, 1)
        keys = [(s.root.order, s.root.exponent) for s in result.hits]
        assert keys == sorted(keys)

    def test_equal_results_share_one_object(self):
        import gc

        from cyclohouse.avoidance import _SCAN_RESULTS

        h = RatFunc.from_poly(P(0, 1, 1))
        first = scan_roots_of_unity(h, 6, 1)
        again = scan_roots_of_unity(ratfunc_new(P(0, 1, 1), P(1)), 6, 1)
        assert again is first
        assert scan_roots_of_unity(h, 6, 2) is not first
        key = (first.hits, first.undecided, first.poles_skipped)
        del first, again
        gc.collect()
        assert key not in _SCAN_RESULTS


def _per_root_scan(h, order_cap, A):
    """Oracle: the scan evaluated at every primitive root separately."""
    import math

    from cyclohouse import RootOfUnity, evaluate, house, in_PA
    from cyclohouse.avoidance import ScanHit, ScanResult

    hits, undecided, poles = [], [], []
    for m in range(1, order_cap + 1):
        for k in range(m):
            if m > 1 and math.gcd(k, m) != 1:
                continue
            xi = RootOfUnity.make(m, k)
            v = evaluate(h, xi.to_cycnum())
            if v is None:
                poles.append(xi)
                continue
            verdict = in_PA(v, A)
            if verdict == "member":
                hits.append(ScanHit(xi, v, house(v)))
            elif verdict == "undecided":
                undecided.append(ScanHit(xi, v, house(v)))
    return ScanResult(tuple(hits), tuple(undecided), tuple(poles))


def _random_scan_map(rng, n):
    """A map over Q(zeta_n): root-of-unity sums (many hits) or small
    random coefficients, optionally with a pole at a root of unity."""
    from cyclohouse.cyclotomic import euler_phi

    def small():
        return CycNum(
            n,
            [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(euler_phi(n))],
        )

    def rou():
        return z(n, rng.randrange(n)) if n > 1 else CycNum.from_rational(rng.choice((1, -1)))

    d = rng.randint(1, 3)
    if rng.random() < 0.5:
        num = [rou() if rng.random() < 0.5 else CycNum.zero for _ in range(d)] + [rou()]
    else:
        num = [small() for _ in range(d)] + [CycNum.one]
    den = [CycNum.one]
    if rng.random() < 0.5:
        den = [-z(rng.choice((1, 2, 3, 4, 6, 8)), 1), CycNum.one]
    return ratfunc_new(Poly(num), Poly(den))


class TestOrbitScan:
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12])
    def test_matches_per_root_oracle(self, monkeypatch, n):
        import random

        import cyclohouse.avoidance as avoidance_mod
        from cyclohouse.cyclotomic import quotient_outside_PA

        # orbits rejected by the 64-bit screen, and orbits tested
        rejected = []

        def counted(*args):
            rejected.append(quotient_outside_PA(*args))
            return rejected[-1]

        monkeypatch.setattr(avoidance_mod, "quotient_outside_PA", counted)
        rng = random.Random(7000 + n)
        poles = 0
        for _ in range(6):
            h = _random_scan_map(rng, n)
            cap = rng.randint(8, 13)
            for A in (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(3)):
                got = scan_roots_of_unity(h, cap, A).to_dict()
                assert got == _per_root_scan(h, cap, A).to_dict(), (h, A, cap)
                poles += len(got["poles_skipped"])
        # both sides of the bound test ran, and orbit poles were met
        assert 0 < sum(rejected) < len(rejected)
        assert poles > 0

    @pytest.mark.parametrize("text", ["x^3 + 4", "(x^4 + 2*x + 2)/3", "(x^2 + 3)/(2*x + 5)"])
    def test_screen_runs_at_orders_one_and_two(self, monkeypatch, text):
        # h(1) and h(-1) lie above A = 2 or are not integers, so the screen
        # rejects both at N = 1 and N = 2, where the one unit is t = 1
        import cyclohouse.avoidance as avoidance_mod
        from cyclohouse import parse_ratfunc
        from cyclohouse.cyclotomic import quotient_outside_PA

        small = []

        def recorded(num, den, A):
            out = quotient_outside_PA(num, den, A)
            if num[2] <= 2:
                small.append((num[2], out))
            return out

        monkeypatch.setattr(avoidance_mod, "quotient_outside_PA", recorded)
        h = parse_ratfunc(text)
        got = scan_roots_of_unity(h, 12, 2)
        assert small == [(1, True), (2, True)]
        monkeypatch.undo()
        assert got.to_dict() == _per_root_scan(h, 12, 2).to_dict()

    def test_pole_orbits_match_oracle(self):
        # poles at every primitive 12th root over Q(i): Phi_12 = x^4 - x^2 + 1
        h = ratfunc_new(P(z(4), 0, 1), P(1, 0, -1, 0, 1))
        got = scan_roots_of_unity(h, 12, 2)
        assert {(r.order, r.exponent) for r in got.poles_skipped} == {
            (12, 1), (12, 5), (12, 7), (12, 11)
        }
        assert got.to_dict() == _per_root_scan(h, 12, 2).to_dict()

    @pytest.mark.parametrize(
        "h, A, orbit",
        [
            (RatFunc.from_poly(P(0, 2)), Fraction(2), (5, 1)),  # 2x: house 2 everywhere
            # 1 + x + x^2 is 2*z6 at z6 and i at i, while |1 + x + x^2| reaches 3
            (RatFunc.from_poly(P(1, 1, 1)), Fraction(2), (6, 1)),
            (RatFunc.from_poly(P(1, 1, 1)), Fraction(1), (4, 1)),
        ],
    )
    def test_house_equal_to_A_stays_a_member(self, h, A, orbit):
        got = scan_roots_of_unity(h, 12, A)
        assert orbit in [(s.root.order, s.root.exponent) for s in got.hits]
        assert got.to_dict() == _per_root_scan(h, 12, A).to_dict()

    @pytest.mark.parametrize(
        "text, cap, A",
        [
            ("(z5*x + 1/3)/(x^2 - 5)", 10, 3),  # the house is at most A: no test
            ("x^2 + z4/3", 10, 1),  # no integral value
            # the integral values have house above A, proven at 64 bits; the
            # ladder starts at 128 bits, so before the bound test their
            # verdict was undecided and their house raised UndecidedError
            ("(z3*x^2 + 3)/(x - 2)", 10, 2),
        ],
    )
    def test_scan_under_a_64_bit_cap_equals_the_default_cap(self, monkeypatch, text, cap, A):
        from cyclohouse import parse_ratfunc

        h = parse_ratfunc(text)
        expected = scan_roots_of_unity(h, cap, A).to_dict()
        monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", "64")
        assert scan_roots_of_unity(h, cap, A).to_dict() == expected

    def test_member_house_past_a_64_bit_cap_still_raises(self, monkeypatch):
        from cyclohouse import UndecidedError, parse_ratfunc

        # -i at x = -i: a member, whose house enclosure needs the 128-bit rung
        h = parse_ratfunc("z4/2*x^2 + x/2")
        monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", "64")
        with pytest.raises(UndecidedError, match="64-bit precision cap"):
            scan_roots_of_unity(h, 12, 2)

    def test_most_orbits_are_rejected_without_a_value(self, monkeypatch):
        # maps shaped like the scan benchmark's: most orbit values have a
        # house above A or a norm that is no integer
        import cyclohouse.avoidance as avoidance_mod
        from cyclohouse import evaluate, parse_ratfunc
        from cyclohouse.ratfunc import root_vectors

        maps = [
            ("x^2 + x - 2", 20, 2),
            ("x^3 - 3*x^2 + 3*x - 1", 20, 3),
            ("x^4 + 3*x^3 - 2*x^2 - 3*x + 2", 16, 2),
            ("x^2 + (3 + 3*z3)*x + z3", 16, 3),
            ("x^3 + (3 - 2*z4)*x^2 + (2 - z4)", 16, 2),
            ("(x^2 + 3*x - 2)/(x - 3)", 16, 3),
            ("(x^3 + 2*x - 1)/(x^2 - x - 6)", 14, 2),
            ("(x^2 + z3*x + 3)/((x + 1)*(x - 2))", 14, 2),
            ("(2*x^2 - x + z4)/((x - 2)^2)", 14, 3),
        ]
        orbits, evaluated = [], []

        def counted_vectors(f, a, *c):
            orbits.append(a)
            return root_vectors(f, a, *c)

        def counted_evaluate(f, a, *vectors):
            evaluated.append(a)
            return evaluate(f, a, *vectors)

        monkeypatch.setattr(avoidance_mod, "root_vectors", counted_vectors)
        monkeypatch.setattr(avoidance_mod, "evaluate", counted_evaluate)
        for text, cap, A in maps:
            scan_roots_of_unity(parse_ratfunc(text), cap, A)
        assert len(orbits) == 162
        assert 2 * len(evaluated) < len(orbits)

    def test_orbit_verdict_is_carried_to_every_root(self, monkeypatch):
        import cyclohouse.avoidance as avoidance_mod
        from cyclohouse import in_PA

        asked = []

        def straddles_at_z5(value, A):
            asked.append(value)
            return "undecided" if value == z(5) else in_PA(value, A)

        monkeypatch.setattr(avoidance_mod, "in_PA", straddles_at_z5)
        got = scan_roots_of_unity(RatFunc.from_poly(P(0, 1)), 5, 2)
        assert asked.count(z(5)) == 1 and all(z(5, k) not in asked for k in (2, 3, 4))
        assert [(s.root.order, s.root.exponent) for s in got.undecided] == [
            (5, 1), (5, 2), (5, 3), (5, 4)
        ]
        assert [s.value for s in got.undecided] == [z(5, k) for k in (1, 2, 3, 4)]
        assert not any(s.root.order == 5 for s in got.hits)

    def test_undecided_orbit_below_the_cap(self, monkeypatch):
        # house(1 + z5^k) is the golden ratio for every k; F_101/F_100 lies
        # about 2^-138 above it, past a 128-bit cap
        monkeypatch.setenv("CYCLOHOUSE_PRECISION_CAP", "128")
        A = Fraction(573147844013817084101, 354224848179261915075)
        got = scan_roots_of_unity(RatFunc.from_poly(P(1, 1)), 5, A)
        assert [(s.root.order, s.root.exponent) for s in got.undecided] == [
            (5, 1), (5, 2), (5, 3), (5, 4)
        ]
        assert [s.value for s in got.undecided] == [z(5, k) + 1 for k in (1, 2, 3, 4)]
        assert len({id(s.house) for s in got.undecided}) == 1

    @pytest.mark.parametrize(
        "h, c",
        [
            (RatFunc.from_poly(P(0, z(4), 1)), 4),  # x^2 + i*x
            (ratfunc_new(P(2, 0, 1), P(-1, 0, 1)), 1),  # poles at 1 and -1
        ],
    )
    def test_orbit_values_need_no_horner_pass(self, monkeypatch, h, c):
        import math
        from collections import Counter

        import cyclohouse.avoidance as avoidance_mod
        from cyclohouse import RootOfUnity, evaluate
        from cyclohouse.cyclotomic import quotient_outside_PA
        from cyclohouse.ratfunc import root_vectors

        horner, orbits, built, rejected = [], [], [], []

        def counted_horner(p, a):
            horner.append(a)
            return real_horner(p, a)

        def counted_evaluate(f, a, *vectors):
            orbits.append(a)
            return evaluate(f, a, *vectors)

        def counted_vectors(f, a, *c):
            built.append(a)
            return root_vectors(f, a, *c)

        def counted_test(*args):
            out = quotient_outside_PA(*args)
            if out:
                rejected.append(built[-1])
            return out

        real_horner = Poly.evaluate
        monkeypatch.setattr(Poly, "evaluate", counted_horner)
        monkeypatch.setattr(avoidance_mod, "evaluate", counted_evaluate)
        monkeypatch.setattr(avoidance_mod, "root_vectors", counted_vectors)
        monkeypatch.setattr(avoidance_mod, "quotient_outside_PA", counted_test)
        scan_roots_of_unity(h, 12, 2)
        assert horner == []
        assert all(isinstance(a, RootOfUnity) for a in orbits)
        # sigma_t, t = 1 (mod c), fixes h: the primitive m-th roots fall into
        # one orbit per unit modulo g = gcd(m, c)
        expected = sum(
            sum(math.gcd(u, g) == 1 for u in range(g))
            for g in (math.gcd(m, c) for m in range(1, 13))
        )
        # each orbit is either rejected on its house or evaluated, once
        assert len(built) == expected
        assert Counter(rejected + orbits) == Counter(built)

    def test_conjugation_commutes_with_evaluation(self):
        import math
        import random

        from cyclohouse import evaluate
        from cyclohouse.cyclotomic import conjugate

        rng = random.Random(11)
        for n in (1, 3, 4, 5, 8, 12):
            h = _random_scan_map(rng, n)
            c = math.lcm(*(a.n for a in h.num.coeffs + h.den.coeffs))
            for m in (5, 7, 8, 9, 12, 15):
                xi = z(m, 1)
                value = evaluate(h, xi)
                for u in range(2, m):
                    if math.gcd(u, m) != 1 or (u - 1) % math.gcd(m, c):
                        continue
                    t = next(t for t in range(u, m * c + 1, m) if (t - 1) % c == 0)
                    lhs = evaluate(h, conjugate(xi, t))
                    assert conjugate(xi, t) == z(m, u)
                    if value is None:
                        assert lhs is None
                    else:
                        assert lhs == conjugate(value, t)


def _random_quotient_map(rng, n):
    """A map over Q(zeta_n) with rational denominators in num and den and
    den coefficients in Q(zeta_n)."""
    from cyclohouse.cyclotomic import euler_phi

    def coefficient():
        return CycNum(
            n,
            [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(euler_phi(n))],
        )

    num = [coefficient() for _ in range(rng.randint(1, 3))] + [CycNum.from_rational(rng.randint(1, 3))]
    den = [coefficient() for _ in range(rng.randint(1, 2))] + [CycNum.one]
    return ratfunc_new(Poly(num), Poly(den))


class TestOrbitScreen:
    """The 64-bit screen (``quotient_outside_PA``) before the exact value."""

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 12])
    def test_every_rejected_orbit_is_a_nonmember(self, monkeypatch, n):
        import random

        import cyclohouse.avoidance as avoidance_mod
        from cyclohouse import house, in_PA
        from cyclohouse.cyclotomic import quotient_outside_PA, vector_value

        rejected, by_norm = [], []

        def checked(num, den, A):
            out = quotient_outside_PA(num, den, A)
            if out:
                dv = vector_value(den) if den else CycNum.one
                assert dv, (num, den)
                value = vector_value(num) / dv
                assert in_PA(value, A) == "nonmember", (value, A)
                rejected.append(value)
                if not is_algebraic_integer(value) and house(value).upper <= A:
                    by_norm.append(value)
            return out

        monkeypatch.setattr(avoidance_mod, "quotient_outside_PA", checked)
        rng = random.Random(9100 + n)
        for _ in range(8):
            h = _random_quotient_map(rng, n)
            for A in (Fraction(1), Fraction(2), Fraction(7, 2)):
                scan_roots_of_unity(h, rng.randint(6, 12), A)
        # the norm range, not the house, rejected some of them
        assert rejected and by_norm

    @pytest.mark.parametrize(
        "text, order",
        [("(x^2 + x + 1)/(x - 2)", 3), ("(x^4 + x^3 + x^2 + x + 1)/(x + 2)", 5)],
    )
    def test_zero_values_stay_hits(self, text, order):
        from cyclohouse import parse_ratfunc

        got = scan_roots_of_unity(parse_ratfunc(text), order, 1).to_dict()
        zeros = [(h["order"], h["exponent"]) for h in got["hits"] if h["value"] == "0"]
        assert zeros == [(order, k) for k in range(1, order)]

    def test_poles_are_still_skipped(self):
        from cyclohouse import parse_ratfunc

        h = parse_ratfunc("(x^3 - x + 1)/((x^2 + 1)*(x + 2))")
        got = scan_roots_of_unity(h, 8, 2)
        assert [(r.order, r.exponent) for r in got.poles_skipped] == [(4, 1), (4, 3)]
        assert got.to_dict() == _per_root_scan(h, 8, 2).to_dict()

    @pytest.mark.parametrize(
        "text",
        # 20 and 26 exact values when only a house above A rejected an orbit
        ["(x^3 - x + 1)/((x - 3)*(x + 2))", "(z3*x^2 + 1)/(x + 2)"],
    )
    def test_non_integral_orbits_need_no_exact_value(self, monkeypatch, text):
        import cyclohouse.avoidance as avoidance_mod
        from cyclohouse import evaluate, parse_ratfunc

        evaluated = []

        def counted_evaluate(f, a, *vectors):
            evaluated.append(a)
            return evaluate(f, a, *vectors)

        monkeypatch.setattr(avoidance_mod, "evaluate", counted_evaluate)
        h = parse_ratfunc(text)
        got = scan_roots_of_unity(h, 20, 2)
        assert len(evaluated) <= 2
        monkeypatch.undo()
        assert got.to_dict() == _per_root_scan(h, 20, 2).to_dict()


class TestOrbitPlan:
    """The per-(order, c) plan the scan reads its orbits from."""

    @pytest.mark.parametrize("c", [1, 3, 4, 5, 12, 20, 60, 105])
    def test_rows_are_the_orbits_in_exponent_order(self, c):
        import math

        from cyclohouse.avoidance import _orbit_plan

        for order in range(1, 121):
            big_n = math.lcm(c, order)
            rows = _orbit_plan(order, c)
            # one row per unit mod order, in ascending exponent order
            assert [k for k, _, _ in rows] == [k for k in range(order) if math.gcd(k, order) == 1]
            # sigma_t fixes Q(zeta_c) exactly for these t mod N
            group = {t % order for t in range(1, big_n + 1)
                     if math.gcd(t, big_n) == 1 and t % c == 1 % c}
            members: dict[int, list[int]] = {}
            for k, rep, t in rows:
                assert t % c == 1 % c and (rep * t - k) % order == 0
                assert math.gcd(t, big_n) == 1
                assert (t == 1) == (k == rep)
                members.setdefault(rep, []).append(k)
            for rep, ks in members.items():
                assert rep == min(ks)
                assert sorted(ks) == sorted({rep * u % order for u in group})
        assert _orbit_plan.cache_info().maxsize == 128


class TestSparseVectors:
    """``root_power_vector`` lists the nonzero slots of the exponent sum."""

    def test_pairs_are_the_nonzero_slots_of_the_dense_sum(self):
        import math
        import random

        from cyclohouse.cyclotomic import euler_phi, root_power_vector, vector_value

        rng = random.Random(2701)
        for _ in range(150):
            c = rng.choice((1, 3, 4, 5, 12))
            coeffs = []
            for _ in range(rng.randint(1, 9)):
                d = rng.choice([d for d in (1, 3, 4, 5, 12) if c % d == 0])
                coeffs.append(CycNum(d, [Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                                         for _ in range(euler_phi(d))]))
            m = rng.randint(1, 30)
            k = rng.choice([k for k in range(m) if math.gcd(k, m) == 1])
            pairs, big_d, big_n = root_power_vector(coeffs, c, m, k)
            assert big_n == math.lcm(c, m)
            dense = [Fraction(0)] * big_n
            for j, a in enumerate(coeffs):
                for i, x in enumerate(a.num):
                    dense[(i * big_n // a.n + j * k * big_n // m) % big_n] += Fraction(x, a.den)
            assert len({e for e, _ in pairs}) == len(pairs)
            assert all(w for _, w in pairs)
            assert {e: Fraction(w, big_d) for e, w in pairs} == {
                e: v for e, v in enumerate(dense) if v
            }
            expected = sum((a * z(m, j * k) for j, a in enumerate(coeffs)), CycNum.zero)
            assert vector_value((pairs, big_d, big_n)) == expected

    def test_colliding_slots_cancel(self):
        from cyclohouse.cyclotomic import root_power_vector, vector_value

        one = CycNum.one
        # x^3 - 1 at zeta_3: both terms land in slot 0 and cancel
        vec = root_power_vector([-one, CycNum.zero, CycNum.zero, one], 1, 3, 1)
        assert vec == ([], 1, 3)
        assert vector_value(vec) == CycNum.zero


def _sparse_screen_vector(rng, n):
    """A seeded exponent vector (pairs, D, N): a few slots with small or
    large weights, empty (zero), or a multiple of a vanishing sum."""
    kind = rng.random()
    den = rng.choice((1, 1, 2, 3, 6, 5 ** rng.randint(1, 12)))
    if kind < 0.1:
        return [], den, n
    if kind < 0.25:
        # zero at every conjugate: zeta^e (1 + zeta^(n/2)), or a sum over
        # the cosets of a prime p | n
        p = next(p for p in range(2, n + 1) if n % p == 0)
        e = rng.randrange(n)
        w = rng.choice((1, -3, 1 << 40))
        return [((e + i * n // p) % n, w) for i in range(p)], den, n
    slots = rng.sample(range(n), rng.randint(1, min(n, 6)))
    return [(e, rng.choice((-1, 1)) * rng.choice((1, 1, 2, 3, 7, 1 << rng.randint(8, 70))))
            for e in slots], den, n


class TestScreenEarlyExit:
    """``quotient_outside_PA`` stops at the first conjugate that decides,
    and decides as the full loop over every conjugate does."""

    def test_same_decision_as_the_full_loop(self):
        import random

        from cyclohouse.cyclotomic import quotient_outside_PA

        from . import house_reference

        rng = random.Random(2702)
        sizes = list(range(3, 41)) + [60, 64, 84, 105, 120, 128, 210, 252, 360, 420]
        outcomes = []
        for n in sizes:
            for A in (Fraction(1), Fraction(2), Fraction(7, 2)):
                for _ in range(4):
                    num = _sparse_screen_vector(rng, n)
                    den = None if rng.random() < 0.3 else _sparse_screen_vector(rng, n)
                    got = quotient_outside_PA(num, den, A)
                    assert got == house_reference.quotient_outside_PA(num, den, A), (num, den, A)
                    outcomes.append(got)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize("n", [1, 2, 3, 35, 420])
    def test_norm_alone_and_zero_cases(self, n):
        from cyclohouse.cyclotomic import quotient_outside_PA

        from . import house_reference

        half = [(0, 1)], 2, n  # 1/2: house below A, norm 4^-u
        zero = [], 1, n
        for num, den, want in [(half, None, True), (zero, None, False),
                               (([(0, 1)], 1, n), zero, False), (half, half, False)]:
            for A in (Fraction(1), Fraction(2), Fraction(7, 2)):
                assert quotient_outside_PA(num, den, A) is want
                assert house_reference.quotient_outside_PA(num, den, A) is want

    def test_one_numerator_bound_at_zero_still_bounds_the_norm(self):
        from cyclohouse.cyclotomic import quotient_outside_PA

        from . import house_reference
        from .interval_boxes import root_boxes

        # g^60 / D, g = 1 + zeta_5 + zeta_5^4 the golden ratio and
        # D = floor(g^60) + 2: house below 1 and norm 1/D^2.  The conjugate
        # (-1/g)^60 ~ 3e-13 is below the 64-bit error, so its lo is 0.
        g60 = (1 + z(5) + z(5, 4)) ** 60
        pairs = [(e, w) for e, w in enumerate(g60.num) if w]
        num = pairs, int(((1 + 5**0.5) / 2) ** 60) + 2, 5
        tab = root_boxes(5, 64)
        assert house_reference.square_bounds(tab, 5, pairs, 2)[0] == 0
        assert house_reference.square_bounds(tab, 5, pairs, 1)[0] > 0
        assert house_reference.quotient_outside_PA(num, None, Fraction(1))
        assert quotient_outside_PA(num, None, Fraction(1))

    def test_reads_stop_at_the_first_deciding_conjugate(self, monkeypatch):
        import cyclohouse.cyclotomic as cyc

        real = cyc._square_bounds
        reads = []

        def counted(*args):
            for bounds in real(*args):
                reads.append(bounds)
                yield bounds

        monkeypatch.setattr(cyc, "_square_bounds", counted)
        n = 35  # 12 units t <= n/2
        units = len(cyc._units_half(n))
        assert cyc.quotient_outside_PA(([(0, 5)], 1, n), None, Fraction(2))
        assert len(reads) == 1
        reads.clear()
        # |5| > 2 |1 + zeta_35| at t = 1 already
        assert cyc.quotient_outside_PA(([(0, 5)], 1, n), ([(0, 1), (1, 1)], 1, n), Fraction(2))
        assert len(reads) == 2
        reads.clear()
        # 1 is neither above A nor of a non-integral norm: every bound is read
        assert not cyc.quotient_outside_PA(([(0, 1)], 1, n), None, Fraction(2))
        assert len(reads) == units


class TestScanCeiling:
    """c * order_cap, a bound on every conductor a scan reaches, is capped."""

    @pytest.mark.parametrize(
        "text, cap", [("x^2 - 2", 10**9), ("z12*x^2 - 2", 1000), ("z3*x + 1", 683)]
    )
    def test_refused_before_any_root(self, monkeypatch, text, cap):
        import cyclohouse.avoidance as avoidance_mod
        from cyclohouse import ResourceLimitError, parse_ratfunc

        def unreachable(*args):
            raise AssertionError("a root was visited before the ceiling check")

        monkeypatch.setattr(avoidance_mod, "_orbit_plan", unreachable)
        monkeypatch.setattr(avoidance_mod, "root_vectors", unreachable)
        with pytest.raises(ResourceLimitError, match="scan ceiling exceeded: .* is above 2048"):
            scan_roots_of_unity(parse_ratfunc(text), cap, 2)

    def test_the_ceiling_counts_c_times_the_cap(self, monkeypatch):
        import cyclohouse.avoidance as avoidance_mod
        from cyclohouse import ResourceLimitError, parse_ratfunc

        monkeypatch.setattr(avoidance_mod, "SCAN_CONDUCTOR_CEILING", 24)
        h = parse_ratfunc("z3*x^2 + 1")
        scan_roots_of_unity(h, 8, 2)
        with pytest.raises(ResourceLimitError):
            scan_roots_of_unity(h, 9, 2)
        scan_roots_of_unity(parse_ratfunc("x^2 + 1"), 24, 2)

    def test_bench_scan_pools_are_below_the_ceiling(self):
        import importlib.util
        import sys
        from pathlib import Path

        from cyclohouse import parse_ratfunc
        from cyclohouse.avoidance import SCAN_CONDUCTOR_CEILING
        from cyclohouse.ratfunc import coefficient_conductor

        path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
        spec = importlib.util.spec_from_file_location("bench_gen", path)
        gen = importlib.util.module_from_spec(spec)
        sys.modules["bench_gen"] = gen
        try:
            spec.loader.exec_module(gen)
            for seed in (1, 3, 7):
                for q in gen.pool("scan", seed):
                    c = coefficient_conductor(parse_ratfunc(q["args"]["h"]))
                    assert c * q["args"]["M"] <= SCAN_CONDUCTOR_CEILING
        finally:
            del sys.modules["bench_gen"]


@pytest.mark.parametrize(
    "h, cap, A",
    [
        (ratfunc_new(P(1), P(-1, 1)), 1, -3),  # every root is a pole
        (ratfunc_new(P(1), P(-1, 1)), 1, Fraction(1, 2)),
        (RatFunc.from_poly(P(0, 0, 1)), 3, Fraction(1, 2)),
    ],
)
def test_scan_checks_A_before_any_root(h, cap, A):
    with pytest.raises(DomainError, match="A must be at least 1"):
        scan_roots_of_unity(h, cap, A)


class TestVerdict:
    def test_three_poles_certified(self):
        v = avoidance_verdict(
            ratfunc_new(P(1), P(0, -1, 0, 1)), 7, LoxtonProfile.default(5)
        )
        assert v.kind == "certified_avoiding"
        assert v.reason == "pole_count=3"

    def test_chebyshev_witness_found(self):
        v = avoidance_verdict(
            RatFunc.from_poly(P(-2, 0, 1)), 2, LoxtonProfile.default(2)
        )
        assert v.kind == "witness_found"
        assert v.witness is not None and len(v.witness.terms) <= 2

    def test_unknown_with_diagnostics(self):
        v = avoidance_verdict(
            RatFunc.from_poly(P(0, 1, 0, 1)), 1, LoxtonProfile.default(1)
        )
        assert v.kind == "unknown"
        assert v.diagnostics["pole_count"] == 1
        assert v.diagnostics["threshold_rule"] == "polynomial:(2*budget+1)^2"

    def test_rational_threshold_rule_cited(self):
        h = ratfunc_new(P(0, 0, 1), P(1, 1))
        v = avoidance_verdict(h, 1, empty_profile())
        assert v.kind == "unknown"
        assert v.diagnostics["threshold_rule"] == "rational:2016*5^(budget+1)"

    def test_witness_bearing_h_never_certified(self):
        for d in range(2, 7):
            v = avoidance_verdict(
                RatFunc.from_poly(chebyshev(d)), 2, LoxtonProfile.default(2)
            )
            assert v.kind == "witness_found"

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            avoidance_verdict(RatFunc.const(1), 1, LoxtonProfile.default(1))

    def test_negative_budget_rejected(self):
        # (2*budget+1)^2 would read 1 and claim a search that never ran
        with pytest.raises(DomainError):
            LoxtonProfile.default(-1)
        with pytest.raises(DomainError):
            LoxtonProfile(Fraction(1), (CycNum.one,), ((Fraction(0), 2), (Fraction(5), -3)))
        assert LoxtonProfile.default(0).budget_value(1) == 0

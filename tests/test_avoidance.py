from fractions import Fraction

import pytest

from cyclohouse import (
    CycNum,
    DomainError,
    LoxtonProfile,
    Poly,
    RatFunc,
    chebyshev,
    compose,
    escape_radius,
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
        # leading coefficient 2 with gap 2 would need sqrt(2) rational
        with pytest.raises(DomainError):
            monic_normalize(RatFunc.from_poly(P(0, 0, 0, 2)))

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
        assert escape_radius(norm) == 5
        norm = monic_normalize(ratfunc_new(P(0, 0, 0, 0, 1), P(1, 1)))
        assert escape_radius(norm) == 3
        norm = monic_normalize(RatFunc.from_poly(P(0, 0, 0, 1)))
        assert escape_radius(norm) == 3

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

    def test_corpus_no_counterexamples(self):
        for h, a, n, big_a in _lemma_corpus():
            rep = verify_orbit_lemma(h, a, n, big_a)
            assert rep.ok(), (h, a, n, big_a)

    def test_gap_required(self):
        with pytest.raises(DomainError):
            verify_orbit_lemma(ratfunc_new(P(0, 0, 1), P(1, 1)), z(3), 2, 1)


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


def _per_root_scan(h, order_cap, A, bits=64):
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
            verdict = in_PA(v, A, bits)
            if verdict == "member":
                hits.append(ScanHit(xi, v, house(v, bits)))
            elif verdict == "undecided":
                undecided.append(ScanHit(xi, v, house(v, bits)))
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
    def test_matches_per_root_oracle(self, n):
        import random

        rng = random.Random(7000 + n)
        for _ in range(6):
            h = _random_scan_map(rng, n)
            A = rng.choice((Fraction(1), Fraction(2), Fraction(5, 2)))
            cap = rng.randint(8, 13)
            got = scan_roots_of_unity(h, cap, A).to_dict()
            assert got == _per_root_scan(h, cap, A).to_dict(), (h, A, cap)

    def test_pole_orbits_match_oracle(self):
        # poles at every primitive 12th root over Q(i): Phi_12 = x^4 - x^2 + 1
        h = ratfunc_new(P(z(4), 0, 1), P(1, 0, -1, 0, 1))
        got = scan_roots_of_unity(h, 12, 2)
        assert {(r.order, r.exponent) for r in got.poles_skipped} == {
            (12, 1), (12, 5), (12, 7), (12, 11)
        }
        assert got.to_dict() == _per_root_scan(h, 12, 2).to_dict()

    def test_undecided_representative_reruns_each_root(self, monkeypatch):
        import cyclohouse.avoidance as avoidance_mod
        from cyclohouse import in_PA

        def straddles_at_z5(value, A, bits=64):
            return "undecided" if value == z(5) else in_PA(value, A, bits)

        monkeypatch.setattr(avoidance_mod, "in_PA", straddles_at_z5)
        got = scan_roots_of_unity(RatFunc.from_poly(P(0, 1)), 5, 2)
        assert [(s.root.order, s.root.exponent) for s in got.undecided] == [(5, 1)]
        assert [(s.root.order, s.root.exponent) for s in got.hits if s.root.order == 5] == [
            (5, 2), (5, 3), (5, 4)
        ]

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
        assert v.witness is not None and v.witness.term_count() <= 2

    def test_unknown_with_diagnostics(self):
        v = avoidance_verdict(
            RatFunc.from_poly(P(0, 1, 0, 1)), 1, LoxtonProfile.default(1)
        )
        assert v.kind == "unknown"
        assert v.diagnostics["pole_count"] == 1
        assert v.diagnostics["threshold_rule"] == "polynomial:(2*budget+1)^2"

    def test_rational_threshold_rule_cited(self):
        h = ratfunc_new(P(0, 0, 1), P(1, 1))
        v = avoidance_verdict(h, 1, LoxtonProfile.empty())
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

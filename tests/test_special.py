"""Special-map detection: soundness always, completeness at low degree.

The completeness cross-check reimplements the affine-conjugacy decision
independently: recenter by the forced shift, then enumerate scalings u
as explicit root-of-unity multiples of a separately computed radical,
verifying each candidate by expanding h(ux+v) coefficient by
coefficient.  Detector and oracle share no code path beyond basic
polynomial arithmetic.
"""

import time
from fractions import Fraction

import pytest

from cyclohouse import (
    CycNum,
    DomainError,
    Mobius,
    Poly,
    RatFunc,
    chebyshev,
    is_special,
    mobius_conjugate,
    ratfunc_new,
)
from cyclohouse.cyclotomic import euler_phi
from cyclohouse.special import exact_nth_root_fraction, sqrt_rational_cyc

from .conftest import random_cycnum, random_poly, random_ratfunc
from .special_reference import nth_roots_in_cyclotomic, reference_is_special


def z(n, k=1):
    return CycNum.zeta(n, k)


def P(*coeffs):
    return Poly(coeffs)


class TestRootExtraction:
    @pytest.mark.parametrize("s", [2, 3, 5, 6, 7, 10, 15, Fraction(9, 8), Fraction(49, 3)])
    def test_gauss_sqrt_squares_back(self, s):
        r = sqrt_rational_cyc(Fraction(s))
        assert r * r == CycNum.from_rational(Fraction(s))

    @staticmethod
    def _root_by_products(p):
        """sqrt(p) or sqrt(-p) times i^3, for an odd prime p, from sums and products."""
        gauss = CycNum.zero
        for t in range(1, p):
            symbol = 1 if pow(t, (p - 1) // 2, p) == 1 else -1
            gauss = gauss + z(p, t) * symbol
        return gauss if p % 4 == 1 else gauss * z(4, 3)

    def test_gauss_sum_matches_products(self):
        for p in range(3, 300, 2):
            if any(p % d == 0 for d in range(3, p, 2)):
                continue
            assert sqrt_rational_cyc(Fraction(p)) == self._root_by_products(p), p
        assert sqrt_rational_cyc(Fraction(2)) == z(8) + z(8, 7)
        # the same choice of root as the per-prime products, scaled
        root3, root7 = self._root_by_products(3), self._root_by_products(7)
        assert sqrt_rational_cyc(Fraction(-3)) == z(4) * root3
        assert sqrt_rational_cyc(Fraction(3, 7)) == root3 * root7 * Fraction(1, 7)
        assert sqrt_rational_cyc(Fraction(12)) == root3 * 2

    def test_gauss_sum_at_a_large_prime(self):
        start = time.process_time()
        r = sqrt_rational_cyc(Fraction(10009))
        assert time.process_time() - start < 1
        assert r.n == 10009 and r.den == 1

    def test_gauss_sum_at_a_large_prime_3_mod_4(self):
        # built at conductor 4p as one exponent vector; r * r there took 12.7 s
        # until reduce folded a product's n - 5 exponents by x^(n/2) = -1
        start = time.process_time()
        r = sqrt_rational_cyc(Fraction(10007))
        assert time.process_time() - start < 1
        assert r.n == 4 * 10007 and r.den == 1
        assert r * r == CycNum.from_rational(10007)

    def test_negative_sqrt(self):
        r = sqrt_rational_cyc(Fraction(-6))
        assert r * r == CycNum.from_rational(-6)

    def test_exact_rational_roots(self):
        assert exact_nth_root_fraction(Fraction(8), 3) == 2
        assert exact_nth_root_fraction(Fraction(16, 81), 4) == Fraction(2, 3)
        assert exact_nth_root_fraction(Fraction(2), 3) is None

    def test_nth_roots_complete_and_decisive(self):
        roots, decisive = nth_roots_in_cyclotomic(CycNum.from_rational(8), 3)
        assert decisive and len(roots) == 3
        for u in roots:
            assert u**3 == CycNum.from_rational(8)
        # 2^(1/3) is not a cyclotomic number
        roots, decisive = nth_roots_in_cyclotomic(CycNum.from_rational(2), 3)
        assert decisive and roots == []
        # 2^(1/4) is not either (its field is not abelian)
        roots, decisive = nth_roots_in_cyclotomic(CycNum.from_rational(2), 4)
        assert decisive and roots == []
        # but sqrt(2) is
        roots, decisive = nth_roots_in_cyclotomic(CycNum.from_rational(2), 2)
        assert decisive and any(u * u == CycNum.from_rational(2) for u in roots)

    def test_rou_multiple_roots(self):
        w = z(3) * 4
        roots, decisive = nth_roots_in_cyclotomic(w, 2)
        assert decisive
        assert any(u * u == w for u in roots)


class TestExactIntegerRoots:
    """Integer roots are exact: no float rounding, no overflow."""

    def test_large_square_scaling_is_special(self):
        from cyclohouse.parser import parse_ratfunc

        verdict = is_special(parse_ratfunc("(10^20+3)^2*x^3"))
        assert verdict.status == "special"

    def test_large_square_scaling_normalizes(self):
        from cyclohouse.avoidance import monic_normalize
        from cyclohouse.parser import parse_ratfunc

        norm = monic_normalize(parse_ratfunc("(10^20+3)^2*x^3"))
        assert norm.c == CycNum.from_rational(10**20 + 3)

    def test_huge_coefficient_does_not_overflow(self):
        from cyclohouse.avoidance import monic_normalize
        from cyclohouse.parser import parse_ratfunc

        h = parse_ratfunc("10^400*x^3")
        assert is_special(h).status == "special"
        assert monic_normalize(h).c == CycNum.from_rational(10**200)

    def test_roots_of_large_powers(self):
        for r in (2, 3, 5, 7):
            for b in (2, 10**20 + 3, 3**200 + 1):
                assert exact_nth_root_fraction(Fraction(b**r, 7**r), r) == Fraction(b, 7)
                assert exact_nth_root_fraction(Fraction(b**r + 1), r) is None
                assert exact_nth_root_fraction(Fraction(b**r - 1), r) is None


class TestPolynomialDetection:
    def test_chebyshev_models_are_special(self):
        for d in range(2, 7):
            v = is_special(RatFunc.from_poly(chebyshev(d)))
            assert v.status == "special"
            assert v.certificate.model_kind == "chebyshev"
            assert not v.certificate.mobius.c  # affine

    def test_shifted_square(self):
        h = RatFunc.from_poly(P(0, 2, 1))  # x^2 + 2x = (x+1)^2 - 1
        v = is_special(h)
        assert v.status == "special" and v.certificate.model_kind == "power"
        assert mobius_conjugate(h, v.certificate.mobius) == v.certificate.model()

    def test_x3_plus_x_not_special(self):
        assert is_special(RatFunc.from_poly(P(0, 1, 0, 1))).status == "not_special"

    def test_low_degree_rejected(self):
        with pytest.raises(DomainError):
            is_special(RatFunc.x())

    def test_scaled_power_requires_gauss_root(self):
        h = RatFunc.from_poly(P(0, 0, 0, 2))  # 2x^3: u^2 = 1/2
        v = is_special(h)
        assert v.status == "special"
        assert mobius_conjugate(h, v.certificate.mobius) == v.certificate.model()

    def test_conjugated_models_recovered(self, rng):
        models = [
            RatFunc.from_poly(P(0, 0, 1)),
            RatFunc.from_poly(P(0, 0, 0, 1)),
            RatFunc.from_poly(chebyshev(3)),
            RatFunc.from_poly(chebyshev(4)),
            RatFunc.from_poly(P(0, 0, 0, 0, -1)),
        ]
        scalings = [
            CycNum.from_rational(Fraction(3, 2)),
            CycNum.zeta(8),
            CycNum.zeta(3) * 2,
            CycNum.from_rational(-2),
            CycNum.zeta(5) * Fraction(1, 3),
        ]
        for model in models:
            for u in scalings:
                v_shift = random_cycnum(rng, 8, 3)
                m = Mobius(u, v_shift, CycNum.zero, CycNum.one)
                h = mobius_conjugate(model, m.inverse())
                verdict = is_special(h)
                assert verdict.status == "special", (model, u, v_shift)
                cert = verdict.certificate
                assert mobius_conjugate(h, cert.mobius) == cert.model()

    def test_unsupported_scaling_reports_unknown(self):
        # conjugating by u = 1 + 2*z4 (not rational * root of unity) puts
        # the required root extraction outside the supported closed forms
        u = CycNum.one + CycNum.zeta(4) * 2
        m = Mobius(u, CycNum.zero, CycNum.zero, CycNum.one)
        h = mobius_conjugate(RatFunc.from_poly(P(0, 0, 0, 1)), m.inverse())
        assert is_special(h).status in ("special", "unknown")


class TestRationalDetection:
    def test_nonaffine_conjugate_of_chebyshev(self):
        mu = Mobius(CycNum.one, CycNum.one, CycNum.one, CycNum.zero)  # (x+1)/x
        h = mobius_conjugate(RatFunc.from_poly(chebyshev(4)), mu)
        assert not h.is_poly()
        v = is_special(h)
        assert v.status == "special" and v.certificate.model_kind == "chebyshev"
        assert mobius_conjugate(h, v.certificate.mobius) == v.certificate.model()

    def test_nonaffine_conjugate_of_power(self):
        mu = Mobius(
            CycNum.from_rational(2),
            CycNum.one,
            CycNum.one,
            CycNum.from_rational(1),
        )
        h = mobius_conjugate(RatFunc.from_poly(P(0, 0, 0, 1)), mu)
        assert not h.is_poly()
        v = is_special(h)
        assert v.status == "special"
        assert mobius_conjugate(h, v.certificate.mobius) == v.certificate.model()

    def test_inverse_power_not_special(self):
        # 1/x^2 has no totally ramified fixed point
        assert is_special(ratfunc_new(P(1), P(0, 0, 1))).status == "not_special"

    def test_generic_rational_not_special(self):
        h = ratfunc_new(P(1, 0, 1), P(0, 1))  # (x^2+1)/x
        assert is_special(h).status == "not_special"

    def test_three_pole_map_not_special(self):
        h = ratfunc_new(P(1), P(0, -1, 0, 1))
        assert is_special(h).status == "not_special"

    def test_vanishing_top_equation_does_not_stop_the_gcd(self):
        # E_(d-1) is identically zero here: it constrains nothing, and the
        # fixed point 1/2 comes from the lower coefficients
        from cyclohouse.parser import parse_ratfunc

        h = parse_ratfunc("(1/3*x^3 - 1/2*x - 1/4)/(x^2 + 3/2*x + 7/12)")
        num, den = h.num, h.den
        # E_2(gamma) = num_2 + gamma * (3 * num_3 - den_2), as den_3 = 0
        assert not den[3] and not num[2] and num[3] * 3 == den[2]
        v = is_special(h)
        assert v.status == "special"
        assert mobius_conjugate(h, v.certificate.mobius) == v.certificate.model()


def _oracle_affine_special(p: Poly):
    """Independent low-degree decision by direct coefficient expansion."""
    d = p.deg
    a_d = p[d]
    v = (-p[d - 1]) * (a_d * d).inverse()
    results = []
    # enumerate u candidates: all (d-1)-th roots of eps/a_d and 1/a_d
    for eps, model in ((1, "power"), (-1, "neg_power"), (None, "chebyshev")):
        target = (
            Poly.x().pow(d).scale(eps)
            if eps is not None
            else chebyshev(d)
        )
        w = (
            CycNum.from_rational(eps) * a_d.inverse()
            if eps is not None
            else a_d.inverse()
        )
        roots, decisive = nth_roots_in_cyclotomic(w, d - 1)
        assert decisive
        for u in roots:
            # expand (p(u x + v) - v)/u coefficient-wise
            shifted = p.taylor_shift(v)
            conj = Poly(
                [shifted[k] * u**k * u.inverse() for k in range(d + 1)]
            ) - Poly([v * u.inverse()])
            if conj == target:
                results.append((u, v, model))
    return results


class TestCompletenessCrossCheck:
    def test_degree_at_most_4_against_oracle(self, rng):
        polys = [
            P(0, 0, 1),
            P(0, 2, 1),
            P(1, 1, 1),
            P(-2, 0, 1),
            P(0, 1, 0, 1),
            P(0, -3, 0, 1),
            P(1, -3, 0, 1),
            P(0, 0, 0, 2),
            P(2, 0, -4, 0, 1),
            P(0, 0, 1, 0, 3),
            P(1, 1, 1, 1, 1),
        ]
        for _ in range(10):
            polys.append(
                Poly(
                    [random_cycnum(rng, 4, 2) for _ in range(rng.randint(2, 4))]
                    + [CycNum.from_rational(rng.choice([1, -1, 2, 4]))]
                )
            )
        for p in polys:
            if p.deg < 2 or p.deg > 4:
                continue
            verdict = is_special(RatFunc.from_poly(p))
            oracle = _oracle_affine_special(p)
            assert verdict.status in ("special", "not_special")
            assert (verdict.status == "special") == bool(oracle), p


def _sweep_element(rng, n):
    """A nonzero element of Q(zeta_n): mostly a rational times a root of unity."""
    if rng.random() < 0.6:
        scale = Fraction(rng.choice([1, -1, 2, -3]), rng.randint(1, 2))
        return CycNum.zeta(n, rng.randrange(n)) * scale
    while True:
        coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(euler_phi(n))]
        v = CycNum(n, coords)
        if v:
            return v


def _sweep_maps(rng):
    """x^d, -x^d and T_d for d = 2..6 under affine and non-affine conjugation
    over Q and five cyclotomic fields, each also perturbed by + x, plus
    random polynomials and rational maps.

    The perturbed degree-2 non-polynomial maps come back in a second list:
    the reference's quadratic Wronskian can need a Gauss sum at a large
    prime there, which takes it minutes."""
    maps, quadratics = [], []
    for d in range(2, 7):
        for model in (Poly.x().pow(d), Poly.x().pow(d).scale(-1), chebyshev(d)):
            for n in (1, 3, 4, 5, 8, 12):
                affine = Mobius.affine(_sweep_element(rng, n), _sweep_element(rng, n))
                while True:
                    a, b, c, e = (_sweep_element(rng, n) for _ in range(4))
                    if a * e != b * c:
                        break
                for m in (affine, Mobius(a, b, c, e)):
                    h = mobius_conjugate(RatFunc.from_poly(model), m)
                    maps.append(h)
                    perturbed = RatFunc(h.num + Poly.x(), h.den)
                    (maps if h.is_poly() or d > 2 else quadratics).append(perturbed)
    for d in range(2, 7):
        maps.append(RatFunc.from_poly(random_poly(rng, d, height=3)))
        maps.append(random_ratfunc(rng, d + 1, d, height=3))
    return maps, quadratics


def _assert_certified(h, verdict):
    cert = verdict.certificate
    assert verdict.status == "special", h
    assert mobius_conjugate(h, cert.mobius) == cert.model(), h


class TestAgainstTrialComposition:
    """The closed-form conjugates give the verdicts of the trial compositions.

    The reference finds rational candidates through the Wronskian, which
    can leave a verdict unknown where the coefficient gcd of the shape
    identity pins the fixed point; there the package may answer special,
    with a certificate checked by composition."""

    def test_seeded_sweep_matches_reference(self, rng):
        seen = set()
        for h in _sweep_maps(rng)[0]:
            verdict = is_special(h)
            want = reference_is_special(h)
            if want.status == "unknown" and verdict.status != "unknown":
                _assert_certified(h, verdict)
            else:
                assert verdict.status == want.status, h
                assert verdict.certificate == want.certificate, h
                if verdict.certificate is not None:
                    _assert_certified(h, verdict)
            seen.add((verdict.status, h.is_poly()))
        layers = {(s, poly) for s in ("special", "not_special", "unknown") for poly in (True, False)}
        assert seen == layers

    def test_perturbed_quadratics_decide_quickly(self, rng):
        quadratics = _sweep_maps(rng)[1]
        assert len(quadratics) == 18
        start = time.process_time()
        for h in quadratics:
            verdict = is_special(h)
            if verdict.certificate is not None:
                _assert_certified(h, verdict)
        assert time.process_time() - start < 2

    def _compose_calls(self, monkeypatch, text):
        import cyclohouse.ratfunc as ratfunc_mod
        from cyclohouse.parser import parse_ratfunc

        h = parse_ratfunc(text)
        calls = []
        real = ratfunc_mod.compose

        def counting(h1, h2):
            calls.append(1)
            return real(h1, h2)

        monkeypatch.setattr(ratfunc_mod, "compose", counting)
        verdict = is_special(h)
        return verdict.status, len(calls)

    def test_no_composition_for_a_non_special_polynomial(self, monkeypatch):
        assert self._compose_calls(monkeypatch, "x^8 + x + 1") == ("not_special", 0)

    def test_one_check_for_a_special_polynomial(self, monkeypatch):
        status, calls = self._compose_calls(monkeypatch, "x^4 - 4*x^2 + 2")
        assert status == "special" and calls <= 2

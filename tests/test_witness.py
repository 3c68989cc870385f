import math
from fractions import Fraction

import pytest

from cyclohouse import (
    CycNum,
    DomainError,
    LaurentPoly,
    LoxtonProfile,
    Poly,
    RatFunc,
    RootOfUnity,
    SearchGrid,
    Witness,
    chebyshev,
    evaluate,
    fz_degree_cap,
    house,
    is_A_short,
    is_algebraic_integer,
    iterate_term_lower_bound,
    ratfunc_new,
    verify_fz,
    verify_specialterms,
    witness_check,
    witness_laurent,
    witness_search_deg2,
)

ONE = CycNum.one
R1 = RootOfUnity(1, 0)


def z(n, k=1):
    return CycNum.zeta(n, k)


def P(*coeffs):
    return Poly(coeffs)


def x_plus_inv():
    return LaurentPoly.x_plus_inverse_x().to_ratfunc()


class TestWitnessType:
    def test_laurent_collapse(self):
        w = Witness(((R1, ONE, 2), (R1, ONE, -2)), x_plus_inv())
        assert witness_laurent(w) == LaurentPoly([(2, 1), (-2, 1)])

    def test_repetition_collapses(self):
        w = Witness(((R1, ONE, 1), (R1, ONE, 1)), RatFunc.x())
        assert witness_laurent(w) == LaurentPoly([(1, 2)])

    def test_constant_sum_rejected(self):
        with pytest.raises(DomainError):
            Witness(
                ((RootOfUnity(3, 1), ONE, 0), (RootOfUnity(3, 2), ONE, 0)),
                RatFunc.x(),
            )

    def test_constant_inner_map_rejected(self):
        with pytest.raises(DomainError):
            Witness(((R1, ONE, 1),), RatFunc.const(3))

    def test_empty_terms_rejected(self):
        with pytest.raises(DomainError):
            Witness((), RatFunc.x())


class TestWitnessCheck:
    def test_chebyshev_identity(self):
        w = Witness(((R1, ONE, 2), (R1, ONE, -2)), x_plus_inv())
        assert witness_check(RatFunc.from_poly(P(-2, 0, 1)), w)

    def test_monomial_identity(self):
        w = Witness(((R1, ONE, 3),), RatFunc.x())
        assert witness_check(RatFunc.from_poly(P(0, 0, 0, 1)), w)

    def test_unit_split_coefficients(self):
        # (x+1)^2 = x^2 + 2x + 1 with 2x written as x + x
        w = Witness(
            ((R1, ONE, 2), (R1, ONE, 1), (R1, ONE, 1), (R1, ONE, 0)),
            RatFunc.from_poly(P(1, 1)),
        )
        assert witness_check(RatFunc.from_poly(P(0, 0, 1)), w)

    def test_wrong_identity_fails(self):
        w = Witness(((R1, ONE, 2),), RatFunc.x())
        assert not witness_check(RatFunc.from_poly(P(1, 0, 1)), w)


class TestAShort:
    def test_within_budget(self):
        w = Witness(((R1, ONE, 2), (R1, ONE, -2)), x_plus_inv())
        assert is_A_short(w, 1, LoxtonProfile.default(4))

    def test_beyond_budget(self):
        w = Witness(tuple((R1, ONE, k) for k in range(1, 6)), RatFunc.x())
        assert not is_A_short(w, 1, LoxtonProfile.default(4))

    def test_empty_budget_always_false(self):
        w = Witness(((R1, ONE, 2),), RatFunc.x())
        assert not is_A_short(w, 1, LoxtonProfile.empty())

    def test_coefficient_outside_E_rejected(self):
        w = Witness(((R1, CycNum.from_rational(2), 1),), RatFunc.x())
        with pytest.raises(DomainError):
            is_A_short(w, 1, LoxtonProfile.default(4))


class TestSearch:
    def test_chebyshev_family(self):
        for d in range(2, 9):
            h = RatFunc.from_poly(chebyshev(d))
            w = witness_search_deg2(h, 2)
            assert w is not None
            assert witness_check(h, w)
            assert witness_laurent(w) == LaurentPoly([(d, 1), (-d, 1)])

    def test_monomials_use_identity_map(self):
        for m in range(1, 11):
            h = RatFunc.from_poly(Poly([0] * m + [1]))
            w = witness_search_deg2(h, 1)
            assert w is not None and w.S == RatFunc.x()
            assert witness_check(h, w)

    def test_unit_coefficient_laurent_is_own_witness(self):
        # x^3 + x has all-unit coefficients: S = x qualifies
        h = RatFunc.from_poly(P(0, 1, 0, 1))
        w = witness_search_deg2(h, 3)
        assert w is not None and w.S == RatFunc.x() and w.term_count() == 2

    def test_exhaustion_returns_none(self):
        assert witness_search_deg2(RatFunc.from_poly(P(0, 1, 0, 1)), 1) is None

    def test_special_shift_found_off_grid(self):
        # x^2 + 2x -> S = x - 1 via the certificate route
        h = RatFunc.from_poly(P(0, 2, 1))
        w = witness_search_deg2(h, 2)
        assert w is not None and witness_check(h, w)

    def test_nonpoly_single_pole(self):
        # h = 1/x^2: S = x gives x^-2, a one-term witness
        h = ratfunc_new(P(1), P(0, 0, 1))
        w = witness_search_deg2(h, 1)
        assert w is not None and witness_check(h, w)

    def test_two_finite_poles_none(self):
        h = ratfunc_new(P(1), P(2, -3, 1))  # poles at 1 and 2
        assert witness_search_deg2(h, 4) is None

    def test_results_deterministic(self):
        h = RatFunc.from_poly(chebyshev(5))
        w1 = witness_search_deg2(h, 2)
        w2 = witness_search_deg2(h, 2)
        assert w1 == w2

    def test_invalid_budget(self):
        with pytest.raises(DomainError):
            witness_search_deg2(RatFunc.x(), 0)

    def test_found_witnesses_give_bounded_house_values(self):
        # specializing x to roots of unity yields integral values with
        # house at most the number of terms
        h = RatFunc.from_poly(chebyshev(4))
        w = witness_search_deg2(h, 2)
        d = w.term_count()
        bound_slack = Fraction(1, 2**20)
        for order in range(1, 21):
            for k in range(order):
                if order > 1 and math.gcd(k, order) != 1:
                    continue
                xi = z(order, k)
                inner = evaluate(w.S, xi)
                if inner is None:
                    continue
                value = evaluate(h, inner)
                assert value is not None
                assert is_algebraic_integer(value)
                if value:
                    assert house(value).upper <= d + bound_slack


class TestGrid:
    def test_entries_deterministic_and_bounded(self):
        grid = SearchGrid(rou_order_cap=6, rational_height_cap=3)
        entries = grid.entries()
        assert entries == grid.entries()
        rationals = [e.rational for e in entries if e.rational is not None]
        assert all(
            abs(q.numerator) <= 3 and q.denominator <= 3 for q in rationals
        )
        rous = [e.rou for e in entries if e.rou is not None]
        assert all(order <= 6 for order, _ in rous)


class TestCaps:
    @pytest.mark.parametrize(
        "l,expected",
        [
            (1, (10080, 0)),
            (2, (50400, 6)),
            (3, (252000, 20)),
            (4, (1260000, 42)),
            (5, (6300000, 72)),
            (6, (31500000, 110)),
        ],
    )
    def test_fz_degree_cap_hand_arithmetic(self, l, expected):
        assert fz_degree_cap(l) == expected

    def test_caps_monotone(self):
        prev = fz_degree_cap(1)
        for l in range(2, 10):
            cur = fz_degree_cap(l)
            assert cur[0] > prev[0] and cur[1] >= prev[1]
            prev = cur

    def test_term_lower_bound_values(self):
        assert abs(iterate_term_lower_bound(3, 9) - 0.0506) < 1e-3
        assert abs(iterate_term_lower_bound(5, 7) - 0.2723) < 1e-3
        assert iterate_term_lower_bound(3, 3) < 0

    def test_term_lower_bound_monotone(self):
        for d in range(3, 7):
            for n in range(3, 8):
                assert iterate_term_lower_bound(d, n) <= iterate_term_lower_bound(
                    d + 1, n
                )
                assert iterate_term_lower_bound(d, n) <= iterate_term_lower_bound(
                    d, n + 1
                )

    def test_term_lower_bound_domain(self):
        with pytest.raises(DomainError):
            iterate_term_lower_bound(2, 5)
        with pytest.raises(DomainError):
            iterate_term_lower_bound(3, 2)


class TestSpecialTerms:
    def test_bound_holds_is_the_integer_comparison(self):
        h = RatFunc.from_poly(P(0, 1, 0, 1))
        rep = verify_specialterms(h, RatFunc.from_poly(P(0, 1, 1)), 3)
        assert rep.bound_holds == (
            2016 * 5**rep.composition_terms >= rep.degree_h ** (rep.iterations - 2)
        )

    @pytest.mark.parametrize("terms", [0, 1, 2])
    def test_bound_holds_decided_exactly(self, monkeypatch, terms):
        # d = 3, n = 9: d^(n-2) = 2187 lies between 2016 * 5^0 and 2016 * 5^1
        import cyclohouse.witness as witness_mod

        monkeypatch.setattr(witness_mod, "iterate", lambda h, n: h)
        monkeypatch.setattr(witness_mod, "term_count", lambda p: terms)
        h = RatFunc.from_poly(P(0, 1, 0, 1))
        rep = verify_specialterms(h, RatFunc.from_poly(P(0, 1, 1)), 9)
        assert rep.bound_holds == (2016 * 5**terms >= 3**7)
        assert rep.bound_holds == (terms >= 1)
        assert rep.lower_bound == iterate_term_lower_bound(3, 9)


class TestVerifyFZ:
    def test_generic_pair(self):
        rep = verify_fz(
            RatFunc.from_poly(P(0, 1, 0, 1)), RatFunc.from_poly(P(0, 1, 1))
        )
        assert rep.ok()
        assert not rep.q_binomial_shaped
        assert rep.rational_branch_checked and rep.rational_bound_holds
        assert rep.laurent_branch_checked and rep.laurent_bound_holds

    def test_binomial_shaped_inner_marks_inapplicable(self):
        rep = verify_fz(
            RatFunc.from_poly(P(0, 1, 0, 1)), RatFunc.from_poly(P(1, 1))
        )
        assert rep.q_binomial_shaped and not rep.rational_branch_checked
        assert rep.ok()

    def test_trinomial_shaped_inner_skips_laurent_branch(self):
        q = LaurentPoly([(1, 1), (0, 1), (-1, 1)]).to_ratfunc()
        rep = verify_fz(RatFunc.from_poly(P(0, 0, 1)), q)
        assert rep.q_trinomial_shaped is True
        assert not rep.laurent_branch_checked

    def test_constant_inner_rejected(self):
        with pytest.raises(DomainError):
            verify_fz(RatFunc.from_poly(P(0, 0, 1)), RatFunc.const(3))


class TestVerifySpecialTerms:
    def test_cubic_example(self):
        rep = verify_specialterms(
            RatFunc.from_poly(P(0, 1, 0, 1)), RatFunc.from_poly(P(0, 1, 1)), 3
        )
        assert rep.bound_holds
        assert rep.composition_terms >= 1

    def test_special_h_rejected(self):
        with pytest.raises(DomainError):
            verify_specialterms(
                RatFunc.from_poly(chebyshev(3)), RatFunc.from_poly(P(0, 1, 1)), 3
            )

    def test_degree_precondition(self):
        with pytest.raises(DomainError):
            verify_specialterms(
                RatFunc.from_poly(P(0, 0, 1)), RatFunc.from_poly(P(0, 1, 1)), 3
            )

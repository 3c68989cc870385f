import contextlib
import io
import json
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
    LaurentPoly,
    LoxtonProfile,
    Poly,
    RatFunc,
    RootOfUnity,
    SearchGrid,
    Witness,
    avoidance_verdict,
    chebyshev,
    compose,
    degree,
    evaluate,
    fz_degree_cap,
    house,
    is_A_short,
    is_algebraic_integer,
    iterate_term_lower_bound,
    parse_ratfunc,
    ratfunc_new,
    to_laurent,
    verify_fz,
    verify_specialterms,
    witness_check,
    witness_laurent,
    witness_search_deg2,
)
from cyclohouse.cli import main
from cyclohouse.cyclotomic import _is_prime, _screen_field
from cyclohouse.witness import (
    _ZERO_VALUE,
    _identity_candidate,
    _ModularScreen,
    _pole_laurent,
    _targeted_candidates,
    _try_inner_map,
)

from .conftest import random_cycnum, random_poly
from .util import empty_profile

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
        assert not is_A_short(w, 1, empty_profile())

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

    def test_entries_built_once_per_grid(self):
        assert SearchGrid().entries() is SearchGrid().entries()
        assert all(gv.value == CycNum.zeta(*gv.rou) for gv in SearchGrid().entries() if gv.rou)

    @pytest.mark.parametrize("grid", [SearchGrid(), SearchGrid(6, 3), SearchGrid(1, 1)])
    def test_each_value_listed_once(self, grid):
        # -1 is the root of unity (2, 1), not also the rational -1
        entries = grid.entries()
        assert len({gv.value for gv in entries}) == len(entries)


HALF_SHIFT = RatFunc.from_poly(P(Fraction(-1, 2), Fraction(1, 2)))


class TestAffineNextToLead:
    """The x^(d-1) coefficient of h(a x + b) is p_(d-1)(b) a^(d-1), where
    p_(d-1)(b) = d h_d b + h_(d-1): with a = 1/2 it depends on a."""

    H = "(2*x+1)^3 + (2*x+1)^2"

    def test_library_finds_half_shift(self):
        h = parse_ratfunc(self.H)
        w = witness_search_deg2(h, 3)
        assert w is not None and w.S == HALF_SHIFT
        assert witness_check(h, w)
        assert witness_laurent(w) == LaurentPoly([(3, 1), (2, 1)])

    def test_cli_finds_half_shift(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["witness-search", self.H, "--dmax", "3"])
        assert code == 0
        doc = json.loads(buf.getvalue())
        assert doc["witness"]["S"] == "1/2*x - 1/2"
        assert [t["n"] for t in doc["witness"]["terms"]] == [3, 2]

    @pytest.mark.parametrize("budget", [2, 3])
    def test_degree_50_verdict_finds_the_witness(self, budget):
        # degree 50 clears the threshold: a miss here would be reported
        # as a shape-complete search
        h = parse_ratfunc("(2*x+1)^50 + (2*x+1)^49")
        verdict = avoidance_verdict(h, 2, LoxtonProfile.default(budget))
        assert verdict.kind == "witness_found"
        assert verdict.witness.S == HALF_SHIFT
        assert witness_check(h, verdict.witness)
        assert "search_shape_complete" not in verdict.diagnostics


def _chebyshev_ints(d):
    """T_d from T_(k+1) = x T_k - T_(k-1) on integer lists (T_0 = 2)."""
    prev, cur = [2], [0, 1]
    for _ in range(d - 1):
        prev, cur = cur, [a - b for a, b in zip([0, *cur], prev + [0, 0])]
    return Poly(cur)


def test_chebyshev_is_built_on_integers():
    chebyshev.cache_clear()
    start = time.process_time()
    t120 = chebyshev(120)
    assert time.process_time() - start < 0.05
    assert t120 == _chebyshev_ints(120)


class TestScreenField:
    def test_default_grid_field_is_unchanged(self):
        # N = lcm(2, 1..12), 2N and 13N: fields the default grid screens in
        assert _screen_field(27720) == (16936921, 7054944)
        assert _screen_field(55440) == (17075521, 14303671)
        assert _screen_field(360360) == (16936921, 16368869)

    def test_primality_test(self):
        from cyclohouse.cyclotomic import factorize

        assert all(_is_prime(n) == (factorize(n) == ((n, 1),)) for n in range(1, 5000))
        # strong pseudoprimes to the first 4, 9 and 12 prime bases
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not _is_prime(n)
        assert _is_prime(2**61 - 1) and _is_prime(2**89 - 1)

    def test_grid_40_answers(self):
        buf = io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(buf):
            code = main(["witness-search", "x^3 + 2*x + 5", "--dmax", "2", "--gridM", "40"])
        assert time.process_time() - start < 5
        assert code == 0 and json.loads(buf.getvalue()) == {"witness": None}

    def test_grid_60_is_a_resource_error(self):
        # lcm(1..60) is past the bound of the deterministic primality test
        buf = io.StringIO()
        start = time.process_time()
        with contextlib.redirect_stdout(buf):
            code = main(["witness-search", "x^3 + 2*x + 5", "--dmax", "2", "--gridM", "60"])
        assert time.process_time() - start < 1
        assert code == 3
        assert json.loads(buf.getvalue())["error"]["type"] == "resource"


class TestModularScreen:
    def test_t120_keeps_x_plus_inverse_x(self):
        # T_120(x + 1/x) = x^120 + x^-120; the coefficients of T_120 reach
        # about 2^80 and cancel, which defeats a float screen
        assert _chebyshev_ints(8) == chebyshev(8)
        screen = _ModularScreen(_chebyshev_ints(120), SearchGrid())
        one = screen.powers(ONE)
        assert screen.keeps(one, screen.taylor(CycNum.zero), one, 2, 2)
        # x + 1 + 1/x is no witness: the x^118 coefficient is 7140
        assert not screen.keeps(one, screen.taylor(ONE), one, 2, 2)

    def test_walk_below_the_next_to_lead_coefficient(self):
        # x^d and x^(d-1) are tested before the screen; the walk starts at x^(d-2)
        screen = _ModularScreen(P(1, 2, 1, 1), SearchGrid())
        one, zero = screen.powers(ONE), screen.powers(CycNum.zero)
        # x^3 + x^2 + 2x + 1 at S = x: x^1 has the nonunit 2
        assert not screen.keeps(one, screen.taylor(CycNum.zero), zero, 2, 4)
        # x^3 + x^2 + x + 1 at S = x: four unit terms, over a budget of 3
        screen = _ModularScreen(P(1, 1, 1, 1), SearchGrid())
        one, zero = screen.powers(ONE), screen.powers(CycNum.zero)
        assert screen.keeps(one, screen.taylor(CycNum.zero), zero, 2, 4)
        assert not screen.keeps(one, screen.taylor(CycNum.zero), zero, 2, 3)
        # (x + 1)^2 at S = x - 1 is x^2, one term
        screen = _ModularScreen(P(1, 2, 1), SearchGrid())
        one, zero = screen.powers(ONE), screen.powers(CycNum.zero)
        assert screen.keeps(one, screen.taylor(-ONE), zero, 2, 1)


_GRID = SearchGrid().entries()
_ROOTS = [gv for gv in _GRID if gv.rou is not None]


@st.composite
def planted_witnesses(draw):
    """h = g o S^-1 with S = a x + b or a x + b + a/x on the default grid,
    g a sum of at most two roots of unity times powers of x (for the
    quadratic S, of x^n + x^-n), and the term count of g."""
    a = draw(st.sampled_from(_GRID)).value
    b = draw(st.sampled_from((_ZERO_VALUE, *_GRID))).value
    quadratic = draw(st.booleans())
    low = 1 if quadratic else -3
    exps = draw(
        st.lists(st.integers(low, 5).filter(bool), min_size=1, max_size=2, unique=True)
    )
    betas = [draw(st.sampled_from(_ROOTS)).value for _ in exps]
    inverse = RatFunc.from_poly(Poly([-b * a.inverse(), a.inverse()]))
    if quadratic:
        g = Poly()
        for n, beta in zip(exps, betas):
            g = g + chebyshev(n).scale(beta)
        return compose(RatFunc.from_poly(g), inverse), (a, b, a), 2 * len(exps)
    g = LaurentPoly(list(zip(exps, betas))).to_ratfunc()
    return compose(g, inverse), (a, b, CycNum.zero), len(exps)


class TestPlantedWitnesses:
    @given(planted_witnesses())
    @settings(max_examples=40)
    def test_search_finds_a_planted_witness(self, planted):
        h, (a, b, c), d_max = planted
        w = witness_search_deg2(h, d_max)
        assert w is not None
        assert witness_check(h, w) and w.term_count() <= d_max
        if h.is_poly() and degree(h) >= 2:
            screen = _ModularScreen(h.num, SearchGrid())
            order = math.lcm(screen.order, a.n, b.n, c.n)
            assert screen.keeps(
                screen.powers(a), screen.taylor(b), screen.powers(c), order, d_max
            )


def _compose_order_search(h, d_max, gamma):
    """The search order with one compose per map, a x + gamma before
    gamma + a/x at each grid value: the oracle for pole matching."""
    for s_map in _identity_candidate() + _targeted_candidates(h):
        w = _try_inner_map(h, s_map, d_max)
        if w is not None:
            return w
    for gv in _GRID:
        for s_map in (
            RatFunc.from_poly(Poly([gamma, gv.value])),
            RatFunc(Poly([gv.value, gamma]), Poly.x()),
        ):
            w = _try_inner_map(h, s_map, d_max)
            if w is not None:
                return w
    return None


class TestPoleMatching:
    @pytest.mark.parametrize("seed", range(3))
    def test_taylor_laurent_matches_compose(self, seed):
        rng = random.Random(seed)
        gamma = random_cycnum(rng, max_conductor=4, height=3)
        num = random_poly(rng, rng.randint(0, 4), max_conductor=4, height=3)
        if not num.evaluate(gamma):
            num = num + Poly([1])
        e = rng.randint(1, 3)
        h = ratfunc_new(num, Poly([-gamma, 1]).pow(e))
        shifted = h.num.taylor_shift(gamma)
        for gv in _GRID:
            a = gv.value
            lp = _pole_laurent(shifted, e, a)
            assert lp == to_laurent(compose(h, RatFunc.from_poly(Poly([gamma, a]))))
            mirrored = to_laurent(compose(h, RatFunc(Poly([a, gamma]), Poly.x())))
            assert mirrored == LaurentPoly([(-k, c) for k, c in lp.terms])

    def test_one_inverse_per_grid_value(self, monkeypatch):
        inverted = []
        inverse = CycNum.inverse

        def counted(self):
            inverted.append(self)
            return inverse(self)

        shifted = P(2, z(3), Fraction(1, 5), 0, 7)  # c_0, c_1 and c_2 nonzero
        a = CycNum.from_rational(Fraction(3, 2))
        monkeypatch.setattr(CycNum, "inverse", counted)
        lp = _pole_laurent(shifted, 3, a)
        monkeypatch.undo()
        assert len(inverted) <= 1
        assert lp == LaurentPoly(
            [(k - 3, c * a ** (k - 3)) for k, c in enumerate(shifted.coeffs)]
        )

    @pytest.mark.parametrize(
        "text,d_max",
        [
            ("1/(x - 1)^2", 1),
            ("1/(2*x - 1)^2 + z3*(2*x - 1)^3/8", 2),
            ("z5/(x - z3)^3 + (x - z3)/z4", 2),
            ("(3*x + 1)^2/(x + 1/2)", 3),
        ],
    )
    def test_first_witness_is_the_compose_order_one(self, text, d_max):
        h = parse_ratfunc(text)
        gamma = -h.den[h.den.deg - 1] * CycNum.from_rational(Fraction(1, h.den.deg))
        w = witness_search_deg2(h, d_max)
        assert w == _compose_order_search(h, d_max, gamma)


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

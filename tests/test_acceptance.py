"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here, not deferred: the Kronecker sweep runs
the full corpus of short root-of-unity sums under a 2-minute budget,
the house anchor demands a 1e-10-tight enclosure at 128-bit accuracy,
and the algebraic identities are checked exactly (no tolerance at all).
"""

import io
import itertools
import math
import random
import time
import contextlib
from fractions import Fraction

from cyclohouse import (
    CycNum,
    LaurentPoly,
    LoxtonProfile,
    Poly,
    RatFunc,
    chebyshev,
    compose,
    degree,
    distinct_pole_count,
    evaluate,
    format_value,
    fz_degree_cap,
    house,
    is_algebraic_integer,
    is_binomial_shape,
    is_root_of_unity,
    is_trinomial_shape,
    monic_normalize,
    parse_ratfunc,
    ratfunc_new,
    substitute_poly_laurent,
    to_laurent,
    verify_fz,
    verify_orbit_lemma,
    verify_specialterms,
    witness_check,
    witness_laurent,
    witness_search_deg2,
)
from cyclohouse.avoidance import avoidance_verdict
from cyclohouse.cli import main as cli_main

from .conftest import random_ratfunc
from .test_avoidance import _check_escape, _lemma_corpus, _normalization_corpus


def z(n, k=1):
    return CycNum.zeta(n, k)


def P(*coeffs):
    return Poly(coeffs)


def _report(k, message):
    print(f"[ACCEPTANCE] criterion {k}: PASS - {message}")


def test_criterion_01_kronecker_suite():
    """P_1 equals the roots of unity over all short sums, exactly."""
    start = time.time()
    roots = [
        z(m, k)
        for m in range(1, 11)
        for k in range(m)
        if (m == 1 and k == 0) or (m > 1 and math.gcd(k, m) == 1)
    ]
    assert len(roots) == 32
    elements = list(roots)
    for a, b in itertools.combinations_with_replacement(roots, 2):
        elements.append(a + b)
    for a, b, c in itertools.combinations_with_replacement(roots, 3):
        elements.append(a + b + c)
    assert len(elements) > 6000
    threshold = 1 + Fraction(1, 2**30)
    discrepancies = 0
    checked = 0
    for a in elements:
        if not a:
            continue  # 0 is integral with house 0; the torsion statement is about nonzero values
        exact = is_root_of_unity(a) is not None
        analytic = is_algebraic_integer(a) and house(a, 64).upper <= threshold
        if exact != analytic:
            discrepancies += 1
        checked += 1
    elapsed = time.time() - start
    assert discrepancies == 0
    assert elapsed < 120, f"Kronecker sweep took {elapsed:.1f}s"
    _report(1, f"{checked} elements, 0 discrepancies, {elapsed:.1f}s")


def test_criterion_02_chebyshev_identity():
    arg = LaurentPoly.x_plus_inverse_x()
    for d in range(1, 17):
        assert substitute_poly_laurent(chebyshev(d), arg) == LaurentPoly(
            [(d, 1), (-d, 1)]
        )
    _report(2, "T_d(x + 1/x) = x^d + x^-d exactly for d = 1..16")


def test_criterion_03_degree_law():
    rng = random.Random(31415926)
    checked = 0
    while checked < 200:
        h1 = random_ratfunc(
            rng, rng.randint(1, 3), rng.randint(0, 2), max_conductor=12, height=4
        )
        h2 = random_ratfunc(
            rng, rng.randint(1, 2), rng.randint(0, 1), max_conductor=12, height=4
        )
        if degree(h1) == 0 or degree(h2) == 0:
            continue
        assert degree(compose(h1, h2)) == degree(h1) * degree(h2)
        checked += 1
    _report(3, "deg(h1 o h2) = deg h1 * deg h2 on 200 random exact pairs")


def test_criterion_04_house_anchor():
    golden_lo = Fraction("1.61803398874989484820458683436")
    golden_hi = Fraction("1.61803398874989484820458683437")
    hr = house(CycNum.from_rational(1) + z(5), 128)
    assert hr.lower <= golden_hi and golden_lo <= hr.upper
    width = hr.upper - hr.lower
    assert width <= Fraction(1, 10**10)
    _report(4, f"house(1+z5) enclosed to width {float(width):.2e} <= 1e-10")


def test_criterion_05_monic_normalization():
    corpus = _normalization_corpus()
    assert len(corpus) >= 50
    for h in corpus:
        norm = monic_normalize(h)
        c, c_inv = norm.c, norm.c.inverse()
        scale = RatFunc.from_poly(Poly([CycNum.zero, c]))
        unscale = RatFunc.from_poly(Poly([CycNum.zero, c_inv]))
        assert compose(unscale, compose(norm.h_tilde, scale)) == h
        values = [c_inv]
        for poly in (norm.h_tilde.num, norm.h_tilde.den):
            values.extend(c_inv * coeff for coeff in poly.coeffs if coeff)
        d_scale = CycNum.from_rational(norm.D)
        assert all(is_algebraic_integer(d_scale * v) for v in values)
        for p in {f for f in range(2, norm.D + 1) if norm.D % f == 0 and _is_prime(f)}:
            partial = CycNum.from_rational(Fraction(norm.D, p))
            assert not all(is_algebraic_integer(partial * v) for v in values)
    worked = monic_normalize(ratfunc_new(P(0, 0, 0, 2), P(1, 1)))
    assert worked.c == CycNum.from_rational(2)
    assert worked.h_tilde == ratfunc_new(P(0, 0, 0, 1), P(2, 1))
    assert worked.D == 2
    _report(5, f"{len(corpus)} normalizations exact; worked example (2, y^3/(y+2), 2)")


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_criterion_06_escape_radius():
    corpus = _normalization_corpus()
    for h in corpus:
        norm = monic_normalize(h)
        _check_escape(norm, samples=16)
        _check_strict_growth(norm)
    _report(6, f"escape radius verified on {len(corpus)} models, 0 violations")


def _check_strict_growth(norm, steps=5):
    from .util import embedding_abs_squared

    ht = norm.h_tilde
    v = CycNum.from_rational(norm.R + 1)
    prev = embedding_abs_squared(v, 1)
    for _ in range(steps):
        nxt = evaluate(ht, v)
        assert nxt is not None
        cur = embedding_abs_squared(nxt, 1)
        assert cur.lo > prev.hi, "modulus failed to grow strictly"
        v, prev = nxt, cur


def test_criterion_07_orbit_lemma_harness():
    violations = 0
    premises_held = 0
    for h, a, n, big_a in _lemma_corpus():
        report = verify_orbit_lemma(h, a, n, big_a)
        if report.premise_house_holds or report.premise_integral_holds:
            premises_held += 1
        violations += len(report.counterexamples)
    assert premises_held > 0
    assert violations == 0
    _report(7, f"{premises_held} orbits with premises held, 0 counterexamples")


def test_criterion_08_witness_suite():
    for d in range(2, 9):
        h = RatFunc.from_poly(chebyshev(d))
        w = witness_search_deg2(h, 2)
        assert w is not None
        assert witness_check(h, w)
        assert w.S == parse_ratfunc("x + x^-1")
        assert witness_laurent(w) == LaurentPoly([(d, 1), (-d, 1)])
    for m in range(1, 11):
        h = RatFunc.from_poly(Poly([0] * m + [1]))
        w = witness_search_deg2(h, 1)
        assert w is not None and w.S == RatFunc.x()
        assert witness_check(h, w)
    _report(8, "S = x + 1/x recovered for T_2..T_8; S = x for x^m, m <= 10")


def test_criterion_09_pole_corollary():
    many_pole_hs = []
    for r in (2, 3, 5, Fraction(1, 2)):
        many_pole_hs.append(ratfunc_new(P(1), Poly([0, -r, 0, 1])))  # x(x^2 - r)
        many_pole_hs.append(ratfunc_new(P(0, 1), Poly([r, 0, 0, 1])))
    many_pole_hs.append(ratfunc_new(P(1), P(0, -1, 0, 1)))
    many_pole_hs.append(ratfunc_new(P(1), Poly([0, 0, 0, 0, 1]) - Poly([1])))  # x^4 - 1
    many_pole_hs.append(ratfunc_new(P(0, 0, 0, 0, 1), P(0, -1, 0, 1)))  # + infinity
    many_pole_hs.append(ratfunc_new(P(1), Poly([0, 2, -3, 1])))
    many_pole_hs.append(ratfunc_new(P(1, 1), Poly([0, -4, 0, 1])))
    many_pole_hs.append(ratfunc_new(P(1), Poly([0, 1, 0, 0, 1])))
    many_pole_hs.append(ratfunc_new(P(3), Poly([-6, 11, -6, 1])))
    many_pole_hs.append(ratfunc_new(P(0, 0, 0, 0, 0, 1), Poly([2, -3, 0, 1])))
    many_pole_hs.append(ratfunc_new(P(1), Poly([0, CycNum.zeta(3), 0, 1])))
    many_pole_hs.append(ratfunc_new(P(1, 0, 1), Poly([0, -9, 0, 1])))
    many_pole_hs.append(ratfunc_new(P(5), Poly([1, 0, 0, 0, -1]).scale(-1)))
    many_pole_hs.append(ratfunc_new(P(0, 0, 1), Poly([0, -16, 0, 0, 1])))
    assert len(many_pole_hs) >= 20
    profile = LoxtonProfile.default(5)
    for h in many_pole_hs:
        assert distinct_pole_count(h) > 2
        verdict = avoidance_verdict(h, 7, profile)
        assert verdict.kind == "certified_avoiding"

    witness_bearing = [RatFunc.from_poly(chebyshev(d)) for d in range(2, 9)]
    witness_bearing += [
        RatFunc.from_poly(Poly([0] * m + [1])) for m in range(2, 11)
    ]
    witness_bearing.append(RatFunc.from_poly(P(-2, 0, 1)))
    witness_bearing.append(RatFunc.from_poly(P(0, 2, 1)))
    for h in witness_bearing:
        verdict = avoidance_verdict(h, 2, LoxtonProfile.default(2))
        assert verdict.kind != "certified_avoiding"
        assert verdict.kind == "witness_found"
        assert witness_check(h, verdict.witness)
    _report(
        9,
        f"{len(many_pole_hs)} multi-pole certificates; "
        f"{len(witness_bearing)} witness-bearing maps never certified avoiding",
    )


def test_criterion_10_composition_term_bounds():
    hand = {
        1: (10080, 0),
        2: (50400, 6),
        3: (252000, 20),
        4: (1260000, 42),
        5: (6300000, 72),
        6: (31500000, 110),
    }
    for l, expected in hand.items():
        assert fz_degree_cap(l) == expected

    rng = random.Random(2718281828)
    violations = 0
    fz_cases = []
    inner_maps = [
        RatFunc.from_poly(P(0, 1, 1)),
        RatFunc.from_poly(P(1, 0, 1)),
        RatFunc.from_poly(P(0, 2, 0, 1)),
        LaurentPoly([(1, 1), (-1, 2)]).to_ratfunc(),
        ratfunc_new(P(1, 1), P(0, 1)),
    ]
    outer_maps = [
        RatFunc.from_poly(P(0, 1, 0, 1)),
        RatFunc.from_poly(P(1, 1, 1)),
        RatFunc.from_poly(P(0, 0, 1, 1)),
        RatFunc.from_poly(P(-1, 0, 0, 0, 1)),
        ratfunc_new(P(0, 0, 0, 1), P(1, 1)),
    ]
    for h in outer_maps:
        for q in inner_maps:
            fz_cases.append((h, q))
    for _ in range(5):
        fz_cases.append(
            (
                random_ratfunc(rng, rng.randint(2, 4), 0, max_conductor=4, height=3),
                random_ratfunc(rng, 2, 0, max_conductor=4, height=3),
            )
        )
    checked = 0
    for h, q in fz_cases:
        if degree(q) == 0 or degree(h) == 0:
            continue
        report = verify_fz(h, q)
        violations += len(report.violations)
        checked += 1

    st_cases = [
        (RatFunc.from_poly(P(0, 1, 0, 1)), RatFunc.from_poly(P(0, 1, 1)), 3),
        (RatFunc.from_poly(P(0, 1, 0, 1)), RatFunc.from_poly(P(1, 0, 1)), 3),
        (RatFunc.from_poly(P(0, 1, 0, 1)), RatFunc.from_poly(P(0, 1, 1)), 4),
        (RatFunc.from_poly(P(1, 1, 0, 1)), RatFunc.from_poly(P(0, 1, 1)), 3),
        (RatFunc.from_poly(P(1, 0, 1, 1)), RatFunc.from_poly(P(0, 2, 1)), 3),
        (RatFunc.from_poly(P(0, 1, 1, 0, 1)), RatFunc.from_poly(P(0, 1, 1)), 3),
        (RatFunc.from_poly(P(0, 0, 1, 1)), LaurentPoly([(1, 1), (-1, 2)]).to_ratfunc(), 3),
        (RatFunc.from_poly(P(2, 1, 0, 1)), RatFunc.from_poly(P(1, 1, 1)), 3),
    ]
    for h, q, n in st_cases:
        report = verify_specialterms(h, q, n)
        if not report.bound_holds:
            violations += 1
        assert report.composition_terms >= 1
        checked += 1
    assert checked >= 30
    assert violations == 0

    assert is_binomial_shape(RatFunc.from_poly(P(1, 1))) is not None
    assert is_binomial_shape(RatFunc.from_poly(P(0, 1, 1))) is None
    assert is_trinomial_shape(to_laurent(RatFunc.from_poly(P(1, 1)))) is not None
    assert (
        is_trinomial_shape(to_laurent(RatFunc.from_poly(P(0, 1, 1)))) is None
    )
    _report(10, f"caps match hand arithmetic; {checked} expansions, 0 violations")


def test_criterion_11_parser_and_cli(monkeypatch):
    from .test_parser import _random_expr
    from .test_cli import CASES, apply_case

    rng = random.Random(55555)
    checked = 0
    while checked < 500:
        text = _random_expr(rng, rng.randint(1, 3))
        try:
            value = parse_ratfunc(text)
        except Exception:
            continue
        rendered = format_value(value)
        assert parse_ratfunc(rendered) == value
        assert format_value(parse_ratfunc(rendered)) == rendered
        checked += 1

    byte_identical = 0
    for name in sorted(CASES):
        outs = []
        with monkeypatch.context() as mp:
            argv, expected_code = apply_case(name, mp)
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli_main(argv)
                assert code == expected_code
                outs.append(buf.getvalue())
        assert outs[0] == outs[1]
        byte_identical += 1
    _report(
        11,
        f"500 fuzz round trips; {byte_identical} commands byte-identical across runs",
    )

"""LaurentPoly (x^low times a Poly) against the exponent-dict reference."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclohouse import (
    CycNum,
    LaurentPoly,
    Poly,
    RatFunc,
    compose,
    substitute_poly_laurent,
    to_laurent,
)
from cyclohouse.cyclotomic import euler_phi

from . import laurent_reference as ref


@st.composite
def coefficients(draw):
    n = draw(st.sampled_from([1, 3, 4, 5]))
    coords = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            min_size=euler_phi(n),
            max_size=euler_phi(n),
        )
    )
    return CycNum(n, coords)


@st.composite
def laurent_pairs(draw):
    """Sparse (exponent, coefficient) pairs in [-6, 6]; some pairs cancel others."""
    pairs = draw(st.lists(st.tuples(st.integers(-6, 6), coefficients()), max_size=5))
    if pairs:
        pairs += [(e, -c) for e, c in draw(st.lists(st.sampled_from(pairs), max_size=5))]
    return pairs


def _agrees(lp: LaurentPoly, expected: dict) -> bool:
    """lp has the reference's terms, and its derived queries agree with them."""
    return (
        lp.terms == ref.terms(expected)
        and lp.num_terms() == len(expected)
        and lp.is_zero() == (not expected)
        and lp.is_constant() == all(e == 0 for e in expected)
        and all(lp.coefficient(e) == expected.get(e, CycNum.zero) for e in range(-13, 14))
        and to_laurent(lp.to_ratfunc()) == lp
    )


class TestAgainstReference:
    @given(laurent_pairs())
    @settings(max_examples=60)
    def test_construction(self, pairs):
        expected = ref.collect(pairs)
        assert _agrees(LaurentPoly(pairs), expected)
        assert LaurentPoly(dict(pairs)) == LaurentPoly(list(dict(pairs).items()))

    @given(laurent_pairs(), laurent_pairs())
    @settings(max_examples=60)
    def test_sum_difference_product(self, p, q):
        a, b = LaurentPoly(p), LaurentPoly(q)
        ra, rb = ref.collect(p), ref.collect(q)
        assert _agrees(a + b, ref.add(ra, rb))
        assert _agrees(a - b, ref.add(ra, ref.neg(rb)))
        assert _agrees(-a, ref.neg(ra))
        assert _agrees(a * b, ref.mul(ra, rb))
        assert (a - a).is_zero() and a - a == LaurentPoly()

    @given(laurent_pairs(), st.integers(0, 4), coefficients())
    @settings(max_examples=40)
    def test_power_and_scale(self, p, k, c):
        a, ra = LaurentPoly(p), ref.collect(p)
        assert _agrees(a.pow(k), ref.power(ra, k))
        assert _agrees(a.scale(c), ref.scale(ra, c))

    @given(
        st.lists(coefficients(), max_size=4), coefficients(), coefficients(), coefficients()
    )
    @settings(max_examples=40)
    def test_substitution_is_composition(self, cs, a, b, c):
        p = Poly(cs)
        inner = LaurentPoly([(1, a), (0, b), (-1, c)])
        expected = to_laurent(compose(RatFunc.from_poly(p), inner.to_ratfunc()))
        assert substitute_poly_laurent(p, inner) == expected

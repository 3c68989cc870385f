import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from cyclohouse.intervals import isqrt_ceil, isqrt_floor, root_table, square_interval

from .interval_boxes import ComplexBox, RealInterval


def test_root_table_contains_float_approximations():
    n, bits = 12, 64
    tab = root_table(n, bits)
    scale = 1 << bits
    slack = Fraction(1, 2**40)  # double-precision approximation error
    for k in range(n):
        re = Fraction(math.cos(2 * math.pi * k / n))
        im = Fraction(math.sin(2 * math.pi * k / n))
        rl, rh, il, ih = tab[k]
        assert Fraction(rl, scale) <= re + slack and re - slack <= Fraction(rh, scale)
        assert Fraction(il, scale) <= im + slack and im - slack <= Fraction(ih, scale)
        # enclosures are tight
        assert rh - rl <= 4
        assert ih - il <= 4


def test_root_table_special_angles_exact():
    tab = root_table(4, 80)
    rl, rh, il, ih = tab[0]
    assert rl <= 1 << 80 <= rh and il <= 0 <= ih
    rl, rh, il, ih = tab[1]  # i
    assert rl <= 0 <= rh and il <= 1 << 80 <= ih
    rl, rh, il, ih = tab[2]  # -1
    assert rl <= -(1 << 80) <= rh


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_square_interval_contains_squares(a, b):
    lo, hi = min(a, b), max(a, b)
    sq_lo, sq_hi = square_interval(lo, hi)
    for x in (lo, hi, (lo + hi) // 2):
        assert sq_lo <= x * x <= sq_hi


@given(st.integers(0, 10**12))
def test_isqrt_directed(x):
    f, c = isqrt_floor(x), isqrt_ceil(x)
    assert f * f <= x <= c * c
    assert c - f <= 1


@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
)
def test_complex_box_arithmetic_contains_exact_points(ar, ai, br, bi):
    a = ComplexBox.point(ar, ai)
    b = ComplexBox.point(br, bi)
    s = a + b
    assert s.re.lo <= ar + br <= s.re.hi
    assert s.im.lo <= ai + bi <= s.im.hi
    p = a * b
    assert p.re.lo <= ar * br - ai * bi <= p.re.hi
    assert p.im.lo <= ar * bi + ai * br <= p.im.hi
    sq = a.abs_squared()
    assert sq.lo <= ar * ar + ai * ai <= sq.hi


def test_real_interval_ordering_predicates():
    a = RealInterval(Fraction(2), Fraction(3))
    b = RealInterval(Fraction(0), Fraction(1))
    assert a.definitely_ge(b)
    assert a.definitely_gt(b)
    assert not b.definitely_ge(a)

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclohouse import intervals
from cyclohouse.intervals import isqrt_ceil, isqrt_floor, root_table

from . import house_reference
from .house_reference import square_interval
from .interval_boxes import ComplexBox, RealInterval, root_boxes


def test_root_table_contains_float_approximations():
    n, bits = 12, 64
    tab = root_boxes(n, bits)
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
    tab = root_boxes(4, 80)
    rl, rh, il, ih = tab[0]
    assert rl <= 1 << 80 <= rh and il <= 0 <= ih
    rl, rh, il, ih = tab[1]  # i
    assert rl <= 0 <= rh and il <= 1 << 80 <= ih
    rl, rh, il, ih = tab[2]  # -1
    assert rl <= -(1 << 80) <= rh


@pytest.mark.parametrize(
    "n, bits", [(27720, 128), (2520, 320), (7, 4096), (1, 64), (2, 64), (4, 80)]
)
def test_root_table_contains_points_at_twice_the_precision(n, bits):
    tab = root_boxes(n, bits)
    assert len(tab) == n
    for (rl, rh, il, ih), (re, im) in zip(tab, house_reference.root_points(n, bits)):
        assert rl << bits <= re <= rh << bits and il << bits <= im <= ih << bits
        assert rh - rl <= 2 and ih - il <= 2


@pytest.mark.parametrize(
    "n, bits",
    [(2520, 320), (1260, 128), (999, 256), (7, 4096), (3, 4096), (1, 64), (4, 80)],
)
def test_root_table_matches_separate_cos_and_sin(n, bits):
    tab = root_boxes(n, bits)
    assert tab == house_reference.root_table(n, bits)
    assert all(e[1] - e[0] <= 2 and e[3] - e[2] <= 2 for e in tab)


def test_threads_build_the_same_table():
    n, bits = 3001, 72  # a precision no library rung uses, so the table is not cached
    start = threading.Barrier(4)

    def build(_):
        start.wait(timeout=30)
        return root_table(n, bits, 32)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            tables = list(pool.map(build, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(t == tables[0] for t in tables)
    assert tables[0] == root_table.__wrapped__(n, bits, 32)


def test_root_table_refuses_a_wide_entry(monkeypatch):
    # widen the error bound of the one point of zeta_n: the walk's error
    # bound grows with it, and the first entry past it must be refused
    real = intervals._zeta_point

    def widened(n, q):
        zr, zi, e0 = real(n, q)
        return zr, zi, e0 + (1 << q)

    monkeypatch.setattr(intervals, "_zeta_point", widened)
    with pytest.raises(ArithmeticError, match="over 2 units wide"):
        root_table.__wrapped__(5, 64, 32)


@pytest.mark.parametrize("q", [64, 200, 1100, 4200, 8300])
def test_zeta_point_is_within_its_bound(q):
    # against mpmath at 80 more bits: |Z - 2^q zeta_n| in the 1-norm is
    # at most the e0 that the walk trusts
    for n in (1, 2, 3, 4, 5, 7, 12, 420, 27720, 1000003):
        zr, zi, e0 = intervals._zeta_point(n, q)
        with mpmath.workprec(q + 80):
            z = mpmath.expjpi(mpmath.mpf(2) / n) * mpmath.mpf(2) ** q
            assert abs(zr - z.real) + abs(zi - z.imag) <= e0 <= 7, n


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

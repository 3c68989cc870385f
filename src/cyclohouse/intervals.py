"""Rigorous fixed-point interval arithmetic over dyadic rationals.

All enclosures are represented by integer endpoint pairs at a common
binary scale: the pair ``(lo, hi)`` at scale ``p`` denotes the closed
interval ``[lo/2^p, hi/2^p]``.  Addition of same-scale intervals is then
exact integer arithmetic, and only multiplication/square root need
directed rounding, which we get for free from floor division and
``math.isqrt``.  The single transcendental input, enclosures of
``exp(2*pi*i*k/n)``, is produced once per (n, precision) by mpmath's
interval context and cached; everything downstream is pure ``int`` work.

``ComplexBox`` is a slower, ``Fraction``-endpoint rectangle used where
clarity matters more than speed (escape-radius sampling, embedding
checks in tests).  The hot house-computation loop in ``cyclotomic``
works on the raw integer tuples directly.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

# mpmath's interval context carries global precision state; serialize
# table construction so callers may parallelize freely above us.
_TABLE_LOCK = threading.Lock()


def ceil_div(a: int, b: int) -> int:
    """Exact ceil(a/b) for positive b."""
    return -((-a) // b)


def isqrt_floor(x: int) -> int:
    if x < 0:
        raise ValueError("isqrt of negative")
    return math.isqrt(x)


def isqrt_ceil(x: int) -> int:
    if x <= 0:
        if x == 0:
            return 0
        raise ValueError("isqrt of negative")
    return math.isqrt(x - 1) + 1


def _mpf_to_scaled(mpf_tuple, scale_bits: int, round_up: bool) -> int:
    """Exact conversion of an mpf endpoint to an integer at scale 2^scale_bits."""
    sign, man, exp, _bc = mpf_tuple
    if man == 0:
        return 0
    man = int(man)
    v = -man if sign else man
    shift = exp + scale_bits
    if shift >= 0:
        return v << shift
    q = 1 << (-shift)
    return ceil_div(v, q) if round_up else v // q


@lru_cache(maxsize=512)
def root_table(n: int, scale_bits: int) -> tuple[tuple[int, int, int, int], ...]:
    """Rigorous enclosures of the n-th roots of unity.

    Entry k is ``(re_lo, re_hi, im_lo, im_hi)`` at scale ``2^scale_bits``
    enclosing ``exp(2*pi*i*k/n)``.  The mpmath interval context supplies
    certified trig bounds; conversion to scaled integers rounds outward.
    """
    iv = mpmath.iv
    with _TABLE_LOCK:
        old_prec = iv.prec
        try:
            iv.prec = scale_bits + 20
            two_pi = 2 * iv.pi
            out = []
            for k in range(n):
                theta = two_pi * k / n
                c = iv.cos(theta)
                s = iv.sin(theta)
                c_lo, c_hi = c._mpi_
                s_lo, s_hi = s._mpi_
                out.append(
                    (
                        _mpf_to_scaled(c_lo, scale_bits, round_up=False),
                        _mpf_to_scaled(c_hi, scale_bits, round_up=True),
                        _mpf_to_scaled(s_lo, scale_bits, round_up=False),
                        _mpf_to_scaled(s_hi, scale_bits, round_up=True),
                    )
                )
            return tuple(out)
        finally:
            iv.prec = old_prec


def square_interval(lo: int, hi: int) -> tuple[int, int]:
    """Enclosure of x^2 given x in [lo, hi] (result scale doubles)."""
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)


@dataclass(frozen=True)
class RealInterval:
    """Closed interval with exact Fraction endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v) -> "RealInterval":
        f = Fraction(v)
        return RealInterval(f, f)

    def __add__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RealInterval") -> "RealInterval":
        return RealInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "RealInterval") -> "RealInterval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RealInterval(min(products), max(products))

    def square(self) -> "RealInterval":
        if self.lo >= 0:
            return RealInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RealInterval(self.hi * self.hi, self.lo * self.lo)
        return RealInterval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def definitely_ge(self, other: "RealInterval") -> bool:
        return self.lo >= other.hi

    def definitely_gt(self, other: "RealInterval") -> bool:
        return self.lo > other.hi

    def round_out(self, bits: int) -> "RealInterval":
        """Widen outward onto the dyadic grid 2^-bits.

        Chains of exact interval multiplications breed enormous
        denominators; periodic outward rounding keeps them bounded
        without sacrificing rigor.
        """
        scale = 1 << bits
        lo = Fraction(self.lo.numerator * scale // self.lo.denominator, scale)
        hi = Fraction(ceil_div(self.hi.numerator * scale, self.hi.denominator), scale)
        return RealInterval(lo, hi)


@dataclass(frozen=True)
class ComplexBox:
    """Axis-aligned rectangle enclosing a complex number."""

    re: RealInterval
    im: RealInterval

    @staticmethod
    def point(re, im=0) -> "ComplexBox":
        return ComplexBox(RealInterval.point(re), RealInterval.point(im))

    @staticmethod
    def from_root_table(n: int, k: int, scale_bits: int) -> "ComplexBox":
        rl, rh, il, ih = root_table(n, scale_bits)[k % n]
        q = Fraction(1, 1 << scale_bits)
        return ComplexBox(RealInterval(rl * q, rh * q), RealInterval(il * q, ih * q))

    def __add__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, f: Fraction) -> "ComplexBox":
        return self * ComplexBox.point(f)

    def abs_squared(self) -> RealInterval:
        return self.re.square() + self.im.square()

    def round_out(self, bits: int) -> "ComplexBox":
        return ComplexBox(self.re.round_out(bits), self.im.round_out(bits))

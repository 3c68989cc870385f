"""Fraction-endpoint interval boxes for checks in the tests.

``RealInterval`` and ``ComplexBox`` are closed intervals and rectangles
with exact ``Fraction`` endpoints; ``embedding_box`` encloses a Galois
conjugate of a ``CycNum`` at the standard embedding with them.  They are
slower than the integer kernel behind ``cyclotomic.house`` and serve as
an independent check of it and of escape radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cyclohouse.cyclotomic import CycNum
from cyclohouse.intervals import ceil_div, root_table


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


def _accumulate_embedding(n: int, nz_scaled, t: int, scale_bits: int):
    """Scaled-integer box of sigma_t(a) at the standard embedding.

    Scale is 2^scale_bits times the denominator used in nz_scaled.
    """
    tab = root_table(n, scale_bits)
    rl = rh = il = ih = 0
    for j, w in nz_scaled:
        a_, b_, c_, d_ = tab[(t * j) % n]
        if w >= 0:
            rl += w * a_
            rh += w * b_
            il += w * c_
            ih += w * d_
        else:
            rl += w * b_
            rh += w * a_
            il += w * d_
            ih += w * c_
    return rl, rh, il, ih


def embedding_box(a: CycNum, t: int = 1, scale_bits: int = 64) -> ComplexBox:
    """Rigorous rectangle around sigma_t(a) at the standard embedding."""
    if a.n == 1:
        return ComplexBox.point(a.as_rational())
    nz = [(j, w) for j, w in enumerate(a.num) if w]
    rl, rh, il, ih = _accumulate_embedding(a.n, nz, t, scale_bits)
    q = Fraction(1, (1 << scale_bits) * a.den)
    return ComplexBox(
        RealInterval(rl * q, rh * q),
        RealInterval(il * q, ih * q),
    )

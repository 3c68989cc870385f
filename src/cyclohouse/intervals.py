"""Rigorous fixed-point interval arithmetic over dyadic rationals.

All enclosures are represented by integer endpoint pairs at a common
binary scale: the pair ``(lo, hi)`` at scale ``p`` denotes the closed
interval ``[lo/2^p, hi/2^p]``.  Addition of same-scale intervals is then
exact integer arithmetic, and only multiplication/square root need
directed rounding, which we get for free from floor division and
``math.isqrt``.

The single transcendental input is one certified enclosure of
``zeta_n = exp(2*pi*i/n)`` per (n, precision), from mpmath's interval
trig at an explicit precision.  ``root_table`` walks the powers of its
integer midpoint with Gaussian-integer products and a proven integer
error bound, and caches the table; everything downstream is pure ``int``
work.  mpmath is imported at the first table build.

The house kernel in ``cyclotomic`` works on the raw integer tuples
directly.
"""

from __future__ import annotations

import math
from functools import lru_cache


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
    enclosing ``zeta_n^k``.  One certified ``mpi_cos_sin`` call at
    q = scale_bits + g bits encloses zeta_n; its integer midpoint Z has
    |Z - 2^q zeta_n| <= e0.  The walk X_0 = 2^q, X_(k+1) = (X_k Z) >> q
    (floor on each part of the Gaussian-integer product) keeps
    |X_k - 2^q zeta_n^k| <= E_k with E_0 = 0 and
    E_(k+1) = E_k + ceil(E_k e0 / 2^q) + e0 + 2, the 2 covering the two
    floors.  Entry k <= n/2 is floor((X_k - E_k) / 2^g) below and
    ceil((X_k + E_k) / 2^g) above in each part, clamped to [-1, 1] at
    scale (so +-1 and +-i come out exact); entry n - k is its conjugate.

    While E_k e0 <= 2^q, E_k <= k (e0 + 3), so with g = bitlen(4n) + 24
    and e0 + 3 <= 128 (mpmath's enclosures give e0 <= 7),
    E_(n/2) <= 64n < 2^(g - 20): the walk keeps 20 guard bits below one
    unit.  Every entry is at most 2 units wide, which the screen of
    ``cyclotomic._max_square_bounds`` relies on; a wider entry raises
    ArithmeticError.
    """
    from mpmath.libmp import from_int, mpf_div, mpf_pi, mpf_shift, mpi_cos_sin
    from mpmath.libmp import round_ceiling, round_floor

    g = (4 * n).bit_length() + 24
    q = scale_bits + g
    theta = tuple(
        mpf_div(mpf_shift(mpf_pi(q, rnd), 1), from_int(n), q, rnd)
        for rnd in (round_floor, round_ceiling)
    )
    (c_lo, c_hi), (s_lo, s_hi) = mpi_cos_sin(theta, q)
    c_lo, s_lo = (_mpf_to_scaled(v, q, round_up=False) for v in (c_lo, s_lo))
    c_hi, s_hi = (_mpf_to_scaled(v, q, round_up=True) for v in (c_hi, s_hi))
    zr = (c_lo + c_hi) >> 1
    zi = (s_lo + s_hi) >> 1
    e0 = max(zr - c_lo, c_hi - zr) + max(zi - s_lo, s_hi - zi)

    one = 1 << scale_bits
    xr, xi, err = 1 << q, 0, 0
    half = []
    for k in range(n // 2 + 1):
        entry = (
            max((xr - err) >> g, -one),
            min(-((-xr - err) >> g), one),
            max((xi - err) >> g, -one),
            min(-((-xi - err) >> g), one),
        )
        if entry[1] - entry[0] > 2 or entry[3] - entry[2] > 2:
            raise ArithmeticError(
                f"root table entry {k} of {n} at {scale_bits} bits is over 2 units wide"
            )
        half.append(entry)
        xr, xi = (xr * zr - xi * zi) >> q, (xr * zi + xi * zr) >> q
        err += -((-err * e0) >> q) + e0 + 2
    return tuple(half) + tuple(
        (rl, rh, -ih, -il) for rl, rh, il, ih in reversed(half[1 : (n + 1) // 2])
    )


def square_interval(lo: int, hi: int) -> tuple[int, int]:
    """Enclosure of x^2 given x in [lo, hi] (result scale doubles)."""
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)

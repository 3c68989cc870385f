"""Rigorous fixed-point interval arithmetic over dyadic rationals.

All enclosures are represented by integer endpoint pairs at a common
binary scale: the pair ``(lo, hi)`` at scale ``p`` denotes the closed
interval ``[lo/2^p, hi/2^p]``.  Addition of same-scale intervals is then
exact integer arithmetic, and only multiplication/square root need
directed rounding, which we get for free from floor division and
``math.isqrt``.  The single transcendental input, enclosures of
``exp(2*pi*i*k/n)``, is produced once per (n, precision) by mpmath's
interval context and cached; everything downstream is pure ``int`` work.

The house kernel in ``cyclotomic`` works on the raw integer tuples
directly.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import mpmath
from mpmath.libmp import mpi_cos_sin

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
    enclosing ``exp(2*pi*i*k/n)``.  One certified ``mpi_cos_sin`` call
    per entry gives both trig bounds; conversion to scaled integers rounds
    outward.  Every entry is at most 2 units wide, which the screen of
    ``cyclotomic._max_square_bounds`` relies on; a wider entry raises
    ArithmeticError.
    """
    iv = mpmath.iv
    with _TABLE_LOCK:
        old_prec = iv.prec
        try:
            prec = iv.prec = scale_bits + 20
            two_pi = 2 * iv.pi
            out = []
            for k in range(n):
                (c_lo, c_hi), (s_lo, s_hi) = mpi_cos_sin((two_pi * k / n)._mpi_, prec)
                entry = (
                    _mpf_to_scaled(c_lo, scale_bits, round_up=False),
                    _mpf_to_scaled(c_hi, scale_bits, round_up=True),
                    _mpf_to_scaled(s_lo, scale_bits, round_up=False),
                    _mpf_to_scaled(s_hi, scale_bits, round_up=True),
                )
                if entry[1] - entry[0] > 2 or entry[3] - entry[2] > 2:
                    raise ArithmeticError(
                        f"root table entry {k} of {n} at {scale_bits} bits is over 2 units wide"
                    )
                out.append(entry)
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

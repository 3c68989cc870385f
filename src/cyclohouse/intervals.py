"""Rigorous fixed-point interval arithmetic over dyadic rationals.

All enclosures are represented by integer endpoint pairs at a common
binary scale: the pair ``(lo, hi)`` at scale ``p`` denotes the closed
interval ``[lo/2^p, hi/2^p]``.  Addition of same-scale intervals is then
exact integer arithmetic, and only multiplication/square root need
directed rounding, which we get for free from floor division and
``math.isqrt``.

The single transcendental input is one certified point of
``zeta_n = exp(2*pi*i/n)`` per (n, precision): ``_zeta_point`` sums
Machin's series for pi and the Taylor series of cos and sin in
fixed-point integers, with a proven error bound.  ``root_table`` walks
the powers of that Gaussian integer with a proven integer error bound
and caches the table; everything is pure ``int`` work.

The table packs the four endpoints of each entry into one integer, in
slots wide enough for a weighted sum of entries (Kronecker
substitution), so the house kernel in ``cyclotomic`` adds a conjugate's
terms with one big-integer multiply-add each and reads the four sums
back from the slots.
"""

from __future__ import annotations

import math
from functools import lru_cache


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


def _zeta_point(n: int, q: int) -> tuple[int, int, int]:
    """Gaussian integer zr + i zi within e0 = 2 of 2^q zeta_n in the 1-norm.

    Fixed point at p = q + h bits, every error in units of 2^-p.
    pi = 16 atan(1/5) - 4 atan(1/239): the term of odd k in atan(1/x) is
    floor(floor(2^p / x^k) / k) = floor(2^p / (k x^k)), off by less than 1,
    and the alternating tail past the first zero power is below 1.
    theta = floor(2 pi / n) then moves cos and sin by less than
    4 err / n + 2 together.  The Taylor terms t_k = floor(t_(k-1) x / k)
    of exp(i x), x = theta / 2^p <= 2 pi, are each off by less than
    e^(2 pi) < 2^10; t_k = 0 needs 2^p x^k / k! < 2^10, so k >= 2x and the
    tail is below 2^11.  Rounding to q bits adds 1/2 per part, so the sum
    stays below 2 while err < 2^(h - 1).
    """
    h = q.bit_length() + 12
    p = q + h
    pi, err = 0, 0
    for x, w in ((5, 16), (239, -4)):
        power, k = (1 << p) // x, 1
        while power:
            pi += w * (power // k)
            w, power, k = -w, power // (x * x), k + 2
        err += abs(w) * (k + 1) // 2
    theta = 2 * pi // n
    err = 4 * err // n + 3
    parts, t, k = [0, 0, 0, 0], 1 << p, 0
    while t:
        parts[k % 4] += t
        k += 1
        t = (t * theta >> p) // k
    err += (k << 10) + (1 << 11)
    if err >= 1 << (h - 1):
        raise ArithmeticError(f"zeta_{n} at {q} bits: error bound {err} reached 2^{h - 1}")
    half = 1 << (h - 1)
    return (parts[0] - parts[2] + half) >> h, (parts[1] - parts[3] + half) >> h, 2


@lru_cache(maxsize=512)
def root_table(n: int, scale_bits: int, slack: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rigorous enclosures of the n-th roots of unity, packed four to an int.

    Entry k encloses ``zeta_n^k`` in the box (re_lo, re_hi, im_lo, im_hi)
    at scale ``2^scale_bits``.  With B = scale_bits + slack it is stored
    as the one integer e1 + e2 2^B + e3 2^2B + e4 2^3B, so that
    sum_j w_j P[k_j] holds the four weighted sums sum w_j e_i in slots
    of B bits.  Every |e_i| <= 2^scale_bits, so each sum stays below
    2^(B - 2) in magnitude while sum_j |w_j| < 2^(slack - 2), and the
    slots read back exactly.  A negative weight must take the upper end
    of the real part where a positive one takes the lower, that is the
    swapped slots (e2, e1, e4, e3): that entry is P[k] + D[k], with
    D[k] = dr - dr 2^B + di 2^2B - di 2^3B for the entry's widths
    dr = e2 - e1 and di = e4 - e3.  The table is the pair (P, D); the
    widths are at most 2 units, so D holds at most 9 distinct (shared)
    ints.

    ``_zeta_point`` at q = scale_bits + g bits
    gives a Gaussian integer Z with |Z - 2^q zeta_n| <= e0.  The walk
    X_0 = 2^q, X_(k+1) = (X_k Z) >> q (floor on each part of the
    Gaussian-integer product) keeps
    |X_k - 2^q zeta_n^k| <= E_k with E_0 = 0 and
    E_(k+1) = E_k + ceil(E_k e0 / 2^q) + e0 + 2, the 2 covering the two
    floors.  Entry k <= n/2 is floor((X_k - E_k) / 2^g) below and
    ceil((X_k + E_k) / 2^g) above in each part, clamped to [-1, 1] at
    scale (so +-1 and +-i come out exact); entry n - k is its conjugate.
    Each entry is packed as the walk makes it.

    While E_k e0 <= 2^q, E_k <= k (e0 + 3), so with g = bitlen(4n) + 24
    and e0 + 3 <= 128 (``_zeta_point`` gives e0 = 2),
    E_(n/2) <= 64n < 2^(g - 20): the walk keeps 20 guard bits below one
    unit.  Every entry is at most 2 units wide, which D and the screen of
    ``cyclotomic._max_square_bounds`` rely on; a wider entry raises
    ArithmeticError.
    """
    g = (4 * n).bit_length() + 24
    q = scale_bits + g
    zr, zi, e0 = _zeta_point(n, q)

    b = scale_bits + slack
    b2, b3 = 2 * b, 3 * b
    one = 1 << scale_bits
    packed, swaps, shared = [0] * n, [0] * n, {}
    xr, xi, err = 1 << q, 0, 0
    for k in range(n // 2 + 1):
        rl = max((xr - err) >> g, -one)
        rh = min(-((-xr - err) >> g), one)
        il = max((xi - err) >> g, -one)
        ih = min(-((-xi - err) >> g), one)
        dr, di = rh - rl, ih - il
        if dr > 2 or di > 2:
            raise ArithmeticError(
                f"root table entry {k} of {n} at {scale_bits} bits is over 2 units wide"
            )
        swap = shared.get((dr, di))
        if swap is None:
            swap = shared[dr, di] = dr - (dr << b) + (di << b2) - (di << b3)
        packed[k], swaps[k] = rl + (rh << b) + (il << b2) + (ih << b3), swap
        if 2 * k < n and k:  # entry n - k is the conjugate (rl, rh, -ih, -il)
            packed[n - k], swaps[n - k] = rl + (rh << b) - (ih << b2) - (il << b3), swap
        xr, xi = (xr * zr - xi * zi) >> q, (xr * zi + xi * zr) >> q
        err += -((-err * e0) >> q) + e0 + 2
    return tuple(packed), tuple(swaps)

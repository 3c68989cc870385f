"""Reference house kernels, kept as oracles for the packed kernel and the
screened ladder.

``square_bounds`` is the four-accumulator loop over (re_lo, re_hi,
im_lo, im_hi) boxes, one interval sum per endpoint with a sign branch
per term; ``square_bounds_per_unit`` runs it on every unit t <= n/2 over
the library's root table read back as boxes, with no memo on the
element, and ``max_square_bounds`` reads the rung bounds off it.
``quotient_outside_PA`` is the scan's screen as a full loop: every
conjugate of the numerator and the denominator is bounded, from the
same boxes, before any of them is read.
``root_table`` builds the boxes with one ``iv.cos`` and one ``iv.sin``
call per entry, and ``root_points`` gives point values of the same roots
at twice the scale.  The library's ``cyclotomic._square_bounds`` and
``_max_square_bounds`` must give exactly the integers of these loops,
and each entry of ``intervals.root_table`` must unpack to the box of
``root_table`` and contain its point.
"""

from __future__ import annotations

import math

import mpmath

from cyclohouse.cyclotomic import CycNum

from .interval_boxes import ceil_div, root_boxes


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


def root_table(n: int, scale_bits: int) -> tuple[tuple[int, int, int, int], ...]:
    """Enclosures of exp(2*pi*i*k/n) at scale 2^scale_bits, from iv.cos and iv.sin."""
    iv = mpmath.iv
    old_prec = iv.prec
    try:
        iv.prec = scale_bits + 20
        two_pi = 2 * iv.pi
        out = []
        for k in range(n):
            theta = two_pi * k / n
            c_lo, c_hi = iv.cos(theta)._mpi_
            s_lo, s_hi = iv.sin(theta)._mpi_
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


def root_points(n: int, scale_bits: int) -> list[tuple[int, int]]:
    """Nearest Gaussian integers to 2^(2 scale_bits) exp(2*pi*i*k/n), by mpmath
    at 2 scale_bits + 20 bits for k <= n/2 and by conjugation above."""
    with mpmath.workprec(2 * scale_bits + 20):
        scale = mpmath.mpf(2) ** (2 * scale_bits)
        out = []
        for k in range(n // 2 + 1):
            w = mpmath.expjpi(mpmath.mpf(2 * k) / n) * scale
            out.append((int(mpmath.nint(w.real)), int(mpmath.nint(w.imag))))
    return out + [(re, -im) for re, im in reversed(out[1 : (n + 1) // 2])]


def square_interval(lo: int, hi: int) -> tuple[int, int]:
    """Enclosure of x^2 given x in [lo, hi] (result scale doubles)."""
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(lo * lo, hi * hi)


def square_bounds(tab, n: int, nz, t: int) -> tuple[int, int]:
    """(lo, hi) with lo <= |sigma_t(a)|^2 <= hi, from the boxes tab and the
    nonzero (j, numerator) pairs nz of a."""
    rl = rh = il = ih = 0
    for j, w in nz:
        e1, e2, e3, e4 = tab[(t * j) % n]
        if w >= 0:
            rl += w * e1
            rh += w * e2
            il += w * e3
            ih += w * e4
        else:
            rl += w * e2
            rh += w * e1
            il += w * e4
            ih += w * e3
    s1_lo, s1_hi = square_interval(rl, rh)
    s2_lo, s2_hi = square_interval(il, ih)
    return s1_lo + s2_lo, s1_hi + s2_hi


def square_bounds_per_unit(a: CycNum, prec: int) -> dict[int, tuple[int, int]]:
    """{t: (lo, hi)} bounds on |sigma_t(a)|^2 for every unit t <= n/2, at
    scale (2^prec * a.den)^2, with no screen and no memo."""
    n = a.n
    nz = [(j, w) for j, w in enumerate(a.num) if w]
    tab = root_boxes(n, prec)
    return {
        t: square_bounds(tab, n, nz, t)
        for t in range(1, n // 2 + 1)
        if math.gcd(t, n) == 1
    }


def max_square_bounds(a: CycNum, prec: int) -> tuple[int, int]:
    """(max lo, max hi) over ``square_bounds_per_unit``."""
    pairs = square_bounds_per_unit(a, prec).values()
    return max(lo for lo, _ in pairs), max(hi for _, hi in pairs)


def quotient_outside_PA(num, den, A) -> bool:
    """The screen's decision from the full loop over the units t <= n/2
    (t = 1 alone for n <= 2).

    num and den are sparse exponent vectors (pairs, D, N), den None for
    exactly 1; bounded by ``square_bounds`` on the boxes of the library's
    64-bit root table.  True when some t has lo_t(den) > 0 and
    |num| > A |den| there, or else when some lo_t(num) > 0, every
    lo_t(den) > 0, and the product range of the norm holds no integer >= 1.
    """
    pairs, d_num, n = num
    tab = root_boxes(n, 64)
    units = [t for t in range(1, n // 2 + 1) if math.gcd(t, n) == 1] or [1]
    nb = [square_bounds(tab, n, pairs, t) for t in units]
    if den is None:
        db, d_den = [(1 << 128, 1 << 128)] * len(units), 1
    else:
        db, d_den = [square_bounds(tab, n, den[0], t) for t in units], den[1]
    left, right = d_den**2 * A.denominator**2, d_num**2 * A.numerator**2
    if any(dlo > 0 and lo * left > dhi * right for (lo, _), (dlo, dhi) in zip(nb, db)):
        return True
    (n_lo, n_hi), (d_lo, d_hi) = (map(math.prod, zip(*b)) for b in (nb, db))
    if not d_lo or not any(lo for lo, _ in nb):
        return False
    p, q = d_den ** (2 * len(units)), d_num ** (2 * len(units))
    top = n_hi * p // (d_lo * q)
    return top < 1 or top * d_hi * q < n_lo * p

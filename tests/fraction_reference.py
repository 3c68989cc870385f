"""Reference implementation of CycNum arithmetic on Fraction coordinates.

This is the earlier layout of ``cyclohouse.cyclotomic``: one Fraction per
power-basis coordinate, Phi_n obtained by dividing x^n - 1 by every
Phi_d, and reduction through cached rows of zeta^e.  The canonicalization,
Galois action, addition and multiplication below are that code, kept as
it was (with values passed as (conductor, coordinates) pairs instead of
CycNum instances) so the integer-coordinate implementation can be
compared against it.  It shares nothing with the package but
``factorize`` and ``euler_phi``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from cyclohouse.cyclotomic import euler_phi, factorize

_ZERO = Fraction(0)


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending, length phi(n)+1 (monic)."""
    if n == 1:
        return (-1, 1)
    # Phi_n = (x^n - 1) / prod of Phi_d over proper divisors d.
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in _divisors(n):
        if d == n:
            continue
        den = cyclotomic_polynomial(d)
        num = _int_poly_exact_div(num, den)
    return tuple(num)


def _int_poly_exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials, den monic."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    return out


class _Cyclotomy:
    """Per-conductor data: Phi_n and reduced power rows."""

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        self.cyclo = cyclotomic_polynomial(n)
        self._rows: list[tuple[int, ...]] = []

    def _ensure_rows(self, e: int) -> None:
        if len(self._rows) > e - self.phi:
            return
        phi, c = self.phi, self.cyclo
        if not self._rows:
            self._rows.append(tuple(-c[r] for r in range(phi)))
        cur = list(self._rows[-1])
        while len(self._rows) <= e - phi:
            top = cur[phi - 1]
            nxt = [0] * phi
            for r in range(phi - 1, 0, -1):
                nxt[r] = cur[r - 1] - top * c[r]
            nxt[0] = -top * c[0]
            self._rows.append(tuple(nxt))
            cur = nxt

    def row(self, e: int) -> tuple[int, ...]:
        self._ensure_rows(e)
        return self._rows[e - self.phi]

    def power_accumulate(self, acc: list[Fraction], e: int, c: Fraction) -> None:
        """acc += c * zeta^e, in power-basis coordinates."""
        e %= self.n
        if e < self.phi:
            acc[e] += c
        else:
            for r, coeff in enumerate(self.row(e)):
                if coeff:
                    acc[r] += c * coeff


@lru_cache(maxsize=None)
def _cyclotomy(n: int) -> _Cyclotomy:
    return _Cyclotomy(n)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _rewrite_2mod4(n: int, coords: list[Fraction]) -> tuple[int, list[Fraction]]:
    """Rewrite coordinates at conductor n = 2m (m odd) in terms of zeta_m."""
    m = n // 2
    if m == 1:
        return 1, [coords[0]]
    ctx = _cyclotomy(m)
    acc = [_ZERO] * ctx.phi
    half = (m + 1) // 2
    for j, c in enumerate(coords):
        if not c:
            continue
        e = (j * half) % m
        ctx.power_accumulate(acc, e, -c if j % 2 else c)
    return m, acc


def sigma_coords(n: int, coords, t: int) -> list[Fraction]:
    """Coordinates of sigma_t(a) where sigma_t(zeta) = zeta^t."""
    ctx = _cyclotomy(n)
    acc = [_ZERO] * ctx.phi
    for j, c in enumerate(coords):
        if c:
            ctx.power_accumulate(acc, (t * j) % ctx.n, c)
    return acc


def try_drop_prime(n: int, coords, p: int) -> list[Fraction] | None:
    """Express the element in Q(zeta_m), m = n/p, or None if it is not there."""
    m = n // p
    ctx_m = _cyclotomy(m)
    phi_m = ctx_m.phi
    buckets = [[_ZERO] * phi_m for _ in range(p)]
    if m % p == 0:
        for k, c in enumerate(coords):
            if c:
                buckets[k % p][k // p] += c
        for r in range(1, p):
            if any(buckets[r]):
                return None
        return buckets[0]
    inv_p = pow(p, -1, m)
    for k, c in enumerate(coords):
        if c:
            ctx_m.power_accumulate(buckets[k % p], (inv_p * k) % m, c)
    first = buckets[1]
    for r in range(2, p):
        if buckets[r] != first:
            return None
    return [a - b for a, b in zip(buckets[0], first)]


def canonicalize(n: int, coords: list[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
    coords = [Fraction(c) for c in coords]
    while True:
        if n % 4 == 2:
            n, coords = _rewrite_2mod4(n, coords)
        if n == 2:
            n = 1
        if n == 1:
            return 1, (coords[0],)
        if not any(coords):
            return 1, (_ZERO,)
        descended = False
        for p, _ in factorize(n):
            dropped = try_drop_prime(n, coords, p)
            if dropped is not None:
                n //= p
                coords = dropped
                descended = True
                break
        if not descended:
            return n, tuple(coords)


def _embed_list(a, n: int) -> list[Fraction]:
    """Coordinates of a = (conductor, coords) at conductor n (a's divides n)."""
    an, acoords = a
    if an == n:
        return list(acoords)
    ctx = _cyclotomy(n)
    step = n // an
    acc = [_ZERO] * ctx.phi
    for j, c in enumerate(acoords):
        if c:
            ctx.power_accumulate(acc, step * j, c)
    return acc


def add(a, b) -> tuple[int, tuple[Fraction, ...]]:
    """a + b for canonical (conductor, coords) pairs."""
    if a[0] == 1 and b[0] == 1:
        return 1, (a[1][0] + b[1][0],)
    n = _lcm(a[0], b[0])
    x = _embed_list(a, n)
    y = _embed_list(b, n)
    return canonicalize(n, [u + v for u, v in zip(x, y)])


def mul(a, b) -> tuple[int, tuple[Fraction, ...]]:
    """a * b for canonical (conductor, coords) pairs."""
    if a[0] == 1 and b[0] == 1:
        return 1, (a[1][0] * b[1][0],)
    if a[0] == 1:
        q = a[1][0]
        if q == 0:
            return 1, (_ZERO,)
        return b[0], tuple(q * c for c in b[1])
    if b[0] == 1:
        return mul(b, a)
    n = _lcm(a[0], b[0])
    ctx = _cyclotomy(n)
    x = _embed_list(a, n)
    y = _embed_list(b, n)
    conv = [_ZERO] * (2 * ctx.phi - 1)
    for i, u in enumerate(x):
        if u:
            for j, v in enumerate(y):
                if v:
                    conv[i + j] += u * v
    acc = list(conv[: ctx.phi])
    acc += [_ZERO] * (ctx.phi - len(acc))
    for e in range(ctx.phi, len(conv)):
        if conv[e]:
            ctx.power_accumulate(acc, e, conv[e])
    return canonicalize(n, acc)

"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored as its conductor n together with rational
coordinates in the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1),
reduced modulo the n-th cyclotomic polynomial.  Values are always kept
in canonical form:

* the conductor is minimal (no proper divisor m | n has the element
  inside Q(zeta_m)), and
* n is never congruent to 2 mod 4 (Q(zeta_{2m}) = Q(zeta_m) for odd m),

so equality and hashing are plain tuple comparisons regardless of how a
value was built.

The analytic side (house computation) evaluates Galois conjugates at
the standard embedding zeta_n -> exp(2*pi*i/n) with the fixed-point
interval machinery from ``intervals``; every bound it reports is a
rigorous enclosure.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ResourceLimitError, UndecidedError
from .intervals import (
    ComplexBox,
    RealInterval,
    isqrt_ceil,
    isqrt_floor,
    root_table,
    square_interval,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_ACCURACY_BITS = 64

#: Membership verdicts returned by in_PA.
MEMBER = "member"
NONMEMBER = "nonmember"
UNDECIDED = "undecided"


def precision_cap() -> int:
    """Working-precision ceiling in bits (env CYCLOHOUSE_PRECISION_CAP)."""
    try:
        return max(64, int(os.environ.get("CYCLOHOUSE_PRECISION_CAP", "4096")))
    except ValueError:
        return 4096


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, multiplicity), ...)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = 1
    for p, e in factorize(n):
        result *= (p - 1) * p ** (e - 1)
    return result


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


def canonical_conductor(m: int) -> int:
    """Conductor of the field generated by a primitive m-th root of unity."""
    if m <= 2:
        return 1
    return m // 2 if m % 4 == 2 else m


class _Cyclotomy:
    """Cached per-conductor data: Phi_n, reduced power rows, torsion table."""

    __slots__ = ("n", "phi", "cyclo", "_rows", "_torsion", "_units", "_lock")

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        self.cyclo = cyclotomic_polynomial(n)
        # _rows[i] holds the power-basis coordinates of zeta^(phi+i);
        # exponents below phi are basis vectors and never materialized.
        self._rows: list[tuple[int, ...]] = []
        self._torsion: dict | None = None
        self._units: tuple[int, ...] | None = None
        self._lock = threading.Lock()

    @property
    def units(self) -> tuple[int, ...]:
        if self._units is None:
            n = self.n
            self._units = tuple(t for t in range(1, n) if math.gcd(t, n) == 1)
        return self._units

    def _ensure_rows(self, e: int) -> None:
        if len(self._rows) > e - self.phi:
            return
        with self._lock:
            phi, c = self.phi, self.cyclo
            if not self._rows:
                # zeta^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})
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
        """Coordinates of zeta^e for phi <= e < n (or beyond)."""
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

    def torsion_table(self) -> dict:
        """Map from int-coordinate tuples to k, covering all mu_M, M = lcm(2, n)."""
        if self._torsion is None:
            n = self.n
            table: dict[tuple[int, ...], int] = {}
            m_tor = n if n % 2 == 0 else 2 * n
            for k in range(m_tor):
                if n % 2 == 0:
                    vec = self._int_power_vec(k)
                else:
                    # zeta_{2n}^k = (-1)^k * zeta_n^(k*(n+1)/2 mod n)
                    e = (k * ((n + 1) // 2)) % n
                    vec = self._int_power_vec(e)
                    if k % 2 == 1:
                        vec = tuple(-v for v in vec)
                table.setdefault(vec, k)
            self._torsion = table
        return self._torsion

    def _int_power_vec(self, e: int) -> tuple[int, ...]:
        e %= self.n
        if e < self.phi:
            vec = [0] * self.phi
            vec[e] = 1
            return tuple(vec)
        return self.row(e)


@lru_cache(maxsize=None)
def _cyclotomy(n: int) -> _Cyclotomy:
    return _Cyclotomy(n)


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


# ---------------------------------------------------------------------------
# canonicalization


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


def _sigma_coords(ctx: _Cyclotomy, coords, t: int) -> list[Fraction]:
    """Coordinates of sigma_t(a) where sigma_t(zeta) = zeta^t."""
    acc = [_ZERO] * ctx.phi
    for j, c in enumerate(coords):
        if c:
            ctx.power_accumulate(acc, (t * j) % ctx.n, c)
    return acc


def _scaled_nonzero_coords(coords):
    """(den, [(j, int numerator)]) clearing denominators of the nonzeros."""
    den = 1
    for c in coords:
        if c:
            den = den * c.denominator // math.gcd(den, c.denominator)
    return den, [(j, int(c * den)) for j, c in enumerate(coords) if c]


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


def _try_drop_prime(n: int, coords, p: int) -> list[Fraction] | None:
    """Express the element in Q(zeta_m), m = n/p, or None if it is not there.

    No linear algebra is needed: the power basis at n splits over
    Q(zeta_m).  When p divides m the minimal polynomial of zeta_n over
    Q(zeta_m) is x^p - zeta_m, so exponent k = i + p*j contributes
    c_k * zeta_m^j to the relative coordinate y_i, and membership means
    y_i = 0 for every i >= 1.  When p does not divide m, the CRT
    factorization zeta_n^k = P^(k mod p) * M^(k mod m) (P of order p,
    M of order m) groups the coordinates into w_0, ..., w_{p-1} in
    Q(zeta_m); since 1 + P + ... + P^(p-1) = 0, membership means
    w_1 = ... = w_{p-1} and the value is then w_0 - w_1.
    """
    m = n // p
    ctx_m = _cyclotomy(m)
    phi_m = ctx_m.phi
    buckets = [[_ZERO] * phi_m for _ in range(p)]
    if m % p == 0:
        # zeta_n^(i + p*j) = zeta_n^i * zeta_m^j with j < phi(m): delta rows
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


def _canonicalize(n: int, coords: list[Fraction]) -> tuple[int, tuple[Fraction, ...]]:
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
            dropped = _try_drop_prime(n, coords, p)
            if dropped is not None:
                n //= p
                coords = dropped
                descended = True
                break
        if not descended:
            return n, tuple(coords)


# ---------------------------------------------------------------------------
# the element type


class CycNum:
    """Exact element of the cyclotomic closure of Q.

    Instances are immutable, hashable and always canonical.  The public
    constructor accepts coordinates at any conductor (including ones
    congruent to 2 mod 4) and normalizes them.
    """

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords):
        if n < 1:
            raise DomainError("conductor must be positive")
        coords = [Fraction(c) for c in coords]
        if len(coords) != euler_phi(n):
            raise DomainError(
                f"expected {euler_phi(n)} coordinates at conductor {n}, got {len(coords)}"
            )
        cn, cc = _canonicalize(n, coords)
        object.__setattr__(self, "n", cn)
        object.__setattr__(self, "coords", cc)

    def __setattr__(self, *_):
        raise AttributeError("CycNum is immutable")

    @classmethod
    def _raw(cls, n: int, coords: tuple[Fraction, ...]) -> "CycNum":
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "coords", coords)
        return obj

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rational(cls, v) -> "CycNum":
        return cls._raw(1, (Fraction(v),))

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CycNum":
        """The root of unity zeta_m^k, canonicalized."""
        if m < 1:
            raise DomainError("root-of-unity order must be positive")
        k %= m
        n = canonical_conductor(m)
        if n == 1:  # m <= 2
            return cls.from_rational(-1 if (m == 2 and k == 1) else 1)
        ctx = _cyclotomy(n)
        acc = [_ZERO] * ctx.phi
        if m == n:
            ctx.power_accumulate(acc, k, _ONE)
        else:  # m = 2n with n odd
            e = (k * ((n + 1) // 2)) % n
            ctx.power_accumulate(acc, e, -_ONE if k % 2 else _ONE)
        cn, cc = _canonicalize(n, acc)
        return cls._raw(cn, cc)

    zero: "CycNum"
    one: "CycNum"

    # -- representation ----------------------------------------------

    def __repr__(self):
        return f"CycNum({self.n}, {[str(c) for c in self.coords]})"

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.coords == other.coords

    def __hash__(self):
        return hash((self.n, self.coords))

    def __bool__(self):
        return any(self.coords)

    @property
    def is_rational(self) -> bool:
        return self.n == 1

    def as_rational(self) -> Fraction:
        if self.n != 1:
            raise DomainError("value is not rational")
        return self.coords[0]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return CycNum._raw(1, (self.coords[0] + other.coords[0],))
        n = _lcm(self.n, other.n)
        a = _embed_list(self, n)
        b = _embed_list(other, n)
        cn, cc = _canonicalize(n, [x + y for x, y in zip(a, b)])
        return CycNum._raw(cn, cc)

    __radd__ = __add__

    def __neg__(self):
        return CycNum._raw(self.n, tuple(-c for c in self.coords))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            return CycNum._raw(1, (self.coords[0] * other.coords[0],))
        if self.n == 1:
            q = self.coords[0]
            if q == 0:
                return CycNum.zero
            return CycNum._raw(other.n, tuple(q * c for c in other.coords))
        if other.n == 1:
            return other.__mul__(self)
        n = _lcm(self.n, other.n)
        ctx = _cyclotomy(n)
        a = _embed_list(self, n)
        b = _embed_list(other, n)
        conv = [_ZERO] * (2 * ctx.phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        acc = list(conv[: ctx.phi])
        acc += [_ZERO] * (ctx.phi - len(acc))
        for e in range(ctx.phi, len(conv)):
            if conv[e]:
                ctx.power_accumulate(acc, e, conv[e])
        cn, cc = _canonicalize(n, acc)
        return CycNum._raw(cn, cc)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if not self:
            raise DomainError("division by zero")
        if self.n == 1:
            return CycNum._raw(1, (1 / self.coords[0],))
        inv_coords = _inv_mod_cyclo(self.n, self.coords)
        return CycNum._raw(self.n, tuple(inv_coords))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNum.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {"conductor": self.n, "coords": [str(c) for c in self.coords]}

    @classmethod
    def from_dict(cls, d: dict) -> "CycNum":
        return cls(int(d["conductor"]), [Fraction(c) for c in d["coords"]])


CycNum.zero = CycNum._raw(1, (_ZERO,))
CycNum.one = CycNum._raw(1, (_ONE,))


def _coerce(v):
    if isinstance(v, CycNum):
        return v
    if isinstance(v, (int, Fraction)):
        return CycNum._raw(1, (Fraction(v),))
    return NotImplemented


def _embed_list(a: CycNum, n: int) -> list[Fraction]:
    """Coordinates of a at conductor n (a.n must divide n)."""
    if a.n == n:
        return list(a.coords)
    ctx = _cyclotomy(n)
    step = n // a.n
    acc = [_ZERO] * ctx.phi
    for j, c in enumerate(a.coords):
        if c:
            ctx.power_accumulate(acc, step * j, c)
    return acc


def _inv_mod_cyclo(n: int, coords) -> list[Fraction]:
    """Extended Euclid against Phi_n; returns coords of the inverse."""
    phi = euler_phi(n)
    r0 = [Fraction(c) for c in cyclotomic_polynomial(n)]
    r1 = list(coords)
    while r1 and not r1[-1]:
        r1.pop()
    s0: list[Fraction] = []
    s1: list[Fraction] = [_ONE]
    while len(r1) > 1:
        q, rem = _poly_divmod_frac(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub_frac(s0, _poly_mul_frac(q, s1))
        while r1 and not r1[-1]:
            r1.pop()
    if not r1:
        raise DomainError("division by zero")
    c = r1[0]
    out = [v / c for v in s1]
    out += [_ZERO] * (phi - len(out))
    return out[:phi]


def _poly_divmod_frac(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    q = [_ZERO] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f = a[i] / lead
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] -= f * b[j]
    return q, a[:db]


def _poly_mul_frac(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub_frac(a, b):
    out = list(a) + [_ZERO] * max(0, len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return out


# ---------------------------------------------------------------------------
# spec operations


def cyc_add(a: CycNum, b: CycNum) -> CycNum:
    return a + b


def cyc_mul(a: CycNum, b: CycNum) -> CycNum:
    return a * b


def cyc_neg(a: CycNum) -> CycNum:
    return -a


def cyc_inv(a: CycNum) -> CycNum:
    return a.inverse()


def embed_at_conductor(a: CycNum, m: int) -> list[Fraction]:
    """Coordinates of a in the power basis of Q(zeta_m)."""
    if m < 1:
        raise DomainError("conductor must be positive")
    if m % a.n != 0:
        raise DomainError(f"minimal conductor {a.n} does not divide {m}")
    return _embed_list(a, m)


def conjugates(a: CycNum) -> list[CycNum]:
    """All Q-Galois conjugates sigma_t(a), t running over (Z/n)^x.

    The result is a multiset of length phi(n) containing a itself
    (t = 1 comes first); repeated values are kept.
    """
    if a.n == 1:
        return [a]
    return [conjugate(a, t) for t in _cyclotomy(a.n).units]


def conjugate(a: CycNum, t: int) -> CycNum:
    """sigma_t(a) for t coprime to a.n (t is read mod a.n).

    A conjugate keeps the minimal conductor, so it is canonical as built.
    """
    n = a.n
    t %= n
    if t == 1 or n == 1:
        return a
    # Reuse a's coordinate objects for equal values: a scan result holds
    # many conjugates of one value, and this keeps one copy of each.
    same = {c: c for c in a.coords}
    coords = _sigma_coords(_cyclotomy(n), a.coords, t)
    return CycNum._raw(n, tuple(same.get(c, c) for c in coords))


def is_algebraic_integer(a: CycNum) -> bool:
    """True iff a lies in Z[zeta_n] (all power-basis coordinates integral)."""
    return all(c.denominator == 1 for c in a.coords)


@dataclass(frozen=True, slots=True)
class HouseResult:
    """Rigorous enclosure [lower, upper] of the house of an element."""

    lower: Fraction
    upper: Fraction
    precision_bits: int

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def to_dict(self) -> dict:
        from .formatting import decimal_lower, decimal_upper

        return {
            "lower": decimal_lower(self.lower),
            "upper": decimal_upper(self.upper),
            "precision_bits": self.precision_bits,
        }


@lru_cache(maxsize=None)
def _units_half(n: int) -> tuple[int, ...]:
    """Units t <= n/2; sigma_t and sigma_{n-t} give conjugate values."""
    return tuple(t for t in range(1, n // 2 + 1) if math.gcd(t, n) == 1)


def house(
    a: CycNum,
    accuracy_bits: int = DEFAULT_ACCURACY_BITS,
    *,
    cap: int | None = None,
) -> HouseResult:
    """Enclose max over conjugates of |a| to within 2^-accuracy_bits.

    Each conjugate sigma_t(a) is evaluated at zeta_n = exp(2*pi*i/n)
    with outward-rounded fixed-point intervals; the working precision
    escalates until the enclosure of the maximum is narrow enough.

    Raises UndecidedError if the precision cap is exhausted first.
    """
    if accuracy_bits < 1:
        raise DomainError("accuracy_bits must be >= 1")
    cap = precision_cap() if cap is None else cap
    n = a.n
    if n == 1:
        v = abs(a.coords[0])
        return HouseResult(v, v, accuracy_bits)
    den, nz = _scaled_nonzero_coords(a.coords)
    target = Fraction(1, 1 << accuracy_bits)
    # Round the working precision up to a coarse bucket so the cached
    # root tables are shared across elements of the same conductor.
    raw = accuracy_bits + 16 + den.bit_length() + len(nz).bit_length()
    prec = ((raw + 63) // 64) * 64
    while True:
        if prec > cap:
            raise UndecidedError(
                f"house computation needs more than the {cap}-bit precision cap"
            )
        tab = root_table(n, prec)
        best_lo = best_hi = None
        for t in _units_half(n):
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
            lo2 = s1_lo + s2_lo
            hi2 = s1_hi + s2_hi
            if best_lo is None or lo2 > best_lo:
                best_lo = lo2
            if best_hi is None or hi2 > best_hi:
                best_hi = hi2
        scale = (1 << prec) * den
        lower = Fraction(isqrt_floor(best_lo), scale)
        upper = Fraction(isqrt_ceil(best_hi), scale)
        if upper - lower <= target:
            return HouseResult(lower, upper, prec)
        prec *= 2


def embedding_box(a: CycNum, t: int = 1, scale_bits: int = 64) -> ComplexBox:
    """Rigorous rectangle around sigma_t(a) at the standard embedding."""
    if a.n == 1:
        return ComplexBox.point(a.coords[0])
    den, nz = _scaled_nonzero_coords(a.coords)
    rl, rh, il, ih = _accumulate_embedding(a.n, nz, t, scale_bits)
    q = Fraction(1, (1 << scale_bits) * den)
    return ComplexBox(
        RealInterval(rl * q, rh * q),
        RealInterval(il * q, ih * q),
    )


@dataclass(frozen=True, slots=True)
class RootOfUnity:
    """zeta_order^exponent in lowest terms (minimal order)."""

    order: int
    exponent: int

    @classmethod
    def make(cls, order: int, exponent: int) -> "RootOfUnity":
        if order < 1:
            raise DomainError("order must be positive")
        exponent %= order
        g = math.gcd(exponent, order)
        if exponent == 0:
            return cls(1, 0)
        return cls(order // g, (exponent // g) % (order // g))

    def to_cycnum(self) -> CycNum:
        return CycNum.zeta(self.order, self.exponent)

    def to_dict(self) -> dict:
        return {"order": self.order, "exp": self.exponent}

    def __str__(self):
        if self.order == 1:
            return "1"
        if self.order == 2:
            return "-1"
        if self.exponent == 1:
            return f"z{self.order}"
        return f"z{self.order}^{self.exponent}"


def is_root_of_unity(a: CycNum) -> RootOfUnity | None:
    """Exact torsion test: the canonical root of unity equal to a, if any.

    Equivalent to testing a^M = 1 for M = lcm(2, n): the torsion of
    Q(zeta_n)^x is exactly mu_M, realized here as a table lookup against
    all M candidates at the minimal conductor.
    """
    if not is_algebraic_integer(a):
        return None
    if not a:
        return None
    key = tuple(int(c) for c in a.coords)
    ctx = _cyclotomy(a.n)
    k = ctx.torsion_table().get(key)
    if k is None:
        return None
    m_tor = a.n if a.n % 2 == 0 else 2 * a.n
    return RootOfUnity.make(m_tor, k)


def in_PA(
    a: CycNum,
    A,
    accuracy_bits: int = DEFAULT_ACCURACY_BITS,
    *,
    cap: int | None = None,
) -> str:
    """Membership of a in P_A (algebraic integers of house at most A).

    Returns "member", "nonmember" or "undecided".  A = 1 and rational
    arguments are decided exactly; otherwise the house enclosure is
    refined until it separates from A or the precision cap is reached.
    """
    A = Fraction(A)
    if A < 1:
        raise DomainError("A must be at least 1")
    if not is_algebraic_integer(a):
        return NONMEMBER
    if not a:
        return MEMBER  # house(0) = 0; 0 is an algebraic integer
    if A == 1:
        return MEMBER if is_root_of_unity(a) is not None else NONMEMBER
    cap = precision_cap() if cap is None else cap
    bits = accuracy_bits
    while True:
        try:
            hr = house(a, bits, cap=cap)
        except UndecidedError:
            return UNDECIDED
        if hr.upper <= A:
            return MEMBER
        if hr.lower > A:
            return NONMEMBER
        bits *= 2
        if bits > cap:
            return UNDECIDED


@dataclass(frozen=True)
class LoxtonProfile:
    """Stand-in for the nonconstructive short-sum machinery over Q.

    B scales the house argument; E is the coefficient set (always {1}
    over Q); budget is a nondecreasing step function mapping a real x to
    the maximal number of root-of-unity terms allowed for elements of
    house x.  The true bound function is only known to exist, so the
    budget is user-supplied.
    """

    B: Fraction
    E: tuple[CycNum, ...]
    budget: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        if self.B <= 0:
            raise DomainError("B must be positive")
        if not self.E:
            raise DomainError("E must be nonempty")
        last_x = None
        last_d = None
        for x, d in self.budget:
            if last_x is not None and (x < last_x or d < last_d):
                raise DomainError("budget must be monotone nondecreasing")
            last_x, last_d = x, d

    @classmethod
    def default(cls, d_max: int, B=1) -> "LoxtonProfile":
        return cls(
            B=Fraction(B),
            E=(CycNum.one,),
            budget=((Fraction(0), int(d_max)),),
        )

    @classmethod
    def empty(cls, B=1) -> "LoxtonProfile":
        return cls(B=Fraction(B), E=(CycNum.one,), budget=())

    def budget_value(self, x) -> int:
        x = Fraction(x)
        best = 0
        for threshold, d in self.budget:
            if threshold <= x:
                best = d
            else:
                break
        return best


def loxton_decompose(
    a: CycNum,
    d_max: int,
    *,
    max_half_table: int = 2_000_000,
) -> list[tuple[CycNum, RootOfUnity]] | None:
    """Shortest representation of a as a sum of roots of unity.

    The search space is restricted to roots of unity living in
    Q(zeta_n) itself, i.e. those of order dividing lcm(2, n) for the
    minimal conductor n; whether elements of Z[zeta_n] can ever need
    roots of higher conductor is open, so "None" means "no
    representation with at most d_max terms in that restricted space".
    Coefficients are always 1 (the coefficient set over Q).
    """
    if d_max < 1:
        raise DomainError("d_max must be >= 1")
    if not is_algebraic_integer(a):
        raise DomainError("loxton_decompose requires an algebraic integer")
    if not a:
        return []
    n = a.n
    ctx = _cyclotomy(n)
    m_tor = n if n % 2 == 0 else 2 * n
    vecs = []
    for k in range(m_tor):
        if n % 2 == 0:
            vecs.append(ctx._int_power_vec(k))
        else:
            e = (k * ((n + 1) // 2)) % n
            v = ctx._int_power_vec(e)
            vecs.append(tuple(-x for x in v) if k % 2 else v)
    target = tuple(int(c) for c in a.coords)

    single = {v: k for k, v in reversed(list(enumerate(vecs)))}
    if target in single:
        sol = [single[target]]
        return _loxton_result(a, m_tor, sol)

    for d in range(2, d_max + 1):
        d1 = d // 2
        d2 = d - d1
        if math.comb(m_tor + d1 - 1, d1) > max_half_table:
            raise ResourceLimitError(
                f"loxton search table would exceed {max_half_table} entries"
            )
        left: dict[tuple[int, ...], tuple[int, ...]] = {}
        for combo in itertools.combinations_with_replacement(range(m_tor), d1):
            s = vecs[combo[0]]
            for k in combo[1:]:
                s = tuple(x + y for x, y in zip(s, vecs[k]))
            left.setdefault(s, combo)
        for combo in itertools.combinations_with_replacement(range(m_tor), d2):
            s = vecs[combo[0]]
            for k in combo[1:]:
                s = tuple(x + y for x, y in zip(s, vecs[k]))
            need = tuple(x - y for x, y in zip(target, s))
            hit = left.get(need)
            if hit is not None:
                return _loxton_result(a, m_tor, sorted(hit + combo))
    return None


def _loxton_result(a: CycNum, m_tor: int, ks) -> list[tuple[CycNum, RootOfUnity]]:
    roots = sorted(
        (RootOfUnity.make(m_tor, k) for k in ks),
        key=lambda r: (r.order, r.exponent),
    )
    total = CycNum.zero
    for r in roots:
        total = total + r.to_cycnum()
    if total != a:
        raise AssertionError("loxton decomposition failed to re-sum")
    return [(CycNum.one, r) for r in roots]

"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored as its conductor n, a tuple of integer numerators
in the power basis 1, zeta_n, ..., zeta_n^(phi(n)-1) reduced modulo the
n-th cyclotomic polynomial, and one positive common denominator (the
FLINT ``fmpq_poly`` / ANTIC ``nf_elem`` layout).  Values are always
kept in canonical form:

* the conductor is minimal (no proper divisor m | n has the element
  inside Q(zeta_m)),
* n is never congruent to 2 mod 4 (Q(zeta_{2m}) = Q(zeta_m) for odd m),
  and
* the denominator is the least one: gcd(den, *num) == 1,

so equality and hashing are plain tuple comparisons regardless of how a
value was built.  Arithmetic runs on the integer numerators; the
rational coordinates are derived on demand (``coords``).  Inversion
multiplies by the other conjugates over Q(zeta_(n/p)), p the smallest
prime of n, and recurses on the relative norm at the smaller conductor
(``CycNum.inverse``), so it too is products and Galois conjugates only.

The analytic side (house computation) evaluates Galois conjugates at
the standard embedding zeta_n -> exp(2*pi*i/n) with the fixed-point
interval machinery from ``intervals``; every bound it reports is a
rigorous enclosure.  ``house`` and ``compare_house`` (behind ``in_PA``)
climb one precision ladder (``_rungs``) of integer bounds on the largest
squared conjugate modulus, which an element keeps per working precision;
the boundary house(a) = A is decided exactly, from a * conj(a) = A^2.
Root-of-unity tests read a torsion table at rad(n), not at n.
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
    isqrt_ceil,
    isqrt_floor,
    root_table,
    square_interval,
)

DEFAULT_ACCURACY_BITS = 64

#: Membership verdicts returned by in_PA.
MEMBER = "member"
NONMEMBER = "nonmember"
UNDECIDED = "undecided"


def precision_cap() -> int:
    """Working-precision ceiling in bits (env CYCLOHOUSE_PRECISION_CAP).

    Raises DomainError for a value that is not an integer >= 64.
    """
    text = os.environ.get("CYCLOHOUSE_PRECISION_CAP", "4096")
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 64:
        raise DomainError(
            f"CYCLOHOUSE_PRECISION_CAP must be an integer >= 64, got {text!r}"
        )
    return cap


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


@lru_cache(maxsize=None)
def _primitive_root(p: int) -> int:
    """The least generator of (Z/p)^x for a prime p."""
    qs = [q for q, _ in factorize(p - 1)]
    return next(r for r in range(1, p) if all(pow(r, (p - 1) // q, p) != 1 for q in qs))


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending, length phi(n)+1 (monic).

    Built from Phi_n(x) = Phi_rad(n)(x^(n/rad(n))) and, for squarefree
    n = m*p with p the largest prime, Phi_n(x) = Phi_m(x^p) / Phi_m(x)
    (Arnold and Monagan, "Calculating cyclotomic polynomials", 2011).
    """
    if n == 1:
        return (-1, 1)
    rad = math.prod(p for p, _ in factorize(n))
    if rad != n:
        return _substitute_power(cyclotomic_polynomial(rad), n // rad)
    m = n // factorize(n)[-1][0]
    base = cyclotomic_polynomial(m)
    return tuple(_int_poly_exact_div(_substitute_power(base, n // m), base))


def _substitute_power(c: tuple[int, ...], s: int) -> tuple[int, ...]:
    """Coefficients of f(x^s) from those of f."""
    out = [0] * (s * (len(c) - 1) + 1)
    out[::s] = c
    return tuple(out)


def _int_poly_exact_div(num: tuple[int, ...], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials, den monic."""
    num = list(num)
    dd = len(den) - 1
    low = [(j, dj) for j, dj in enumerate(den[:dd]) if dj]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dd] = c
        for j, dj in low:
            num[i - dd + j] -= c * dj
    return out


def canonical_conductor(m: int) -> int:
    """Conductor of the field generated by a primitive m-th root of unity."""
    if m <= 2:
        return 1
    return m // 2 if m % 4 == 2 else m


class _Cyclotomy:
    """Cached per-conductor data: Phi_n, reduced power rows, torsion table."""

    __slots__ = ("n", "rad", "phi", "cyclo", "low", "_rows", "_torsion", "_units", "_lock")

    def __init__(self, n: int):
        self.n = n
        self.rad = math.prod(p for p, _ in factorize(n))
        self.phi = euler_phi(n)
        self.cyclo = cyclotomic_polynomial(n)
        # Nonzero (r, c_r) of Phi_n below its leading term, for reduction.
        self.low = tuple((r, c) for r, c in enumerate(self.cyclo[:-1]) if c)
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

    def reduce(self, acc: list[int]) -> list[int]:
        """Reduce integer exponent coefficients modulo Phi_n, in place.

        acc[e] is the coefficient of zeta^e (len(acc) >= phi); the
        returned list is acc cut to its phi power-basis coordinates.
        """
        phi, low = self.phi, self.low
        for e in range(len(acc) - 1, phi - 1, -1):
            c = acc[e]
            if c:
                base = e - phi
                for r, cr in low:
                    acc[base + r] -= c * cr
        del acc[phi:]
        return acc

    def torsion_vectors(self) -> list[tuple[int, ...]]:
        """Coordinates of zeta_M^k for k < M, M = lcm(2, n); built per call."""
        n = self.n
        if n % 2 == 0:
            return [self._int_power_vec(k) for k in range(n)]
        vecs = []
        for k in range(2 * n):
            # zeta_{2n}^k = (-1)^k * zeta_n^(k*(n+1)/2 mod n)
            vec = self._int_power_vec(k * ((n + 1) // 2))
            vecs.append(tuple(-v for v in vec) if k % 2 else vec)
        return vecs

    def torsion_table(self) -> dict:
        """Map from int-coordinate tuples to k, covering all mu_M, M = lcm(2, n).

        Dense in n; ``root_of_unity`` reads it at rad(n) only.
        """
        if self._torsion is None:
            table: dict[tuple[int, ...], int] = {}
            for k, vec in enumerate(self.torsion_vectors()):
                table.setdefault(vec, k)
            self._torsion = table
        return self._torsion

    def root_of_unity(self, num: tuple[int, ...]) -> RootOfUnity | None:
        """The root of unity with integer coordinates num at n, if any.

        Phi_n(x) = Phi_rad(x^s) with s = n/rad, so zeta_n^(q*s + r) has the
        coordinates of zeta_rad^q in the slots r, r+s, r+2s, ...: a root of
        unity is nonzero in exactly one residue class r mod s, and that
        class is a torsion vector at rad(n).
        """
        n, rad = self.n, self.rad
        m_tor = n if n % 2 == 0 else 2 * n  # the torsion of Q(zeta_n) is mu_m_tor
        s = n // rad
        r = next((j for j, c in enumerate(num) if c), 0) % s
        part = num[r::s]
        if len(num) - num.count(0) != len(part) - part.count(0):
            return None
        k = _cyclotomy(rad).torsion_table().get(part)
        if k is None:
            return None
        # the value is zeta_n^r * zeta_m_rad^k
        m_rad = rad if rad % 2 == 0 else 2 * rad
        return RootOfUnity.make(m_tor, r * (m_tor // n) + k * (m_tor // m_rad))

    def _int_power_vec(self, e: int) -> tuple[int, ...]:
        e %= self.n
        if e < self.phi:
            vec = [0] * self.phi
            vec[e] = 1
            return tuple(vec)
        rad = self.rad
        if rad == self.n:
            return self.row(e)
        # Phi_n(x) = Phi_rad(x^s), so zeta^e = (zeta^s)^q * zeta^r reads
        # the row of y^q at conductor rad into the slots r, r+s, r+2s, ...
        s = self.n // rad
        q, r = divmod(e, s)
        vec = [0] * self.phi
        vec[r::s] = _cyclotomy(rad).row(q)
        return tuple(vec)


@lru_cache(maxsize=None)
def _cyclotomy(n: int) -> _Cyclotomy:
    return _Cyclotomy(n)


# ---------------------------------------------------------------------------
# canonicalization (integer numerators; the denominator rides along)


def _rewrite_2mod4(n: int, num: list[int]) -> tuple[int, list[int]]:
    """Rewrite coordinates at conductor n = 2m (m odd) in terms of zeta_m."""
    m = n // 2
    if m == 1:
        return 1, [num[0]]
    half = (m + 1) // 2
    acc = [0] * m
    for j, c in enumerate(num):
        if c:
            acc[(j * half) % m] += -c if j % 2 else c
    return m, _cyclotomy(m).reduce(acc)


def _sigma_coords(ctx: _Cyclotomy, num, t: int) -> list[int]:
    """Numerators of sigma_t(a) where sigma_t(zeta) = zeta^t."""
    n = ctx.n
    acc = [0] * n
    for j, c in enumerate(num):
        if c:
            acc[(t * j) % n] += c
    return ctx.reduce(acc)


def _try_drop_prime(n: int, num, p: int) -> list[int] | None:
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
    if m % p == 0:
        # zeta_n^(i + p*j) = zeta_n^i * zeta_m^j with j < phi(m): delta rows
        if any(num[k] for k in range(len(num)) if k % p):
            return None
        return list(num[::p])
    # p is odd here (n is never 2 mod 4), so buckets 1 and 2 exist; they
    # are compared before the others are built.
    ctx_m = _cyclotomy(m)
    inv_p = pow(p, -1, m)

    def bucket(r: int) -> list[int]:
        acc = [0] * m
        for k in range(r, len(num), p):
            c = num[k]
            if c:
                acc[(inv_p * k) % m] += c
        return ctx_m.reduce(acc)

    first = bucket(1)
    for r in range(2, p):
        if bucket(r) != first:
            return None
    return [a - b for a, b in zip(bucket(0), first)]


def _canonicalize(n: int, num: list[int]) -> tuple[int, list[int]]:
    """Minimal conductor and its numerators (zero comes back as (1, [0]))."""
    while True:
        if n % 4 == 2:
            n, num = _rewrite_2mod4(n, num)
        if n == 2:
            n = 1
        if n == 1:
            return 1, [num[0]]
        if not any(num):
            return 1, [0]
        for p, _ in factorize(n):
            dropped = _try_drop_prime(n, num, p)
            if dropped is not None:
                n //= p
                num = dropped
                break
        else:
            return n, num


def _lowest_terms(num, den: int) -> tuple[tuple[int, ...], int]:
    """(num, den) divided by gcd(den, *num); den must be positive."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return tuple(num), den


def _from_fractions(coords) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of coords."""
    coords = [Fraction(c) for c in coords]
    den = math.lcm(*(c.denominator for c in coords))
    return [c.numerator * (den // c.denominator) for c in coords], den


# ---------------------------------------------------------------------------
# the element type


class CycNum:
    """Exact element of the cyclotomic closure of Q.

    Instances are immutable, hashable and always canonical.  The public
    constructor accepts coordinates at any conductor (including ones
    congruent to 2 mod 4) and normalizes them.  ``num`` holds the
    integer numerators and ``den`` the positive common denominator;
    ``coords`` gives the same values as Fractions.  ``_squares``, set on
    the first ``house`` call, keeps the conjugate bounds per working
    precision (``_max_square_bounds``).
    """

    __slots__ = ("n", "num", "den", "_squares")

    def __init__(self, n: int, coords):
        if n < 1:
            raise DomainError("conductor must be positive")
        num, den = _from_fractions(coords)
        if len(num) != euler_phi(n):
            raise DomainError(
                f"expected {euler_phi(n)} coordinates at conductor {n}, got {len(num)}"
            )
        cn, cnum = _canonicalize(n, num)
        cnum, den = _lowest_terms(cnum, den)
        _set_n(self, cn)
        _set_num(self, cnum)
        _set_den(self, den)

    def __setattr__(self, *_):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def from_rational(cls, v) -> "CycNum":
        return _coerce(v if isinstance(v, (int, Fraction)) else Fraction(v))

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CycNum":
        """The root of unity zeta_m^k, canonicalized."""
        if m < 1:
            raise DomainError("root-of-unity order must be positive")
        k %= m
        g = math.gcd(k, m)  # zeta_m^k is a primitive (m/g)-th root of unity
        m //= g
        k //= g
        n = canonical_conductor(m)
        if n == 1:  # m <= 2
            return _new(1, (-1 if m == 2 else 1,))
        ctx = _cyclotomy(n)
        if m == n:
            return _new(n, ctx._int_power_vec(k))
        # m = 2n with n odd (k is odd): zeta_m^k = -zeta_n^(k*(n+1)/2)
        vec = ctx._int_power_vec(k * ((n + 1) // 2))
        return _new(n, tuple(-v for v in vec))

    zero: "CycNum"
    one: "CycNum"

    # -- representation ----------------------------------------------

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Rational power-basis coordinates at the minimal conductor."""
        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.num))
        return tuple(Fraction(c, den) for c in self.num)

    def __repr__(self):
        return f"CycNum({self.n}, {[str(c) for c in self.coords]})"

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.n, self.num, self.den))

    def __bool__(self):
        # Zero is canonical only as (1, (0,), 1).
        return self.n != 1 or self.num[0] != 0

    @property
    def is_rational(self) -> bool:
        return self.n == 1

    def as_rational(self) -> Fraction:
        if self.n != 1:
            raise DomainError("value is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not CycNum:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            den, sa, sb = da, 1, 1
        else:
            den = math.lcm(da, db)
            sa, sb = den // da, den // db
        if self.n == 1 or other.n == 1:
            # Adding a rational moves coordinate 0 only and keeps the
            # other summand's (minimal) conductor.
            if self.n != 1:
                self, other, sa, sb = other, self, sb, sa
            num = [c * sb for c in other.num] if sb != 1 else list(other.num)
            num[0] += self.num[0] * sa
            num, den = _lowest_terms(num, den)
            return _new(other.n, num, den)
        n = math.lcm(self.n, other.n)
        a = _embed_list(self, n)
        b = _embed_list(other, n)
        if sa == 1 and sb == 1:
            num = [x + y for x, y in zip(a, b)]
        else:
            num = [x * sa + y * sb for x, y in zip(a, b)]
        return _make(n, num, den)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.n, tuple(-c for c in self.num), self.den)

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
        if other.__class__ is not CycNum:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.n == 1 or other.n == 1:
            if self.n != 1:
                self, other = other, self
            q = self.num[0]
            if q == 0:
                return CycNum.zero
            # A nonzero rational factor keeps the conductor.
            num, den = _lowest_terms([q * c for c in other.num], self.den * other.den)
            return _new(other.n, num, den)
        n = math.lcm(self.n, other.n)
        ctx = _cyclotomy(n)
        a = _embed_list(self, n)
        nzb = [(j, y) for j, y in enumerate(_embed_list(other, n)) if y]
        conv = [0] * (2 * ctx.phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in nzb:
                    conv[i + j] += x * y
        return _make(n, ctx.reduce(conv), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """1/a down the tower Q(zeta_n) > Q(zeta_m) > ... > Q.

        With p the smallest prime of n and m = n/p, c = prod sigma_h(a)
        over 1 != h in the cyclic group H = Gal(Q(zeta_n)/Q(zeta_m))
        makes a*c the relative norm, which lies at a conductor dividing
        m, so 1/a = c * (a*c)^-1.  c is sigma_g of the product of
        sigma_(g^i)(a) over i < |H| - 1 (g generates H), built by
        doubling in O(log p) products.  Taking the smallest p keeps the
        top level, where products are largest, the shortest.
        """
        if not self:
            raise DomainError("division by zero")
        n = self.n
        if n == 1:
            p, q = self.num[0], self.den
            return _new(1, (q if p > 0 else -q,), abs(p))
        p = factorize(n)[0][0]
        m = n // p
        if m % p == 0:
            g, order = 1 + m, p
        else:  # g = 1 mod m and a primitive root mod p
            g, order = 1 + m * ((_primitive_root(p) - 1) * pow(m, -1, p) % p), p - 1
        block, size = self, 1
        for bit in bin(order - 1)[3:]:
            block = block * conjugate(block, pow(g, size, n))
            size *= 2
            if bit == "1":
                block = self * conjugate(block, g)
                size += 1
        c = conjugate(block, g)
        return c * (self * c).inverse()

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


# Slot setters bypass CycNum.__setattr__, which refuses every assignment.
_set_n = CycNum.n.__set__
_set_num = CycNum.num.__set__
_set_den = CycNum.den.__set__
_set_squares = CycNum._squares.__set__


def _new(n: int, num: tuple[int, ...], den: int = 1) -> CycNum:
    """Wrap canonical data as is: minimal n, den > 0, gcd(den, *num) == 1."""
    obj = object.__new__(CycNum)
    _set_n(obj, n)
    _set_num(obj, num)
    _set_den(obj, den)
    return obj


def _make(n: int, num: list[int], den: int) -> CycNum:
    """Canonicalize numerators at conductor n over den > 0."""
    cn, cnum = _canonicalize(n, num)
    cnum, den = _lowest_terms(cnum, den)
    return _new(cn, cnum, den)


CycNum.zero = _new(1, (0,))
CycNum.one = _new(1, (1,))


def _coerce(v):
    if isinstance(v, CycNum):
        return v
    if type(v) is int:
        return _new(1, (v,))
    if isinstance(v, (int, Fraction)):
        return _new(1, (int(v.numerator),), int(v.denominator))
    return NotImplemented


def _embed_list(a: CycNum, n: int) -> list[int]:
    """Numerators of a at conductor n (a.n must divide n), over a.den."""
    if a.n == n:
        return list(a.num)
    ctx = _cyclotomy(n)
    step = n // a.n
    acc = [0] * n
    acc[: step * len(a.num) : step] = a.num
    return ctx.reduce(acc)


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
    return [Fraction(c, a.den) for c in _embed_list(a, m)]


def residue_mod_p(a: CycNum, p: int, g: int, big_n: int) -> int:
    """Image of a under the ring map zeta_N -> g into F_p.

    g must have exact order N = big_n modulo the prime p, a.n must divide
    N and p must not divide a.den.  Then zeta_n -> g^(N/n), a root of
    Phi_n mod p, extends to a ring map, so a root of unity of Q(zeta_n)
    lands in the subgroup of order lcm(2, n) and a nonzero image means
    a nonzero value.
    """
    w = pow(g, big_n // a.n, p)
    acc, wj = 0, 1
    for c in a.num:
        if c:
            acc += c * wj
        wj = wj * w % p
    return acc * pow(a.den, -1, p) % p


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

    A conjugate keeps the minimal conductor and the denominator (sigma_t
    maps Z[zeta_n] onto itself), so it is canonical as built.
    """
    n = a.n
    t %= n
    if t == 1 or n == 1:
        return a
    return _new(n, tuple(_sigma_coords(_cyclotomy(n), a.num, t)), a.den)


def is_algebraic_integer(a: CycNum) -> bool:
    """True iff a lies in Z[zeta_n] (all power-basis coordinates integral)."""
    return a.den == 1


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


def _max_square_bounds(a: CycNum, prec: int) -> tuple[int, int]:
    """Integer bounds on max_t |sigma_t(a)|^2 at scale (2^prec * a.den)^2.

    Computed once per element and working precision: the result is kept
    on the element itself and goes with it.
    """
    memo = getattr(a, "_squares", None)
    if memo is not None:
        hit = memo.get(prec)
        if hit is not None:
            return hit
    n = a.n
    nz = [(j, w) for j, w in enumerate(a.num) if w]
    tab = root_table(n, prec)
    best_lo = best_hi = 0
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
        if lo2 > best_lo:
            best_lo = lo2
        if hi2 > best_hi:
            best_hi = hi2
    bounds = (best_lo, best_hi)
    if memo is None:
        _set_squares(a, {prec: bounds})
    else:
        memo[prec] = bounds
    return bounds


def _rungs(a: CycNum, accuracy_bits: int):
    """The precision ladder of an irrational a, as (prec, lo, hi, scale).

    lo <= scale^2 * max_t |sigma_t(a)|^2 <= hi with scale = 2^prec * a.den;
    prec starts at a 64-bit bucket and doubles while it is at most
    ``precision_cap()``.
    """
    cap = precision_cap()
    den = a.den
    nnz = len(a.num) - a.num.count(0)
    # Round the working precision up to a coarse bucket so the cached
    # root tables are shared across elements of the same conductor.
    raw = accuracy_bits + 16 + den.bit_length() + nnz.bit_length()
    prec = ((raw + 63) // 64) * 64
    while prec <= cap:
        lo, hi = _max_square_bounds(a, prec)
        yield prec, lo, hi, (1 << prec) * den
        prec *= 2


def house(a: CycNum, accuracy_bits: int = DEFAULT_ACCURACY_BITS) -> HouseResult:
    """Enclose max over conjugates of |a| to within 2^-accuracy_bits.

    Each conjugate sigma_t(a) is evaluated at zeta_n = exp(2*pi*i/n)
    with outward-rounded fixed-point intervals; the working precision
    climbs the ladder (``_rungs``) until the enclosure of the maximum is
    narrow enough.

    Raises UndecidedError if the precision cap is exhausted first.
    """
    if accuracy_bits < 1:
        raise DomainError("accuracy_bits must be >= 1")
    if a.n == 1:
        v = abs(a.as_rational())
        return HouseResult(v, v, accuracy_bits)
    for prec, lo2, hi2, scale in _rungs(a, accuracy_bits):
        lo = isqrt_floor(lo2)
        hi = isqrt_ceil(hi2)
        # width (hi - lo) / scale <= 2^-accuracy_bits, compared on integers
        if (hi - lo) << accuracy_bits <= scale:
            return HouseResult(Fraction(lo, scale), Fraction(hi, scale), prec)
    raise UndecidedError(
        f"house computation needs more than the {precision_cap()}-bit precision cap"
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
    Q(zeta_n)^x is exactly mu_M, realized here as a table lookup at
    rad(n) of the one nonzero residue class of the coordinates mod
    n/rad(n) (see ``_Cyclotomy.root_of_unity``).
    """
    if not is_algebraic_integer(a):
        return None
    return _cyclotomy(a.n).root_of_unity(a.num)


def in_PA(a: CycNum, A) -> str:
    """Membership of a in P_A (algebraic integers of house at most A).

    Returns "member", "nonmember" or "undecided" (``compare_house``):
    undecided means house(a) != A and no rung up to the precision cap
    separates the two.
    """
    A = Fraction(A)
    if A < 1:
        raise DomainError("A must be at least 1")
    if not is_algebraic_integer(a):
        return NONMEMBER
    at_most = compare_house(a, A)
    if at_most is None:
        return UNDECIDED
    return MEMBER if at_most else NONMEMBER


def compare_house(a: CycNum, A) -> bool | None:
    """Decide house(a) <= A for rational A: True or False, or None.

    A < 0, rational a (zero included) and A = 1 for an algebraic
    integer (its house is at most 1 iff it is a root of unity or zero)
    are decided exactly.  Otherwise each rung of the precision ladder up
    to the cap compares its bounds on the largest squared conjugate with
    A^2 on integers.  If none separates, the boundary is exact:
    conjugation commutes with every sigma_t, so |sigma_t(a)|^2 =
    sigma_t(a * conj(a)), and house(a) = A iff one, hence every,
    conjugate of a * conj(a) - A^2 vanishes.  None means house(a) != A
    and no rung separates.
    """
    A = Fraction(A)
    if A < 0:  # before any squaring, which would flip the answer
        return False
    if a.is_rational:
        return abs(a.as_rational()) <= A
    if A == 1 and is_algebraic_integer(a):
        return is_root_of_unity(a) is not None
    p, q2 = A.numerator, A.denominator**2
    for _, lo, hi, scale in _rungs(a, DEFAULT_ACCURACY_BITS):
        # lo/scale^2 <= house^2 <= hi/scale^2 against A^2 = p^2/q2
        bound = (p * scale) ** 2
        if hi * q2 <= bound:
            return True
        if lo * q2 > bound:
            return False
    return True if a * conjugate(a, -1) == A * A else None


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
            if d < 0:
                raise DomainError("budget values must be nonnegative")
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


#: Most entries one half of the meet-in-the-middle Loxton search may hold.
LOXTON_HALF_TABLE_CEILING = 2_000_000


def loxton_decompose(a: CycNum, d_max: int) -> list[tuple[CycNum, RootOfUnity]] | None:
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
    root = ctx.root_of_unity(a.num)
    if root is not None:
        return _loxton_result(a, [root])
    m_tor = n if n % 2 == 0 else 2 * n
    vecs = ctx.torsion_vectors()
    target = a.num
    for d in range(2, d_max + 1):
        d1 = d // 2
        d2 = d - d1
        if math.comb(m_tor + d1 - 1, d1) > LOXTON_HALF_TABLE_CEILING:
            raise ResourceLimitError(
                f"loxton search table would exceed {LOXTON_HALF_TABLE_CEILING} entries"
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
                return _loxton_result(a, [RootOfUnity.make(m_tor, k) for k in hit + combo])
    return None


def _loxton_result(a: CycNum, roots) -> list[tuple[CycNum, RootOfUnity]]:
    roots = sorted(roots, key=lambda r: (r.order, r.exponent))
    total = CycNum.zero
    for r in roots:
        total = total + r.to_cycnum()
    if total != a:
        raise AssertionError("loxton decomposition failed to re-sum")
    return [(CycNum.one, r) for r in roots]

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
rational coordinates are derived on demand (``coords``).  Embeddings,
conjugates, roots of unity and the descent to a subfield, one prime at
a time (the prime 2 of n = 2m, m odd, always drops), each scatter
exponents into one dense row that is reduced once (``_scatter``); a
prime that does not drop is rejected first by F_p images of the rows
the descent would scatter (``_try_drop_prime``).  Inversion
multiplies by the other conjugates over Q(zeta_(n/p)), p the smallest
prime of n, and recurses on the relative norm at the smaller conductor
(``CycNum.inverse``), so it too is products and Galois conjugates only.

The analytic side (house computation) evaluates Galois conjugates at
the standard embedding zeta_n -> exp(2*pi*i/n) with the fixed-point
interval machinery from ``intervals``; every bound it reports is a
rigorous enclosure.  ``house`` and ``compare_house`` (behind ``in_PA``)
climb one precision ladder (``_rungs``) of integer bounds on the largest
squared conjugate modulus.  An element keeps those bounds per working
precision, its ``HouseResult`` per accuracy, and a screen from its first
rung, so that any other rung evaluates only the conjugates that can hold
the house (``_max_square_bounds``).  When that first loop is large, the
screen is read off the element's Zumbroich form (``_zumbroich_terms``;
Bosma 1990), which writes a sum of a few roots of unity with a few
terms, and only its survivors are evaluated in the power basis.  The
boundary house(a) = A is decided exactly, from a * conj(a) = A^2.
One kernel (``_square_bounds``) gives every such bound: the root table
packs the four interval endpoints of each root into one integer
(``intervals.root_table``), so a conjugate costs one big-integer
multiply-add per nonzero coordinate.  The same
kernel, run at 64 bits on the sparse, unreduced exponent vectors of a
numerator and a denominator, proves a quotient outside P_A without its
exact value (``quotient_outside_PA``): a conjugate above A, at the first
such conjugate, or a norm range, the product of the conjugates' bounds,
that holds no integer >= 1.
A root-of-unity test maps the element into F_p with zeta_M -> g, reads
the exponent k with g^k equal to its image and checks zeta_M^k = a
exactly.  The shortest sum of roots of unity (``loxton_decompose``) is
searched on the same images: sums of powers of g are matched modulo p
and every match is re-summed and checked exactly.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ResourceLimitError, UndecidedError
from .intervals import isqrt_ceil, isqrt_floor, root_table
from .record import Record, fill

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


def torsion_order(n: int) -> int:
    """M = lcm(2, n): the roots of unity in Q(zeta_n) are exactly mu_M."""
    return n if n % 2 == 0 else 2 * n


class _Cyclotomy:
    """Cached per-conductor data: Phi_n and its reduction terms, rad(n),
    and, once asked for, the image field (``field``) and the CRT rows of
    the Zumbroich basis (``zumbroich``)."""

    __slots__ = ("n", "rad", "phi", "low", "_field", "_zumbroich")

    def __init__(self, n: int):
        self.n = n
        self.rad = math.prod(p for p, _ in factorize(n))
        self.phi = euler_phi(n)
        # Nonzero (r, c_r) of Phi_n below its leading term, for reduction.
        self.low = tuple((r, c) for r, c in enumerate(cyclotomic_polynomial(n)[:-1]) if c)
        self._field = None
        self._zumbroich = None

    def field(self) -> tuple[int, int, list[int]]:
        """(q, g, [g^j mod q for j < phi]): q = 1 (mod n) prime and g of
        exact order n mod q (``_screen_field``), so zeta_n -> g is a ring
        map into F_q.  Built on first use."""
        if self._field is None:
            q, g = _screen_field(self.n)
            pows = [1] * self.phi
            for j in range(1, self.phi):
                pows[j] = pows[j - 1] * g % q
            self._field = (q, g, pows)
        return self._field

    def zumbroich(self) -> tuple[tuple[int, tuple], ...]:
        """(q, rows) per prime power q = p^v || n, for the Zumbroich basis
        (Bosma 1990): rows[e mod q] is None when the q-part of zeta_n^e is
        a basis root, else the shifts d with zeta_n^e = -sum zeta_n^(e + d).
        Built on first use.

        With m = n/q, zeta_n^e is the product over q of zeta_q^f,
        zeta_q = zeta_n^m and f = e m^-1 mod q.  Write f = a + b q/p,
        a < q/p: the basis keeps b != 0 at an odd p and b = 0 at p = 2.
        Otherwise zeta_q^a = -sum_(b=1..p-1) zeta_q^(a + b q/p), the shifts
        m b q/p, or zeta_q^(a + q/2) = -zeta_q^a, the shift n/2; neither
        moves the part of any other prime.
        """
        if self._zumbroich is None:
            n, parts = self.n, []
            for p, v in factorize(n):
                q = p**v
                m, step = n // q, q // p
                inv = pow(m, -1, q)
                shifts = (n // 2,) if p == 2 else tuple(m * step * b for b in range(1, p))
                rows = tuple(
                    None if (r * inv % q // step == 0) == (p == 2) else shifts
                    for r in range(q)
                )
                parts.append((q, rows))
            self._zumbroich = tuple(parts)
        return self._zumbroich

    def reduce(self, acc: list[int]) -> list[int]:
        """Reduce integer exponent coefficients modulo Phi_n, in place.

        acc[e] is the coefficient of zeta^e (len(acc) >= phi); the
        returned list is acc cut to its phi power-basis coordinates.
        Phi_n divides x^(n/2) + 1 at even n and x^n - 1 at odd n, so one
        descending pass first applies zeta^e = -zeta^(e - n/2), or
        zeta^e = zeta^(e - n), to every exponent at or past that point;
        the rows of Phi_n then reduce only the exponents below it, down
        to phi.
        """
        n, phi, low = self.n, self.phi, self.low
        h, sign = (n // 2, -1) if n % 2 == 0 else (n, 1)
        for e in range(len(acc) - 1, h - 1, -1):
            c = acc[e]
            if c:
                acc[e - h] += sign * c
        del acc[h:]
        for e in range(len(acc) - 1, phi - 1, -1):
            c = acc[e]
            if c:
                base = e - phi
                for r, cr in low:
                    acc[base + r] -= c * cr
        del acc[phi:]
        return acc


#: The largest conductor of any field an element lives in: a bound on
#: work, checked before n is factorized or a row of length n is made.
CONDUCTOR_CEILING = 1 << 20


@lru_cache(maxsize=None)
def _cyclotomy(n: int) -> _Cyclotomy:
    if n > CONDUCTOR_CEILING:
        raise ResourceLimitError(f"conductor {n} is above {CONDUCTOR_CEILING}")
    return _Cyclotomy(n)


# ---------------------------------------------------------------------------
# canonicalization (integer numerators; the denominator rides along)


def _scatter(n: int, row, step: int = 1, shift: int = 0) -> list[int]:
    """Reduced numerators of sum_j row[j] * zeta_n^(step*j + shift): one
    dense row of length n, filled by one strided slice when no exponent
    reaches n (else by one pass mod n), then one reduction modulo Phi_n."""
    ctx = _cyclotomy(n)
    acc = [0] * n
    if shift + step * (len(row) - 1) < n:
        acc[shift : shift + step * len(row) : step] = row
    else:
        for j, c in enumerate(row):
            if c:
                acc[(step * j + shift) % n] += c
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
    w_1 = ... = w_{p-1} and the value is then w_0 - w_1.  At m = 1 that
    reads: the element is rational exactly when num[1:] is zero.

    Before any w_r is built, each is mapped into F_q by zeta_m -> g
    (``_Cyclotomy.field``): w_r goes to g^(r/p) sum_j num[r + p*j] g^j,
    and an image that differs from w_1's proves w_r != w_1.  Only when
    every image agrees are the w_r reduced and compared exactly.
    """
    m = n // p
    if m % p == 0:
        # zeta_n^(i + p*j) = zeta_n^i * zeta_m^j with j < phi(m): delta rows
        for r in range(1, p):
            if any(num[r::p]):
                return None
        return list(num[::p])
    if m == 1:
        return None if any(num[1:]) else [num[0]]
    # bucket r holds the k = r + p*j, at inv_p * r + j (mod m); p = 2
    # compares none.
    inv_p = pow(p, -1, m)
    if p > 2:
        q, g, pows = _cyclotomy(m).field()
        step = pow(g, inv_p, q)  # w_r's image carries g^(r/p) = step^r
        target = step * sum(map(operator.mul, num[1::p], pows)) % q
        unit = step
        for r in range(2, p):
            unit = unit * step % q
            if unit * sum(map(operator.mul, num[r::p], pows)) % q != target:
                return None

    def bucket(r: int) -> list[int]:
        return _scatter(m, num[r::p], 1, inv_p * r % m)

    first = bucket(1)
    for r in range(2, p):
        if bucket(r) != first:
            return None
    return [a - b for a, b in zip(bucket(0), first)]


def _canonicalize(n: int, num: list[int]) -> tuple[int, list[int]]:
    """Minimal conductor and its numerators (zero comes back as (1, [0])),
    never 2 mod 4: the prime 2 of n = 2m, m odd, always drops."""
    while n != 1:
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
    return 1, [num[0]]


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


class CycNum(Record):
    """Exact element of the cyclotomic closure of Q.

    Instances are immutable records, hashable and always canonical.  The
    public constructor accepts coordinates at any conductor (including
    ones congruent to 2 mod 4) and normalizes them.  ``num`` holds the
    integer numerators and ``den`` the positive common denominator;
    ``coords`` gives the same values as Fractions.  ``_house``, set on
    the first ``house`` or ``compare_house`` call, keeps what the element
    has learnt of its house (``_HouseMemo``): the conjugate bounds per
    working precision, the screen that lets a higher rung evaluate only
    the conjugates that can hold the house, and the ``HouseResult`` per
    accuracy.  Equality, hashing and pickling use ``(n, num, den)`` only,
    so a copy starts with no memo; ``==`` also accepts an int or Fraction.
    """

    __slots__ = ("n", "num", "den", "_house")
    _fields = ("n", "num", "den")

    def __init__(self, n: int, coords):
        if n < 1:
            raise DomainError("conductor must be positive")
        phi = _cyclotomy(n).phi
        num, den = _from_fractions(coords)
        if len(num) != phi:
            raise DomainError(f"expected {phi} coordinates at conductor {n}, got {len(num)}")
        cn, cnum = _canonicalize(n, num)
        cnum, den = _lowest_terms(cnum, den)
        _set_n(self, cn)
        _set_num(self, cnum)
        _set_den(self, den)

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
        # m = 2n with n odd (k is odd): zeta_m^k = -zeta_n^(k*(n+1)/2)
        k, sign = (k, 1) if m == n else (k * ((n + 1) // 2), -1)
        # Phi_n(x) = Phi_rad(x^s) with s = n/rad(n), so zeta_n^(q*s + r) has
        # the numerators of zeta_rad^q in the slots r, r+s, r+2s, ...
        ctx = _cyclotomy(n)
        s = n // ctx.rad
        q, r = divmod(k % n, s)
        vec = [0] * ctx.phi
        vec[r::s] = _scatter(ctx.rad, (sign,), 1, q)
        return _new(n, tuple(vec))

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

    def __reduce__(self):
        return _new, (self.n, self.num, self.den)

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
        row = _row_product(_cyclotomy(n), _embed_list(self, n), _embed_list(other, n))
        return _make(n, row, self.den * other.den)

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
        if self.n == 1:  # p^k and q^k stay coprime: no gcd
            return _new(1, (self.num[0] ** k,), self.den**k)
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


_set_n, _set_num, _set_den, _set_house = CycNum._setters


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
    return _scatter(n, a.num, n // a.n)


def _row_product(ctx: _Cyclotomy, a, b) -> list[int]:
    """Product of two numerator rows at conductor ctx.n, reduced modulo
    Phi_n: one convolution over the nonzero entries of b."""
    nzb = [(j, y) for j, y in enumerate(b) if y]
    conv = [0] * (2 * ctx.phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nzb:
                conv[i + j] += x * y
    return ctx.reduce(conv)


def root_power_vector(coeffs, c: int, m: int, k: int) -> tuple[list[tuple[int, int]], int, int]:
    """sum_j coeffs[j] * zeta_m^(j*k) as (pairs, D, N): sum_e w_e * zeta_N^e / D.

    An exponent-shifted sum, with no products and no reduction.  c must
    be a multiple of every coefficient's conductor.  At N = lcm(c, m),
    coefficient j has the numerators of sum_i zeta_N^(i*N/n_j) over its
    den, and zeta_m^(j*k) = zeta_N^(j*k*N/m) shifts them: each numerator,
    scaled to the common denominator D, lands in slot i*N/n_j + j*k*N/m
    mod N.  pairs lists the slots e < N with a nonzero sum w_e, as
    (e, w_e); numerators that land in one slot are added.
    """
    n = math.lcm(c, m)
    den = math.lcm(*(a.den for a in coeffs))
    acc: dict[int, int] = {}
    unit = k * (n // m) % n
    shift = 0
    for a in coeffs:
        step, scale = n // a.n, den // a.den
        for i, v in enumerate(a.num):
            if v:
                e = (shift + i * step) % n
                acc[e] = acc.get(e, 0) + v * scale
        shift = (shift + unit) % n
    return [(e, w) for e, w in acc.items() if w], den, n


def vector_value(vec: tuple[list[tuple[int, int]], int, int]) -> CycNum:
    """The element of an exponent vector (pairs, D, N): its dense row of
    length N, reduced once modulo Phi_N."""
    pairs, den, n = vec
    ctx = _cyclotomy(n)
    acc = [0] * n
    for e, w in pairs:
        acc[e] = w
    return _make(n, ctx.reduce(acc), den)


# ---------------------------------------------------------------------------
# spec operations


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
    acc = 0
    for j, c in enumerate(a.num):
        if c:
            acc += c * pow(w, j, p)
    return acc * pow(a.den, -1, p) % p


_SCREEN_PRIME_FLOOR = 1 << 24

#: Miller-Rabin on the first 13 prime bases decides primality below this
#: bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
#: bases", Math. Comp. 2017).
_PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 1 <= n < ``_PRIME_TEST_BOUND``."""
    if n < 2:
        return False
    for q in _PRIME_TEST_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d, d odd
    d = (n - 1) >> s
    for q in _PRIME_TEST_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _screen_field(big_n: int) -> tuple[int, int]:
    """The least prime p = 1 (mod N) above 2^24, and g of exact order N mod p.

    The field of ``residue_mod_p`` for the witness screen (N a multiple
    of the grid's orders) and for ``is_root_of_unity`` and
    ``loxton_decompose`` (N = lcm(2, n)).
    Raises ResourceLimitError when no such p lies below the bound of the
    deterministic primality test.
    """
    p = big_n * (_SCREEN_PRIME_FLOOR // big_n + 1) + 1
    while p < _PRIME_TEST_BOUND and not _is_prime(p):
        p += big_n
    if p >= _PRIME_TEST_BOUND:
        raise ResourceLimitError(
            f"the F_p screen needs a prime p = 1 (mod {big_n}) below "
            f"{_PRIME_TEST_BOUND}; use a smaller root-of-unity grid"
        )
    qs = [q for q, _ in factorize(big_n)]
    for r in itertools.count(2):
        g = pow(r, (p - 1) // big_n, p)
        if all(pow(g, big_n // q, p) != 1 for q in qs):
            return p, g


def conjugates(a: CycNum) -> list[CycNum]:
    """All Q-Galois conjugates sigma_t(a), t running over (Z/n)^x.

    The result is a multiset of length phi(n) containing a itself
    (t = 1 comes first); repeated values are kept.  The t <= n/2 come
    from ``_units_half`` and the others are n - t for those t, read in
    reverse, so the order is ascending t.
    """
    half = _units_half(a.n)
    low = [conjugate(a, t) for t in half]
    return low + [conjugate(a, a.n - t) for t in reversed(half) if 2 * t < a.n]


def conjugate(a: CycNum, t: int) -> CycNum:
    """sigma_t(a) for t coprime to a.n (t is read mod a.n).

    A conjugate keeps the minimal conductor and the denominator (sigma_t
    maps Z[zeta_n] onto itself), so it is canonical as built.
    """
    n = a.n
    t %= n
    if t == 1 or n == 1:
        return a
    return _new(n, tuple(_scatter(n, a.num, t)), a.den)


def is_algebraic_integer(a: CycNum) -> bool:
    """True iff a lies in Z[zeta_n] (all power-basis coordinates integral)."""
    return a.den == 1


class HouseResult(Record):
    """Rigorous enclosure [lower, upper] of the house of an element."""

    __slots__ = ("lower", "upper", "precision_bits")

    def __init__(self, lower: Fraction, upper: Fraction, precision_bits: int):
        _set_lower(self, lower)
        _set_upper(self, upper)
        _set_precision_bits(self, precision_bits)

    def to_dict(self) -> dict:
        from .formatting import decimal_lower, decimal_upper

        return {
            "lower": decimal_lower(self.lower),
            "upper": decimal_upper(self.upper),
            "precision_bits": self.precision_bits,
        }


_set_lower, _set_upper, _set_precision_bits = HouseResult._setters


class _HouseMemo:
    """What one element keeps of its house computations.

    ``squares`` maps a working precision to the bounds of
    ``_max_square_bounds``; ``screen`` is (prec0, survivors, thr) from the
    first rung computed, or None; ``results`` maps accuracy bits to the
    ``HouseResult`` that ``house`` returned.
    """

    __slots__ = ("squares", "screen", "results")

    def __init__(self):
        self.squares: dict[int, tuple[int, int]] = {}
        self.screen: tuple[int, tuple[int, ...], int | None] | None = None
        self.results: dict[int, HouseResult] = {}


def _house_memo(a: CycNum) -> _HouseMemo:
    memo = getattr(a, "_house", None)
    if memo is None:
        memo = _HouseMemo()
        _set_house(a, memo)
    return memo


@lru_cache(maxsize=128)
def _units_half(n: int) -> tuple[int, ...]:
    """Units t <= n/2, or (1,) for n <= 2; sigma_t and sigma_{n-t} give
    conjugate values.  The one list of units of a conductor."""
    return tuple(t for t in range(1, n // 2 + 1) if math.gcd(t, n) == 1) or (1,)


def _square_bounds(n: int, prec: int, nz, units):
    """Yield integer bounds (lo, hi), lo <= |sigma_t(a)|^2 <= hi at scale
    4^prec, for each t in units in turn; nz holds the (j, numerator)
    pairs of a with a nonzero numerator.

    One multiply-add per term on the packed root table (``root_table``),
    whose slots hold rl, rh, il, ih: a term of weight w > 0 adds w times
    entry t j mod n, one of weight w < 0 adds w times the entry with its
    slots swapped.  The sum starts at 2^(B - 1) in every slot, so each
    slot reads back as a nonnegative B-bit field; then each part is
    squared as an interval.
    """
    pos, neg, total = [], [], 0
    for term in nz:
        if term[1] > 0:
            pos.append(term)
            total += term[1]
        else:
            neg.append(term)
            total -= term[1]
    slack = (total.bit_length() + 33) // 32 * 32
    packed, swaps = root_table(n, prec, slack)
    b = prec + slack
    b2, b3 = 2 * b, 3 * b
    mask = (1 << b) - 1
    half = 1 << (b - 1)
    bias = half + (half << b) + (half << b2) + (half << b3)
    for t in units:
        s = bias
        for j, w in pos:
            s += w * packed[t * j % n]
        for j, w in neg:
            k = t * j % n
            s += w * (packed[k] + swaps[k])
        rl = (s & mask) - half
        rh = (s >> b & mask) - half
        il = (s >> b2 & mask) - half
        ih = (s >> b3) - half
        if rl >= 0:
            lo, hi = rl * rl, rh * rh
        elif rh <= 0:
            lo, hi = rh * rh, rl * rl
        else:
            lo, hi = 0, max(rl * rl, rh * rh)
        if il >= 0:
            lo, hi = lo + il * il, hi + ih * ih
        elif ih <= 0:
            lo, hi = lo + ih * ih, hi + il * il
        else:
            hi += max(il * il, ih * ih)
        yield lo, hi


def _zumbroich_terms(n: int, nz) -> list[tuple[int, int]]:
    """The (exponent mod n, weight) pairs of sum_j w zeta_n^j, (j, w) in nz,
    in the Zumbroich basis (``_Cyclotomy.zumbroich``): the same element
    over the same denominator, often with far fewer terms when it is a
    sum of a few roots of unity.  One prime power at a time, each term
    whose part there is not a basis root is rewritten."""
    terms = dict(nz)
    for q, rows in _cyclotomy(n).zumbroich():
        out: dict[int, int] = {}
        for e, w in terms.items():
            shifts = rows[e % q]
            if shifts is None:
                out[e] = out.get(e, 0) + w
            elif w:
                for d in shifts:
                    k = (e + d) % n
                    out[k] = out.get(k, 0) - w
        terms = out
    return [(e, w) for e, w in terms.items() if w]


def _screen(n: int, prec: int, nz, units) -> tuple[int, int, tuple]:
    """(max lo, max hi, screen) over units in one pass over the kernel's
    bounds; the screen (prec, survivors, thr) keeps the t with
    hi_t >= max lo and the largest hi_t of the others (None if none)."""
    best_lo = best_hi = thr = -1
    kept = []
    for t, (lo, hi) in zip(units, _square_bounds(n, prec, nz, units)):
        if lo > best_lo:
            best_lo = lo
        if hi > best_hi:
            best_hi = hi
        if hi >= best_lo:
            kept.append((t, hi))
        elif hi > thr:
            thr = hi
    survivors = []
    for t, hi in kept:
        if hi >= best_lo:
            survivors.append(t)
        elif hi > thr:
            thr = hi
    return best_lo, best_hi, (prec, tuple(survivors), thr if thr >= 0 else None)


#: The first rung takes its screen from the Zumbroich form when its full
#: loop would make at least this many multiply-adds (units x terms) and
#: that form has more than one term and at most half as many; a smaller
#: loop costs little, and the conversion would not pay for itself.
_ZUMBROICH_MIN_WORK = 1024


def _screened_bounds(n: int, nz, screen, prec: int) -> tuple[int, int] | None:
    """(max lo, max hi) over the survivors of a screen, at working
    precision prec, or None when a screened-out conjugate might reach
    their max lo.

    A screened-out t had hi <= thr at the screen's precision prec0, so at
    prec its exact scaled |z|^2 is at most T = thr << 2e with e = prec -
    prec0, or T = ceil(thr / 4^-e) when e < 0.  Every table entry is at
    most 2 units wide, so the real and imaginary parts lie within
    W = 2 * sum |w_j| of their exact scaled values, and its hi is at most
    T + 2W(|Re z| + |Im z|) + 2W^2 <= T + 2W isqrt_ceil(2T) + 2W^2.  When
    that is at most the survivors' max lo, no screened-out t reaches either
    maximum, and the pair equals the full loop's.
    """
    prec0, survivors, thr = screen
    los, his = zip(*_square_bounds(n, prec, nz, survivors))
    best_lo, best_hi = max(los), max(his)
    if thr is not None:
        e = prec - prec0
        t = thr << 2 * e if e >= 0 else -(-thr >> -2 * e)
        w = 2 * sum(abs(c) for _, c in nz)
        if t + 2 * w * isqrt_ceil(2 * t) + 2 * w * w > best_lo:
            return None
    return best_lo, best_hi


def _max_square_bounds(a: CycNum, prec: int) -> tuple[int, int]:
    """Integer bounds on max_t |sigma_t(a)|^2 at scale (2^prec * a.den)^2.

    Computed once per element and working precision and kept on the
    element (``_HouseMemo``).  The first rung computed records a screen
    (``_screen``) over every unit t <= n/2.  When that loop is large and
    the Zumbroich form of a is short, the screen is read off the
    Zumbroich terms, and the rung evaluates only its survivors in the
    power basis; otherwise, and whenever ``_screened_bounds`` cannot rule
    the others out, the rung evaluates every t in the power basis, and a
    first rung keeps that loop's screen.  Any other rung, above or below
    it, evaluates the survivors only, with the same fallback.  A screen's
    thr bounds the exact |sigma_t(a)|^2 of the screened-out t from above,
    in whichever basis it was computed, so the bounds are always those of
    the full power-basis loop.
    """
    memo = _house_memo(a)
    hit = memo.squares.get(prec)
    if hit is not None:
        return hit
    n = a.n
    nz = [(j, w) for j, w in enumerate(a.num) if w]
    first = memo.screen is None
    bounds = None
    if first:
        units = _units_half(n)
        if len(units) * len(nz) >= _ZUMBROICH_MIN_WORK:
            terms = _zumbroich_terms(n, nz)
            # one term, w zeta_n^e: every conjugate has the same modulus and
            # survives, so the screen would only add a pass
            if 1 < len(terms) and 2 * len(terms) <= len(nz):
                screen = _screen(n, prec, terms, units)[2]
                bounds = _screened_bounds(n, nz, screen, prec)
    else:
        bounds = _screened_bounds(n, nz, memo.screen, prec)
    if bounds is None:
        best_lo, best_hi, screen = _screen(n, prec, nz, _units_half(n))
        bounds = (best_lo, best_hi)
    if first:
        memo.screen = screen
    memo.squares[prec] = bounds
    return bounds


def _rungs(a: CycNum, accuracy_bits: int, cap: int):
    """The precision ladder of an irrational a, as (prec, lo, hi, scale).

    lo <= scale^2 * max_t |sigma_t(a)|^2 <= hi with scale = 2^prec * a.den;
    prec starts at min(64-bit bucket, cap) and doubles while it is at most cap.
    """
    den = a.den
    nnz = len(a.num) - a.num.count(0)
    # Round the working precision up to a coarse bucket so the cached
    # root tables are shared across elements of the same conductor.
    raw = accuracy_bits + 16 + den.bit_length() + nnz.bit_length()
    prec = min(((raw + 63) // 64) * 64, cap)
    while prec <= cap:
        lo, hi = _max_square_bounds(a, prec)
        yield prec, lo, hi, (1 << prec) * den
        prec *= 2


def house(a: CycNum, accuracy_bits: int = DEFAULT_ACCURACY_BITS) -> HouseResult:
    """Enclose max over conjugates of |a| to within 2^-accuracy_bits.

    Each conjugate sigma_t(a) is evaluated at zeta_n = exp(2*pi*i/n)
    with outward-rounded fixed-point intervals; the working precision
    climbs the ladder (``_rungs``) until the enclosure of the maximum is
    narrow enough.  The result for an irrational a is kept on the
    element, and a repeated call returns the same object while its
    precision is within the cap.

    Raises UndecidedError if the precision cap is exhausted first.
    """
    if accuracy_bits < 1:
        raise DomainError("accuracy_bits must be >= 1")
    if a.n == 1:
        v = abs(a.as_rational())
        return HouseResult(v, v, accuracy_bits)
    cap = precision_cap()
    results = _house_memo(a).results
    hit = results.get(accuracy_bits)
    if hit is not None and hit.precision_bits <= cap:
        return hit
    for prec, lo2, hi2, scale in _rungs(a, accuracy_bits, cap):
        lo = isqrt_floor(lo2)
        hi = isqrt_ceil(hi2)
        # width (hi - lo) / scale <= 2^-accuracy_bits, compared on integers
        if (hi - lo) << accuracy_bits <= scale:
            hit = HouseResult(Fraction(lo, scale), Fraction(hi, scale), prec)
            results[accuracy_bits] = hit
            return hit
    raise UndecidedError(f"house computation needs more than the {cap}-bit precision cap")


def quotient_outside_PA(num, den, A: Fraction) -> bool:
    """True when the 64-bit bounds prove den != 0 and b = num/den outside P_A.

    num and den are exponent vectors (pairs, D, N) at one N
    (``root_power_vector``), den None for exactly 1.  For each unit
    t of ``_units_half(N)`` in turn the house kernel (``_square_bounds``)
    gives lo_t <= 2^128 D^2 |sigma_t(x)|^2 <= hi_t for num and den
    together.  With A = p/q, a t with lo_t(den) > 0 and
    lo_t(num) D_den^2 q^2 > p^2 hi_t(den) D_num^2 proves house(b) > A,
    and the first such t ends the call.  Else, every bound read, the
    products of the bounds enclose the product over t of |sigma_t(b)|^2:
    lo(num) D_den^2u / (hi(den) D_num^2u) <= P(b) <=
    hi(num) D_den^2u / (lo(den) D_num^2u), u the number of units.  For
    N > 2, Q(zeta_N) is a CM field and P(b) is the norm of b; for N <= 2
    the one unit is t = 1 and P(b) = b^2, b rational.  Either way P(b)
    is an integer >= 1 when b is a nonzero algebraic integer, so a range
    with none proves b no algebraic integer once some lo_t(num) > 0 and
    every lo_t(den) > 0.  False proves nothing.
    """
    pairs, d_num, n = num
    units = _units_half(n)
    nb = _square_bounds(n, 64, pairs, units)
    if den is None:
        db, d_den = itertools.repeat((1 << 128, 1 << 128)), 1
    else:
        db, d_den = _square_bounds(n, 64, den[0], units), den[1]
    left, right = d_den**2 * A.denominator**2, d_num**2 * A.numerator**2
    read = []
    for (lo, hi), (dlo, dhi) in zip(nb, db):
        if dlo > 0 and lo * left > dhi * right:
            return True
        read.append((lo, hi, dlo, dhi))
    n_lo, n_hi, d_lo, d_hi = map(math.prod, zip(*read))
    if not d_lo or not any(r[0] for r in read):
        return False
    p, q = d_den ** (2 * len(units)), d_num ** (2 * len(units))
    top = n_hi * p // (d_lo * q)  # the floor of the upper end
    return top < 1 or top * d_hi * q < n_lo * p


class RootOfUnity(Record):
    """zeta_order^exponent in lowest terms (minimal order)."""

    __slots__ = ("order", "exponent")

    def __init__(self, order: int, exponent: int):
        _set_order(self, order)
        _set_exponent(self, exponent)

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


_set_order, _set_exponent = RootOfUnity._setters


def is_root_of_unity(a: CycNum) -> RootOfUnity | None:
    """Exact torsion test: the canonical root of unity equal to a, if any.

    The torsion of Q(zeta_n)^x is exactly mu_M, M = lcm(2, n).  A root of
    unity is an algebraic integer, and since Phi_n(x) = Phi_rad(x^s) with
    s = n/rad(n), its coordinates are nonzero in one residue class mod s
    only.  The ring map zeta_M -> g into F_p (``_screen_field``,
    ``residue_mod_p``) sends zeta_M^j to g^j, so a with image v,
    v^M != 1, is no root of unity; otherwise the unique k < M with
    g^k = v is the only candidate, and zeta_M^k = a is checked exactly.
    """
    if not is_algebraic_integer(a):
        return None
    n, num = a.n, a.num
    s = n // _cyclotomy(n).rad
    r = next((j for j, c in enumerate(num) if c), 0) % s
    part = num[r::s]
    if len(num) - num.count(0) != len(part) - part.count(0):
        return None
    big_m = torsion_order(n)
    p, g = _screen_field(big_m)
    v = residue_mod_p(a, p, g, big_m)
    if pow(v, big_m, p) != 1:
        return None
    # baby-step giant-step: k = i*w + j with g^j = v * g^(-w*i), w^2 >= M
    w = math.isqrt(big_m - 1) + 1
    baby = {pow(g, j, p): j for j in range(w)}
    step, i = pow(g, -w, p), 0
    while v not in baby:
        v, i = v * step % p, i + 1
    k = i * w + baby[v]
    return RootOfUnity.make(big_m, k) if CycNum.zeta(big_m, k) == a else None


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
    for _, lo, hi, scale in _rungs(a, DEFAULT_ACCURACY_BITS, precision_cap()):
        # lo/scale^2 <= house^2 <= hi/scale^2 against A^2 = p^2/q2
        bound = (p * scale) ** 2
        if hi * q2 <= bound:
            return True
        if lo * q2 > bound:
            return False
    return True if a * conjugate(a, -1) == A * A else None


class LoxtonProfile(Record):
    """Stand-in for the nonconstructive short-sum machinery over Q.

    B scales the house argument; E is the coefficient set (always {1}
    over Q); budget is a nondecreasing step function mapping a real x to
    the maximal number of root-of-unity terms allowed for elements of
    house x.  The true bound function is only known to exist, so the
    budget is user-supplied.
    """

    __slots__ = ("B", "E", "budget")

    def __init__(
        self, B: Fraction, E: tuple[CycNum, ...], budget: tuple[tuple[Fraction, int], ...]
    ):
        if B <= 0:
            raise DomainError("B must be positive")
        if not E:
            raise DomainError("E must be nonempty")
        last_x = None
        last_d = None
        for x, d in budget:
            if d < 0:
                raise DomainError("budget values must be nonnegative")
            if last_x is not None and (x < last_x or d < last_d):
                raise DomainError("budget must be monotone nondecreasing")
            last_x, last_d = x, d
        fill(self, B, E, budget)

    @classmethod
    def default(cls, d_max: int, B=1) -> "LoxtonProfile":
        return cls(
            B=Fraction(B),
            E=(CycNum.one,),
            budget=((Fraction(0), int(d_max)),),
        )

    def budget_value(self, x) -> int:
        x = Fraction(x)
        best = 0
        for threshold, d in self.budget:
            if threshold <= x:
                best = d
            else:
                break
        return best


#: Most sums one half of the meet-in-the-middle Loxton search may hold or walk.
LOXTON_HALF_TABLE_CEILING = 2_000_000


def loxton_decompose(a: CycNum, d_max: int) -> list[tuple[CycNum, RootOfUnity]] | None:
    """Shortest representation of a as a sum of roots of unity.

    The search space is restricted to roots of unity living in
    Q(zeta_n) itself, i.e. those of order dividing lcm(2, n) for the
    minimal conductor n; whether elements of Z[zeta_n] can ever need
    roots of higher conductor is open, so "None" means "no
    representation with at most d_max terms in that restricted space".
    Coefficients are always 1 (the coefficient set over Q).

    A sum of d roots meets in the middle: a table of the sums of d // 2
    roots, keyed by their image under zeta_M -> g into F_p (the field of
    ``is_root_of_unity``), and for each sum of the other d - d // 2 roots
    a lookup of the image that would complete a.  A key hit is only a
    candidate; its roots are re-summed and compared with a exactly.  Left
    sums are kept in the order they are built, so the first candidate
    that passes is the first left sum with the needed coordinates, and
    the answer does not depend on p.  ``LOXTON_HALF_TABLE_CEILING``
    bounds, before a search size starts, the C(M + d2 - 1, d2) sums of
    its larger half, d2 = d - d // 2: the walk, and so also the table.
    """
    if d_max < 1:
        raise DomainError("d_max must be >= 1")
    if not is_algebraic_integer(a):
        raise DomainError("loxton_decompose requires an algebraic integer")
    if not a:
        return []
    root = is_root_of_unity(a)
    if root is not None:
        return _loxton_result(a, [root])
    m_tor = torsion_order(a.n)

    def sums(size):
        """(sum of the g^k, the k) for each multiset of size exponents k."""
        multisets = itertools.combinations_with_replacement
        return zip(map(sum, multisets(images, size)), multisets(range(m_tor), size))

    for d in range(2, d_max + 1):
        d1 = d // 2
        d2 = d - d1
        if math.comb(m_tor + d2 - 1, d2) > LOXTON_HALF_TABLE_CEILING:
            raise ResourceLimitError(
                f"loxton search half would exceed {LOXTON_HALF_TABLE_CEILING} sums"
            )
        if d == 2:  # built only once the smallest table fits
            p, g = _screen_field(m_tor)
            target = residue_mod_p(a, p, g, m_tor)
            images = list(itertools.accumulate(
                itertools.repeat(g, m_tor - 1), lambda x, y: x * y % p, initial=1))
        left: dict[int, list[tuple[int, ...]]] = {}
        for s, combo in sums(d1):
            left.setdefault(s % p, []).append(combo)
        for s, combo in sums(d2):
            for hit in left.get((target - s) % p, ()):
                found = _loxton_result(a, [RootOfUnity.make(m_tor, k) for k in hit + combo])
                if found is not None:
                    return found
    return None


def _loxton_result(a: CycNum, roots) -> list[tuple[CycNum, RootOfUnity]] | None:
    """The roots in (order, exponent) order, with coefficient 1, if they sum to a."""
    roots = sorted(roots, key=lambda r: (r.order, r.exponent))
    total = CycNum.zero
    for r in roots:
        total = total + r.to_cycnum()
    return [(CycNum.one, r) for r in roots] if total == a else None

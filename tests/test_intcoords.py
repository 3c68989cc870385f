"""Integer-coordinate CycNum against the Fraction-coordinate reference.

Seeded random elements at conductors {1, 3, 4, 5, 8, 12, 15, 60, 420},
given at those conductors and at 2 mod 4 ones (18 and 90 with a square
in their odd part), with denominators above 1, zero, rationals and
values hiding in a subfield.  Every result must equal the reference's
coordinates and keep the layout's invariants.
"""

import math
import random
from fractions import Fraction

from cyclohouse import CycNum, conjugates, embed_at_conductor
from cyclohouse.cyclotomic import euler_phi, factorize

from . import fraction_reference as ref
from .util import cycnum_from_dict

CONDUCTORS = (1, 3, 4, 5, 8, 12, 15, 60, 420)
INPUT_CONDUCTORS = CONDUCTORS + (2, 6, 10, 30, 18, 90, 210)


def _random_coords(rng, n):
    phi = euler_phi(n)
    kind = rng.choice(("dense", "sparse", "sparse", "zero", "rational", "subfield"))
    if kind == "zero":
        return [Fraction(0)] * phi
    if kind == "rational":
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 6))] + [Fraction(0)] * (phi - 1)
    if kind == "subfield":
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        inner = _random_coords(rng, d)
        return ref._embed_list((d, inner), n)
    coords = [Fraction(0)] * phi
    slots = range(phi) if kind == "dense" else rng.sample(range(phi), min(phi, 3))
    for j in slots:
        coords[j] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))
    return coords


def _random_input(rng, conductors=INPUT_CONDUCTORS):
    n = rng.choice(conductors)
    return n, _random_coords(rng, n)


def _check_invariants(a: CycNum):
    assert isinstance(a.den, int) and a.den > 0
    assert all(isinstance(c, int) for c in a.num)
    assert math.gcd(a.den, *a.num) == 1
    assert len(a.num) == euler_phi(a.n)
    assert a.n % 4 != 2
    if a.n > 1:
        # minimal conductor: no prime can be dropped
        for p, _ in factorize(a.n):
            assert ref.try_drop_prime(a.n, a.coords, p) is None
    else:
        assert a.num[0] != 0 or a.den == 1  # zero is (1, (0,), 1)
    assert all(isinstance(c, Fraction) for c in a.coords)
    assert a.coords == tuple(Fraction(c, a.den) for c in a.num)


def _pair(a: CycNum):
    return a.n, a.coords


def test_constructor_matches_reference():
    rng = random.Random(3101)
    for _ in range(250):
        n, coords = _random_input(rng)
        a = CycNum(n, coords)
        assert _pair(a) == ref.canonicalize(n, coords), (n, coords)
        _check_invariants(a)


def test_add_and_mul_match_reference():
    rng = random.Random(3102)
    for _ in range(120):
        a = CycNum(*_random_input(rng))
        b = CycNum(*_random_input(rng, INPUT_CONDUCTORS[:-1]))
        for got, want in (
            (a + b, ref.add(_pair(a), _pair(b))),
            (b + a, ref.add(_pair(b), _pair(a))),
            (a - b, ref.add(_pair(a), _pair(-b))),
            (a * b, ref.mul(_pair(a), _pair(b))),
            (b * a, ref.mul(_pair(b), _pair(a))),
        ):
            assert _pair(got) == want, (a, b)
            _check_invariants(got)


def test_dense_products_at_420_match_reference():
    rng = random.Random(3103)
    for _ in range(4):
        a = CycNum(420, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(96)])
        b = CycNum(420, [Fraction(rng.randint(-5, 5)) for _ in range(96)])
        prod = a * b
        assert _pair(prod) == ref.mul(_pair(a), _pair(b))
        _check_invariants(prod)


def test_conjugates_match_reference():
    rng = random.Random(3104)
    for _ in range(40):
        a = CycNum(*_random_input(rng))
        units = [t for t in range(1, a.n + 1) if math.gcd(t, a.n) == 1]
        for t, conj in zip(units, conjugates(a)):
            assert conj.coords == tuple(ref.sigma_coords(a.n, a.coords, t))
            _check_invariants(conj)


def _same(values):
    first = values[0]
    for v in values[1:]:
        assert v == first and hash(v) == hash(first), (first, v)


def test_equal_values_hash_equal_across_construction_paths():
    rng = random.Random(3105)
    for _ in range(60):
        a = CycNum(*_random_input(rng))
        b = CycNum(*_random_input(rng, INPUT_CONDUCTORS[:-1]))
        q = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        big = math.lcm(a.n, rng.choice((2, 4, 6, 12)))
        _same([
            a,
            CycNum(big, embed_at_conductor(a, big)),
            cycnum_from_dict(a.to_dict()),
            (a + b) - b,
            a * 1,
            Fraction(1, 1) * a,
            a + 0,
            -(-a),
            (a * q) * CycNum.from_rational(1 / q),
        ])


def test_roots_of_unity_agree_across_construction_paths():
    for m in (1, 2, 3, 4, 6, 10, 12, 15, 30, 60, 84):
        for k in range(-m, 2 * m + 1, max(1, m // 7)):
            z = CycNum.zeta(m, k)
            coords = [Fraction(0)] * euler_phi(m)
            if m == 1:
                coords[0] = Fraction(1)
            else:
                ref._cyclotomy(m).power_accumulate(coords, k, Fraction(1))
            _check_invariants(z)
            assert _pair(z) == ref.canonicalize(m, coords)
            _same([z, CycNum(m, coords), CycNum.zeta(m) ** (k % m), CycNum.zeta(m * 3, 3 * k)])


def test_rational_coercions():
    three = CycNum.from_rational(3)
    half = CycNum.from_rational(Fraction(1, 2))
    assert three == 3 and 3 == three
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half != 1 and three != Fraction(1, 3)
    assert (three.num, three.den) == ((3,), 1)
    assert (half.num, half.den) == ((1,), 2)
    assert CycNum(6, [Fraction(1, 2), 0]) == half
    assert hash(CycNum(12, [Fraction(3)] + [0] * 3)) == hash(three)
    assert CycNum.from_rational(Fraction(-4, 6)) == Fraction(-2, 3)
    assert (half - half).num == (0,) and (half - half).den == 1
    assert half.inverse() == 2 and CycNum.from_rational(Fraction(-3, 4)).inverse() == Fraction(-4, 3)

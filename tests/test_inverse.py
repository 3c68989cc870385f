"""CycNum.inverse (relative norms down the cyclotomic tower) against the
Fraction extended Euclid of ``fraction_reference``.

Seeded dense and sparse elements with denominators above 1 and values
hiding in a subfield, at conductors with every shape of tower step:
p dividing n/p (9, 25, 27, 8, 16) and not (15, 105, 7, 20, 60), and
sparse elements at 101, 420 and 3960.
"""

import math
import random
from fractions import Fraction

import pytest

from cyclohouse import CycNum
from cyclohouse.cyclotomic import _primitive_root, euler_phi
from cyclohouse.errors import DomainError

from . import fraction_reference as ref

CONDUCTORS = (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 25, 27, 60, 105)


def _element(rng, n, kind, low=None):
    """A seeded element at n; sparse ones use exponents below ``low``."""
    phi = euler_phi(n)
    coords = [Fraction(0)] * phi
    if kind == "subfield":
        d = rng.choice([d for d in range(2, n) if n % d == 0] or [1])
        return CycNum(n, ref._embed_list((d, _element(rng, d, "dense").coords), n))
    if kind == "dense":
        slots = range(phi)
    else:
        slots = rng.sample(range(min(phi, low or phi)), min(phi, 3))
    for j in slots:
        coords[j] = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 5)))
    return CycNum(n, coords)


def _check(a):
    b = a.inverse()
    assert (b.n, b.coords) == ref.inverse((a.n, a.coords)), a
    assert b.n == a.n and b.den > 0 and math.gcd(b.den, *b.num) == 1
    assert a * b == 1


def test_inverse_matches_fraction_euclid():
    rng = random.Random(5101)
    for n in CONDUCTORS:
        for kind in ("dense", "sparse", "sparse", "subfield"):
            a = _element(rng, n, kind)
            if a:
                _check(a)


@pytest.mark.parametrize("n", [101, 420, 3960])
def test_sparse_inverse_at_large_conductors(n):
    # The Fraction Euclid is slow on arbitrary sparse elements at these
    # conductors, so it checks low-degree ones; the rest are checked by
    # a * a^-1 == 1, which pins the inverse down as well.
    rng = random.Random(5102 + n)
    _check(CycNum.zeta(n) - 3)
    if n == 3960:
        _check(3 * CycNum.zeta(n) - CycNum.zeta(n, 3) + Fraction(1, 2))
    else:
        for _ in range(2):
            _check(_element(rng, n, "sparse", low=6))
    for _ in range(3):
        a = _element(rng, n, "sparse")
        assert a * a.inverse() == 1


def test_inverse_of_rationals_roots_of_unity_and_zero():
    assert CycNum.from_rational(Fraction(-3, 4)).inverse() == Fraction(-4, 3)
    for m in (3, 8, 12, 101, 420):
        assert CycNum.zeta(m).inverse() == CycNum.zeta(m, -1)
    with pytest.raises(DomainError):
        CycNum.zero.inverse()


def test_primitive_roots():
    for p in (2, 3, 5, 7, 11, 13, 31, 101, 1009):
        g = _primitive_root(p)
        assert len({pow(g, i, p) for i in range(p - 1)}) == p - 1


def test_dense_inverse_at_101_takes_logarithmically_many_products(monkeypatch):
    # |Gal(Q(zeta_101)/Q)| = 100; without doubling the cofactor takes 98
    # products, with it at most 2*log2(99) plus the norm and the final one.
    rng = random.Random(5103)
    a = _element(rng, 101, "dense")
    calls = 0
    mul = CycNum.__mul__

    def counting(x, y):
        nonlocal calls
        calls += 1
        return mul(x, y)

    monkeypatch.setattr(CycNum, "__mul__", counting)
    b = a.inverse()
    monkeypatch.undo()
    assert calls <= 2 * math.log2(100) + 4, calls
    assert a * b == 1

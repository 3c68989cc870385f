"""The Zumbroich form of an element (``cyclotomic._zumbroich_terms``).

Each conversion is rebuilt as sum w * zeta_n^e by one dense reduction
(``_scatter``) and compared with the element's numerators as integers.
"""

import random
from fractions import Fraction

import pytest

from cyclohouse import CycNum
from cyclohouse.cyclotomic import _scatter, _zumbroich_terms, euler_phi, factorize

CONDUCTORS = [n for n in range(3, 201) if n % 4 != 2] + [420, 840, 2520, 3960, 27720]
# at 27720 one rebuild takes milliseconds, so every 45th monomial is rebuilt
# alone there; the dense elements cover the rest
MONOMIAL_STRIDE = {27720: 45}


def _rebuilt(n, terms):
    row = [0] * n
    for e, w in terms:
        row[e] += w
    return _scatter(n, row)


def _in_basis(n, e):
    """zeta_n^e is a Zumbroich basis element: with f = e (n/q)^-1 mod q and
    f = a + b q/p per q = p^v || n, b != 0 at every odd p and b = 0 at p = 2."""
    for p, v in factorize(n):
        q = p**v
        b = e * pow(n // q, -1, q) % q // (q // p)
        if (b == 0) != (p == 2):
            return False
    return True


def _elements(rng, n):
    phi = euler_phi(n)
    sparse = sum((CycNum.zeta(n, rng.randrange(n)) * rng.choice((1, -1, 3)) for _ in range(3)),
                 CycNum.zeta(n))
    dense = CycNum(n, [rng.randint(-9, 9) for _ in range(phi)])
    fractional = CycNum(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(phi)])
    return [sparse, dense, fractional]


@pytest.mark.parametrize("n", CONDUCTORS)
def test_zumbroich_terms_rebuild_the_element(n):
    rng = random.Random(n)
    for a in _elements(rng, n):
        num = list(a.num) if a.n == n else _scatter(n, a.num, n // a.n)
        nz = [(j, w) for j, w in enumerate(num) if w]
        terms = _zumbroich_terms(n, nz)
        assert all(w and 0 <= e < n and _in_basis(n, e) for e, w in terms)
        assert len({e for e, _ in terms}) == len(terms) <= euler_phi(n)
        assert _rebuilt(n, terms) == num, (n, a)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_zumbroich_terms_of_each_monomial(n):
    phi = euler_phi(n)
    for j in range(0, phi, MONOMIAL_STRIDE.get(n, 1)):
        terms = _zumbroich_terms(n, [(j, 1)])
        assert all(_in_basis(n, e) and w in (1, -1) for e, w in terms)
        assert _rebuilt(n, terms) == [int(i == j) for i in range(phi)], (n, j)


@pytest.mark.parametrize("n", [12, 60, 105, 2520])
def test_the_basis_has_phi_elements(n):
    assert sum(_in_basis(n, e) for e in range(n)) == euler_phi(n)

"""Root-of-unity lookup at rad(n) against the dense table at n.

``is_root_of_unity`` and ``as_positive_rational_times_rou`` look the one
nonzero residue class of the coordinates mod n/rad(n) up in the torsion
table at rad(n).  ``torsion_reference`` keeps the earlier dense table
over all of mu_M at n and its linear scan; both must give the same
answers on roots of unity, their rational multiples and sums that are
not roots of unity.  Conductors: odd and 0 mod 4, squarefree and not,
a seeded sample up to 400 and the large ones the house workload meets.
"""

import math
import random
from fractions import Fraction

from cyclohouse import CycNum, is_root_of_unity
from cyclohouse.cyclotomic import factorize
from cyclohouse.special import as_positive_rational_times_rou

from . import torsion_reference as ref

FIXED_ORDERS = (1, 2, 3, 4, 8, 9, 12, 25, 27, 36, 105, 225, 256, 385, 400)
LARGE_ORDERS = (420, 504, 630, 840, 1260, 2520)
# Exponents per order checked through the reference's linear scan.
SCAN_SAMPLES = 12


def _orders():
    rng = random.Random(4)
    rest = [m for m in range(5, 401) if m % 4 != 2 and m not in FIXED_ORDERS]
    return FIXED_ORDERS + tuple(sorted(rng.sample(rest, 16))) + LARGE_ORDERS


def _variants(m: int, k: int) -> list[CycNum]:
    """zeta_m^k, rational multiples of it, and nearby non-roots."""
    z = CycNum.zeta(m, k)
    rad = math.prod(p for p, _ in factorize(m))
    return [
        z,
        -z,
        z * 2,
        z * Fraction(-3, 7),
        z + 1,
        z + CycNum.zeta(m, k + 1),
        # zeta_m^k * (1 + zeta_rad): one residue class mod m/rad at m
        z + CycNum.zeta(m, k + m // rad),
    ]


def test_orders_cover_each_kind():
    orders = _orders()
    odd = [m for m in orders if m % 2]
    assert any(m % 4 == 0 for m in orders)
    assert any(math.prod(p for p, _ in factorize(m)) == m for m in odd)
    assert any(math.prod(p for p, _ in factorize(m)) != m for m in odd)


def test_is_root_of_unity_matches_dense_table():
    rng = random.Random(7)
    checked = roots = 0
    for m in _orders():
        # every root of unity of order m, and the other variants at up
        # to 120 exponents
        sample = set(rng.sample(range(m), min(m, 120)))
        for k in range(m):
            z = CycNum.zeta(m, k)
            values = _variants(m, k) if k in sample else [z, -z]
            for v in values:
                got = is_root_of_unity(v)
                assert got == ref.is_root_of_unity(v), (m, k, v)
                checked += 1
                roots += got is not None
    assert roots >= checked // 4


def test_rational_times_root_matches_linear_scan():
    rng = random.Random(11)
    for m in _orders():
        for k in sorted(rng.sample(range(m), min(m, SCAN_SAMPLES))):
            for v in _variants(m, k):
                assert as_positive_rational_times_rou(v) == ref.as_positive_rational_times_rou(v), (
                    m, k, v)

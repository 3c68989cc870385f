"""The root-of-unity test and the shortest root-of-unity sum against dense tables.

``is_root_of_unity`` (and through it ``as_positive_rational_times_rou``)
maps an element into F_p, reads the one candidate exponent off its image
and checks zeta_M^k = a exactly; ``loxton_decompose`` matches sums of
F_p images and checks each match exactly.  ``torsion_reference`` keeps
the earlier dense table over all of mu_M at n, built from
``fraction_reference``'s rows, its linear scan and its meet-in-the-middle
search keyed by coordinate tuples; both must give the same answers on
roots of unity, their rational multiples, sums that are not roots of
unity and short sums of roots.  Conductors: odd and 0 mod 4, squarefree
and not, with Phi_n coefficients of +-1 only and larger ones (1155), a
seeded sample up to 400 and the large ones the house and cli workloads
meet.  The last tests bound the time and memory of the torsion test and
of the sum search at large squarefree conductors, where a dense table
per conductor would hold 2n vectors of phi(n) ints.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from cyclohouse import CycNum, RootOfUnity, is_root_of_unity, loxton_decompose
from cyclohouse.cyclotomic import canonical_conductor, euler_phi, factorize, torsion_order
from cyclohouse.special import as_positive_rational_times_rou

from . import fraction_reference
from . import torsion_reference as ref

FIXED_ORDERS = (1, 2, 3, 4, 8, 9, 12, 25, 27, 36, 105, 225, 256, 385, 400)
LARGE_ORDERS = (420, 504, 630, 840, 1155, 1260, 2520, 3960)
# Orders checked at 40 sampled exponents only, not at every root.
SAMPLED_ORDERS = (1155, 3960)
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
        # every root of unity of order m (40 of them at the sampled
        # orders), and the other variants at up to 120 exponents
        if m in SAMPLED_ORDERS:
            sample = set(rng.sample(range(m), 40))
            exponents = sorted(sample)
        else:
            sample = set(rng.sample(range(m), min(m, 120)))
            exponents = range(m)
        for k in exponents:
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


def test_loxton_matches_dense_search():
    # sums of one to three roots with coefficients +-1 and 2, at every
    # conductor up to 105, sorted by conductor so that the reference
    # builds each of its tables once
    rng = random.Random(105)
    conductors = sorted({canonical_conductor(m) for m in range(1, 106)})
    cases = []
    for _ in range(1000):
        m = torsion_order(rng.choice(conductors))
        a = CycNum.zero
        for _ in range(rng.randint(1, 3)):
            a = a + rng.choice((1, -1, 2)) * CycNum.zeta(m, rng.randrange(m))
        cases.append((a, rng.randint(1, 4)))
    cases.sort(key=lambda case: case[0].n)
    found = 0
    for a, d_max in cases:
        got = loxton_decompose(a, d_max)
        assert got == ref.loxton_decompose(a, d_max), (a, d_max)
        found += got is not None
    assert 300 < found < 900


@pytest.mark.parametrize("n", (9, 12, 105, 225, 385, 1155, 2520, 3960, 18, 210, 450, 770, 2310))
def test_zeta_matches_reference_rows(n):
    # a unit e keeps the conductor n, so the numerators are the row itself;
    # at n = 2m, m odd, they are the reference's rewrite of zeta_n^e into
    # Q(zeta_m), read off the exponent vector with its one 1 at e
    for e in range(1 if n % 4 == 2 else euler_phi(n), n):
        if math.gcd(e, n) == 1:
            if n % 4 == 2:
                m, coords = fraction_reference._rewrite_2mod4(n, [0] * e + [1])
                want = m, tuple(coords)
            else:
                want = n, fraction_reference._cyclotomy(n).row(e)
            z = CycNum.zeta(n, e)
            assert (z.n, z.num, z.den) == (*want, 1), e


def test_large_squarefree_conductor_holds_no_table():
    # 4199 = 13 * 17 * 19: a dense table there holds 8398 tuples of 3456 ints
    a = 1 + CycNum.zeta(4199)
    b = -CycNum.zeta(4199, 3500)  # = zeta_8398^(4199 + 7000), 3500 >= phi
    tracemalloc.start()
    try:
        assert is_root_of_unity(a) is None
        assert is_root_of_unity(b) == RootOfUnity.make(8398, 11199)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_loxton_at_a_large_squarefree_conductor_builds_no_coordinates():
    # the coordinate tables held 8398 tuples of 3456 ints: 1.16 s and 223 MB
    a = 1 + CycNum.zeta(4199)
    tracemalloc.start()
    try:
        start = time.process_time()
        got = loxton_decompose(a, 2)
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [root for _, root in got] == [RootOfUnity(1, 0), RootOfUnity(4199, 1)]
    assert elapsed < 0.3
    assert peak < 20 * 2**20


# A child process runs the command under a 1 GB address-space and a 20 s
# CPU limit, so that a dense table fails fast, and reports its rusage.
# The extra process level keeps the test process's own peak out of
# ru_maxrss, which survives exec.
_RUSAGE_SCRIPT = """
import json, resource, subprocess, sys

def limits():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (20, 20))

proc = subprocess.run([sys.executable, "-m", "cyclohouse.cli", *sys.argv[1:]],
                      preexec_fn=limits, capture_output=True, text=True)
ru = resource.getrusage(resource.RUSAGE_CHILDREN)
print(json.dumps({"code": proc.returncode, "out": proc.stdout,
                  "cpu": ru.ru_utime + ru.ru_stime, "rss_kb": ru.ru_maxrss}))
"""


@pytest.mark.parametrize("argv, answer", [
    (["rootofunity", "z14807 + 1"], {"root_of_unity": None}),
    (["pa", "1 + z14807", "--A", "1"], {"verdict": "nonmember"}),
])
def test_cli_at_conductor_14807_is_cheap(argv, answer):
    # 14807 = 13 * 17 * 67, phi 12672
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", _RUSAGE_SCRIPT, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    out = json.loads(report["out"])
    assert {key: out[key] for key in answer} == answer
    assert report["cpu"] < 5
    assert report["rss_kb"] < 200 * 1024

"""Reference torsion tests: the dense table over all of mu_M at conductor n.

This is the earlier root-of-unity machinery of ``cyclohouse``: one
coordinate tuple per element of mu_M, M = lcm(2, n), at the minimal
conductor n itself, a lookup in that table for the torsion test, a
linear scan of it for writing an element as a positive rational times a
root of unity, and a meet-in-the-middle search keyed by summed
coordinate tuples for the shortest sum of roots of unity.  The package
now works on F_p images, zeta_M -> g, and checks every candidate
exactly; these are kept to compare against.  Powers of zeta_n come from
the rows of ``fraction_reference``, which divide by Phi_n at n
directly, so the tables share no code with the package.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache

from cyclohouse.cyclotomic import CycNum, RootOfUnity, euler_phi

from . import fraction_reference as ref


def _power_vec(n: int, e: int) -> tuple[int, ...]:
    """Integer coordinates of zeta_n^e in the power basis at n."""
    e %= n
    phi = euler_phi(n)
    if e < phi:
        vec = [0] * phi
        vec[e] = 1
        return tuple(vec)
    return ref._cyclotomy(n).row(e)


def torsion_vectors(n: int) -> list[tuple[int, ...]]:
    """Int coordinates of zeta_M^k for k < M, M = lcm(2, n)."""
    vecs = []
    m_tor = n if n % 2 == 0 else 2 * n
    for k in range(m_tor):
        if n % 2 == 0:
            vec = _power_vec(n, k)
        else:
            # zeta_{2n}^k = (-1)^k * zeta_n^(k*(n+1)/2 mod n)
            vec = _power_vec(n, k * ((n + 1) // 2))
            if k % 2 == 1:
                vec = tuple(-v for v in vec)
        vecs.append(vec)
    return vecs


@lru_cache(maxsize=None)
def torsion_table(n: int) -> dict[tuple[int, ...], int]:
    """Map from int-coordinate tuples to k, covering all mu_M, M = lcm(2, n)."""
    table: dict[tuple[int, ...], int] = {}
    for k, vec in enumerate(torsion_vectors(n)):
        table.setdefault(vec, k)
    return table


def is_root_of_unity(a) -> RootOfUnity | None:
    """The root of unity equal to a, by lookup in the dense table."""
    if a.den != 1 or not a:
        return None
    k = torsion_table(a.n).get(a.num)
    if k is None:
        return None
    m_tor = a.n if a.n % 2 == 0 else 2 * a.n
    return RootOfUnity.make(m_tor, k)


def as_positive_rational_times_rou(a) -> tuple[Fraction, RootOfUnity] | None:
    """a = s * xi with s > 0 rational, by a linear scan of the dense table."""
    if not a:
        return None
    if a.is_rational:
        q = a.as_rational()
        if q > 0:
            return q, RootOfUnity.make(1, 0)
        return -q, RootOfUnity.make(2, 1)
    n = a.n
    num = a.num
    j0 = next(j for j, c in enumerate(num) if c)
    c0 = num[j0]
    m_tor = n if n % 2 == 0 else 2 * n
    for vec, k in torsion_table(n).items():
        v0 = vec[j0]
        if not v0:
            continue
        # a = s * vec with s = c0 / (v0 * den), compared on numerators
        if all(c * v0 == c0 * v for c, v in zip(num, vec)):
            s = Fraction(c0, v0 * a.den)
            if s < 0:
                s = -s
                k = (k + m_tor // 2) % m_tor
            return s, RootOfUnity.make(m_tor, k)
    return None


@lru_cache(maxsize=4)
def _half_sums(n: int, size: int):
    """Coordinate sums of each multiset of size roots, and the first of each.

    Returns the list of (sum, combination) in combinations order and the
    table mapping a sum to its first combination.  Kept for the last few
    (n, size), so a sweep sorted by conductor builds each once.
    """
    vecs = torsion_vectors(n)
    sums = []
    for combo in itertools.combinations_with_replacement(range(len(vecs)), size):
        s = vecs[combo[0]]
        for k in combo[1:]:
            s = tuple(map(operator.add, s, vecs[k]))
        sums.append((s, combo))
    first: dict[tuple[int, ...], tuple[int, ...]] = {}
    for s, combo in sums:
        first.setdefault(s, combo)
    return sums, first


def loxton_decompose(a, d_max: int):
    """Shortest sum of at most d_max roots of mu_M equal to the integer a.

    Both halves of the meet in the middle are coordinate tuples: the left
    table maps the sum of d // 2 roots to its first combination, and each
    sum of the other d - d // 2 roots, in combinations order, looks up
    the tuple that completes a.  Returns [(1, root), ...] sorted by
    (order, exponent), or None.
    """
    if not a:
        return []
    root = is_root_of_unity(a)
    if root is not None:
        return [(CycNum.one, root)]
    m_tor = a.n if a.n % 2 == 0 else 2 * a.n
    for d in range(2, d_max + 1):
        left = _half_sums(a.n, d // 2)[1]
        for s, combo in _half_sums(a.n, d - d // 2)[0]:
            hit = left.get(tuple(map(operator.sub, a.num, s)))
            if hit is not None:
                roots = [RootOfUnity.make(m_tor, k) for k in hit + combo]
                roots.sort(key=lambda r: (r.order, r.exponent))
                return [(CycNum.one, r) for r in roots]
    return None


def shortest_sum_length(a, d_max: int) -> int | None:
    """Fewest roots of mu_M summing to a, by trying every multiset of d <= d_max."""
    m_tor = a.n if a.n % 2 == 0 else 2 * a.n
    roots = [CycNum.zeta(m_tor, k) for k in range(m_tor)]
    for d in range(d_max + 1):
        for combo in itertools.combinations_with_replacement(roots, d):
            total = CycNum.zero
            for r in combo:
                total = total + r
            if total == a:
                return d
    return None

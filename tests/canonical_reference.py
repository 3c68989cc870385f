"""Reference canonicalization that decides every prime drop by buckets alone.

``canonicalize`` descends one prime at a time, as
``cyclohouse.cyclotomic._canonicalize`` does, but ``try_drop_prime``
reduces and compares every bucket w_r in Q(zeta_m) exactly, with no
F_p image and no shortcut at m = 1, so the tests compare the screened
descent with it.
"""

from __future__ import annotations

from cyclohouse.cyclotomic import _scatter, factorize


def try_drop_prime(n: int, num, p: int) -> list[int] | None:
    """The numerators of the element at m = n/p, or None if it is not there."""
    m = n // p
    if m % p == 0:
        if any(num[k] for k in range(len(num)) if k % p):
            return None
        return list(num[::p])
    inv_p = pow(p, -1, m)
    buckets = [_scatter(m, num[r::p], 1, inv_p * r % m) for r in range(p)]
    if any(b != buckets[1] for b in buckets[2:]):
        return None
    return [a - b for a, b in zip(buckets[0], buckets[1])]


def canonicalize(n: int, num: list[int]) -> tuple[int, list[int]]:
    """Minimal conductor and its numerators; zero is (1, [0])."""
    while n != 1:
        if not any(num):
            return 1, [0]
        for p, _ in factorize(n):
            dropped = try_drop_prime(n, num, p)
            if dropped is not None:
                n //= p
                num = dropped
                break
        else:
            return n, num
    return 1, [num[0]]

"""The packed house kernel against the four-accumulator loop.

``cyclotomic._square_bounds`` sums one packed root-table entry per term
and reads the four endpoint sums back from their slots; the reference
loop (``house_reference.square_bounds``) keeps four interval sums with a
sign branch per term.  Both must give the same integers (lo, hi) for
every unit, and every packed entry must unpack to the box of the
reference table.
"""

from __future__ import annotations

import random

import pytest

import cyclohouse.cyclotomic as cyc
from cyclohouse.intervals import root_table

from . import house_reference
from .interval_boxes import root_boxes, unpack

SLACKS = (32, 64, 352)


def _pack(e1, e2, e3, e4, b):
    return e1 + (e2 << b) + (e3 << 2 * b) + (e4 << 3 * b)


@pytest.mark.parametrize(
    "n, prec",
    [(1, 64), (2, 64), (3, 1024), (4, 80), (12, 64), (420, 256), (1009, 128), (2520, 64),
     (2520, 1024)],
)
def test_every_packed_entry_unpacks_to_the_reference_box(n, prec):
    boxes = house_reference.root_table(n, prec)
    for slack in SLACKS:
        b = prec + slack
        packed, swaps = root_table(n, prec, slack)
        assert len(packed) == len(swaps) == n
        assert len({id(d) for d in swaps}) <= 9
        for p, d, (e1, e2, e3, e4) in zip(packed, swaps, boxes):
            assert unpack(p, b) == (e1, e2, e3, e4)
            # the entry a negative weight takes: slots swapped in each part
            assert p + d == _pack(e2, e1, e4, e3, b)


def _slack(nz):
    return (sum(abs(w) for _, w in nz).bit_length() + 33) // 32 * 32


def _weights(rng, count, total):
    """At most count nonzero weights of mixed signs, magnitudes summing to total."""
    cuts = sorted({rng.randrange(1, total) for _ in range(count - 1)} if total > 1 else ())
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return [s * rng.choice((1, -1)) for s in sizes]


def _cases(rng):
    """(n, prec, nz) over conductors 1-2520 and 1009, precisions 64-1024, and
    weight sums on both sides of every slack boundary up to 2^320."""
    conductors = [1, 2, 3, 4, 7, 1009, 2520] + rng.sample(range(5, 2521), 25)
    totals = [1, 2, 3, 1000]
    for slack in range(32, 353, 32):
        edge = 1 << (slack - 2)
        totals += [edge - 1, edge, edge + 1]
    totals.append(1 << 320)
    for i, total in enumerate(totals * 4):
        n = conductors[i % len(conductors)]
        prec = rng.choice((64, 100, 128, 256, 320, 512, 1024))
        weights = _weights(rng, min(n, rng.randint(1, 12)), total)
        js = rng.sample(range(n), len(weights))
        if rng.random() < 0.5 and 0 not in js:
            js[0] = 0  # the rational coordinate: an exact entry
        yield n, prec, list(zip(js, weights))
    # one term at j = 0 and the largest weight of a slack fills a slot to the
    # bound that the slack promises, on either sign
    for slack in (32, 64, 352):
        for sign in (1, -1):
            yield 60, 64, [(0, sign * ((1 << (slack - 2)) - 1))]


def test_packed_kernel_equals_the_four_accumulator_loop():
    rng = random.Random(20261019)
    slacks = set()
    for n, prec, nz in _cases(rng):
        units = cyc._units_half(n) or (1,)
        got = list(cyc._square_bounds(n, prec, nz, units))
        tab = root_boxes(n, prec)
        want = [house_reference.square_bounds(tab, n, nz, t) for t in units]
        assert got == want, (n, prec, nz)
        slacks.add(_slack(nz))
    assert slacks == set(range(32, 385, 32))

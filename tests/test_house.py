from fractions import Fraction

import pytest

from cyclohouse import (
    CycNum,
    UndecidedError,
    conjugates,
    house,
    in_PA,
    is_root_of_unity,
)
from cyclohouse import cyclotomic as cyc
from cyclohouse.avoidance import scan_roots_of_unity
from cyclohouse.cyclotomic import compare_house, is_algebraic_integer
from cyclohouse.ratfunc import Poly, RatFunc

from .conftest import random_cycnum


def z(n, k=1):
    return CycNum.zeta(n, k)


# (1+sqrt(5))/2 bracketed by two 30-digit rationals
GOLDEN_LO = Fraction("1.61803398874989484820458683436")
GOLDEN_HI = Fraction("1.61803398874989484820458683437")


def test_root_of_unity_house_is_one():
    hr = house(z(7, 3))
    assert hr.lower <= 1 <= hr.upper
    assert hr.width <= Fraction(1, 2**64)


def test_rational_house_exact():
    hr = house(CycNum.from_rational(-3))
    assert hr.lower == 3 == hr.upper


def test_golden_ratio_anchor():
    # [GOLDEN_LO, GOLDEN_HI] brackets (1+sqrt(5))/2 to 30 digits; the
    # rigorous enclosure must intersect it and be at least 1e-10 tight.
    hr = house(CycNum.from_rational(1) + z(5), 128)
    assert hr.lower <= GOLDEN_HI and GOLDEN_LO <= hr.upper
    assert hr.width <= Fraction(1, 10**10)


def test_requested_accuracy_met():
    a = z(7) + z(5) * 3 - 1
    for bits in (16, 64, 128):
        hr = house(a, bits)
        assert hr.width <= Fraction(1, 2**bits)


def test_precision_cap_raises():
    a = CycNum.from_rational(1) + z(5)
    with pytest.raises(UndecidedError):
        house(a, 10**6, cap=256)


def test_house_invariant_under_galois(rng):
    for _ in range(10):
        a = random_cycnum(rng, max_conductor=12, height=4)
        hr = house(a)
        for c in conjugates(a):
            hc = house(c)
            # same underlying number: enclosures must overlap
            assert hc.lower <= hr.upper and hr.lower <= hc.upper


def test_submultiplicative_and_subadditive(rng):
    for _ in range(12):
        a = random_cycnum(rng, max_conductor=8, height=4)
        b = random_cycnum(rng, max_conductor=8, height=4)
        hab = house(a * b)
        ha, hb = house(a), house(b)
        assert hab.lower <= ha.upper * hb.upper
        hsum = house(a + b)
        assert hsum.lower <= ha.upper + hb.upper


def test_kronecker_equivalence_small_corpus():
    thresh = 1 + Fraction(1, 2**30)
    corpus = []
    for m in (1, 2, 3, 4, 5, 7, 8):
        for k in range(m):
            corpus.append(z(m, k))
    for a in corpus:
        for b in corpus:
            v = a + b
            if not v:
                continue
            assert is_algebraic_integer(v)
            analytic = house(v, 64).upper <= thresh
            exact = is_root_of_unity(v) is not None
            assert analytic == exact, v


# -- enclosures kept on the element ---------------------------------------------


@pytest.fixture
def table_lookups(monkeypatch):
    """Counts root_table lookups by working precision: one per kernel run."""
    counts: dict[int, int] = {}
    real = cyc.root_table

    def counting(n, prec):
        counts[prec] = counts.get(prec, 0) + 1
        return real(n, prec)

    monkeypatch.setattr(cyc, "root_table", counting)
    return counts


def _sample():
    # an algebraic integer at conductor 420 of house about 4.47
    return z(420) + z(7, 3) * 2 - z(60, 7) + z(105) + 1


def test_kernel_runs_once_per_element_and_precision(table_lookups):
    a = _sample()
    first = [house(a, 64), house(a, 256), in_PA(a, 5)]
    once = dict(table_lookups)
    assert len(once) >= 2 and all(c == 1 for c in once.values())
    again = [house(a, 64), house(a, 256)]
    assert in_PA(a, 5) == "member" and in_PA(a, 4) == "nonmember"
    assert compare_house(a, 5) is True
    assert table_lookups == once
    assert again == first[:2]


def test_equal_element_computes_its_own_bounds(table_lookups):
    a = _sample()
    house(a, 64)
    b = CycNum(a.n, a.coords)
    assert b == a and b is not a
    before = sum(table_lookups.values())
    house(b, 64)
    assert sum(table_lookups.values()) == before + 1


def test_memo_gives_the_enclosures_of_a_fresh_element():
    for value in (_sample(), z(7) + z(5) * 3 - 1, z(60, 11) * 2 + z(9)):
        kept = CycNum(value.n, value.coords)
        # climb the ladder once on the kept element, in an unhelpful order
        for bits in (256, 64, 128, 64, 256):
            house(kept, bits)
        in_PA(kept, 5)
        for bits in (64, 128, 256):
            fresh = CycNum(value.n, value.coords)
            got, want = house(kept, bits), house(fresh, bits)
            assert (got.lower, got.upper, got.precision_bits) == (
                want.lower, want.upper, want.precision_bits)


def test_scan_keeps_one_result_per_equal_enclosure():
    # h(x) = x^2 - 2 at the 20 primitive 25th roots: conjugate values,
    # many of them with equal enclosures at 64 bits
    h = RatFunc.from_poly(Poly([-2, 0, 1]))
    hits = scan_roots_of_unity(h, 25, 3).hits
    seen = {}
    for hit in hits:
        assert seen.setdefault(hit.house, hit.house) is hit.house
    assert len(seen) < len(hits)


def test_compare_house_ladder():
    golden = CycNum.from_rational(1) + z(5)  # house (1 + sqrt 5)/2
    assert compare_house(golden, Fraction(17, 10)) is True
    assert compare_house(golden, Fraction(3, 2)) is False
    # house(2*z3) = 2 exactly: no enclosure separates it from 2
    assert compare_house(z(3) * 2, 2, cap=256) is None
    assert in_PA(z(3) * 2, 2, cap=256) == "undecided"


def test_compare_house_decides_zero_and_torsion_exactly(monkeypatch):
    import cyclohouse.cyclotomic as cyc

    def no_house(*_a, **_k):
        raise AssertionError("house called")

    monkeypatch.setattr(cyc, "house", no_house)
    assert compare_house(CycNum.zero, 3) is True
    assert compare_house(z(7, 3), 1) is True
    assert compare_house(-z(36, 5), Fraction(1)) is True
    assert compare_house(z(7) + 1, 1) is False
    assert in_PA(z(9, 2), 1) == "member"

"""Taylor shifts and affine compositions against the CycNum-loop reference."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclohouse import CycNum, LaurentPoly, Mobius, Poly, RatFunc, compose, mobius_conjugate
from cyclohouse import cyclotomic, ratfunc
from cyclohouse.cyclotomic import euler_phi

from . import poly_reference as ref

def _elements(n: int):
    """Q(zeta_n): phi(n) numerators in [-4, 4] over one denominator up to 6."""
    phi = euler_phi(n)
    return st.builds(
        lambda num, d: CycNum(n, [Fraction(k, d) for k in num]),
        st.lists(st.integers(-4, 4), min_size=phi, max_size=phi),
        st.integers(1, 6),
    )


def _polys(field, max_deg=12):
    """Degree up to max_deg, drawn apart from the coefficients so that
    high degrees come up as often as low ones."""
    return st.builds(
        lambda cs, d: Poly(cs[: d + 1]),
        st.lists(field, min_size=max_deg + 1, max_size=max_deg + 1),
        st.integers(0, max_deg),
    )


def _shifts(field):
    """v as 0, an int, a Fraction or a field element (irrational off Q)."""
    return st.one_of(
        st.just(0),
        st.integers(-5, 5),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        field,
    )


def _outer_maps(field):
    """A polynomial, or a rational map with poles (denominator degree 1-3)."""
    return st.one_of(
        _polys(field).map(RatFunc.from_poly),
        st.builds(RatFunc, _polys(field), _polys(field, 3).filter(lambda q: q.deg >= 1)),
    )


# Conductors 1, 3, 4, 5, 11 and 12, and coefficients at 3 or 4 mixed in
# one polynomial, which the shift embeds at 12.
# The case strategies are built once, here: one built inside a draw is
# validated again on every draw, which costs more than the tests do.
FIELDS = {n: _elements(n) for n in (1, 3, 4, 5, 11, 12)}
FIELDS["3.4"] = st.one_of(_elements(3), _elements(4))

# a as 1, -1, a root of unity or a rational of denominator > 1.
SLOPES = st.one_of(
    st.sampled_from([CycNum.one, -CycNum.one]),
    st.builds(CycNum.zeta, st.sampled_from([3, 4, 5, 12]), st.integers(1, 11)),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(2, 6))
    .filter(lambda a: a.denominator > 1)
    .map(CycNum.from_rational),
)

SHIFT_CASES = {n: st.tuples(_polys(f), _shifts(f)) for n, f in FIELDS.items()}
AFFINE_CASES = {n: st.tuples(_outer_maps(f), SLOPES, _shifts(f)) for n, f in FIELDS.items()}


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=15)
def test_taylor_shift_matches_reference(field, data):
    p, v = data.draw(SHIFT_CASES[field])
    assert p.taylor_shift(v) == ref.taylor_shift(p, v)


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=10)
def test_affine_composition_matches_reference(field, data):
    h, a, b = data.draw(AFFINE_CASES[field])
    inner = RatFunc.from_poly(Poly([b, a]))
    assert compose(h, inner) == ref.compose(h, inner)


def _laurent_maps(field):
    """A nonconstant, non-affine Laurent map: terms at exponents -3 to 3,
    so that its denominator is a monomial x^k, k = 0 included."""
    return st.lists(st.tuples(st.integers(-3, 3), field), min_size=1, max_size=4).map(
        lambda terms: LaurentPoly(terms).to_ratfunc()
    ).filter(lambda s: not s.is_constant() and not (s.den.deg == 0 and s.num.deg == 1))


LAURENT_CASES = {
    n: st.tuples(
        st.one_of(
            _polys(f, 5).map(RatFunc.from_poly),
            st.builds(RatFunc, _polys(f, 4), _polys(f, 2).filter(lambda q: q.deg >= 1)),
        ),
        _laurent_maps(f),
    )
    for n, f in FIELDS.items()
}


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=10)
def test_laurent_composition_matches_reference(field, data):
    """An inner map over a monomial x^k multiplies by its powers as shifts."""
    h, inner = data.draw(LAURENT_CASES[field])
    assert compose(h, inner) == ref.compose(h, inner)


MONOMIAL_CASES = {
    n: st.tuples(
        _outer_maps(f),
        st.builds(
            lambda c, k: RatFunc.from_poly(Poly([0] * k + [c])), f.filter(bool), st.integers(2, 6)
        ),
    )
    for n, f in FIELDS.items()
}


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=10)
def test_monomial_composition_matches_reference(field, data):
    """An inner map c x^k, k >= 2, spreads the outer coefficients."""
    h, inner = data.draw(MONOMIAL_CASES[field])
    assert compose(h, inner) == ref.compose(h, inner)


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@settings(max_examples=10)
def test_affine_conjugate_matches_homogenized_composition(field, data):
    h, a, b = data.draw(AFFINE_CASES[field])
    d = data.draw(SLOPES)
    m = Mobius(a, b, CycNum.zero, d)
    expected = ref.compose(m.inverse().as_ratfunc(), ref.compose(h, m.as_ratfunc()))
    got = mobius_conjugate(h, m)
    assert got == expected and hash(got) == hash(expected)


def test_affine_composition_is_one_taylor_shift(monkeypatch):
    """compose(h, a x + b) makes no Poly product, the identity does no
    work, and a Taylor shift canonicalizes at most deg + 1 coefficients."""
    z = CycNum.zeta(11)
    p = Poly([z ** (k % 11) * (k + 1) - Fraction(k, 3) for k in range(13)])
    h = RatFunc.from_poly(p)
    rational = RatFunc(p, Poly([z, 2, 1]))
    inner = RatFunc.from_poly(Poly([z ** 3 - Fraction(1, 2), Fraction(2, 3)]))
    expected = (ref.compose(h, inner), ref.compose(rational, inner), ref.taylor_shift(p, z))
    counts = {"mul": 0, "make": 0, "canonical": 0}

    def counted(key, f):
        def wrapper(*args):
            counts[key] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(Poly, "__mul__", counted("mul", Poly.__mul__))
    monkeypatch.setattr(ratfunc, "_make", counted("make", ratfunc._make))
    monkeypatch.setattr(cyclotomic, "_canonicalize", counted("canonical", cyclotomic._canonicalize))
    assert compose(rational, RatFunc.x()) == rational
    assert counts == {"mul": 0, "make": 0, "canonical": 0}
    assert (compose(h, inner), compose(rational, inner)) == expected[:2]
    assert counts["mul"] == 0

    counts.update(make=0, canonical=0)
    assert p.taylor_shift(z) == expected[2]
    assert counts["make"] <= p.deg + 1
    assert counts["canonical"] <= p.deg + 1


def test_kept_shifts_leave_equality_hash_repr_and_pickle_alone():
    z = CycNum.zeta(5)
    p = Poly([z, Fraction(1, 3), 2, z**2])
    bare = Poly(p.coeffs)
    shifted = [p.taylor_shift(v) for v in (1, z, Fraction(-1, 2))]
    assert [p.taylor_shift(v) for v in (1, z, Fraction(-1, 2))] == shifted
    assert all(a is b for a, b in zip(shifted, [p.taylor_shift(v) for v in (1, z, Fraction(-1, 2))]))
    assert len(p._shifts) == 3 and not hasattr(bare, "_shifts")
    assert p == bare and hash(p) == hash(bare) and repr(p) == repr(bare)
    assert pickle.dumps(p) == pickle.dumps(bare)
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert type(twin) is Poly and twin == p and hash(twin) == hash(p)
        assert not hasattr(twin, "_shifts")
        assert twin.taylor_shift(z) == shifted[1]


def test_a_polynomial_keeps_at_most_the_bound_of_shifts():
    p = Poly([3, Fraction(1, 2), -1, 1])
    for v in range(1, 1001):
        got = p.taylor_shift(v)
        assert len(p._shifts) <= ratfunc.SHIFTS_KEPT
        if v % 97 == 0:
            assert got == ref.taylor_shift(p, v)
    kept = [CycNum.from_rational(v) for v in range(1001 - ratfunc.SHIFTS_KEPT, 1001)]
    assert list(p._shifts) == kept  # the newest points, the oldest dropped first
    assert p.taylor_shift(0) is p and Poly([7]).taylor_shift(5) == Poly([7])


def test_one_avoidance_query_shifts_the_numerator_once_per_point(monkeypatch):
    # h = ((x - 1)/2)^5 + 1 is x^5 + 1 at S = 2x + 1: special-map detection,
    # the depressed candidate x + 1, the grid expansion at b = 1 and the
    # witness check all ask h.num for h(x + 1); it is built once per query
    from cyclohouse import LoxtonProfile, avoidance_verdict, parse_ratfunc

    calls = []
    shift = ratfunc._shift

    def counted(p, b):
        calls.append((p, b))
        return shift(p, b)

    monkeypatch.setattr(ratfunc, "_shift", counted)
    for _ in range(2):
        calls.clear()
        h = parse_ratfunc("((x - 1)/2)^5 + 1")
        verdict = avoidance_verdict(h, 1, LoxtonProfile.default(3))
        assert verdict.kind == "witness_found"
        assert verdict.witness.S == RatFunc.from_poly(Poly([1, 2]))
        on_h = [b for p, b in calls if p is h.num]
        assert on_h == [CycNum.one]

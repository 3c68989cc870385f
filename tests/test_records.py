"""The record classes keep the contract of the frozen dataclasses they were:
keyword and positional construction, defaults, immutability, ==, hash,
repr, the checks made at construction, pickling and weak references.
The values CycNum, Poly, LaurentPoly and RatFunc are records as well."""

import ast
import copy
import dataclasses
import inspect
import pickle
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from cyclohouse import (
    AvoidanceVerdict,
    BinomialShape,
    CycNum,
    DomainError,
    FZReport,
    HouseResult,
    LaurentPoly,
    LoxtonProfile,
    MonicNormalization,
    Mobius,
    OrbitLemmaReport,
    OrbitRecord,
    Poly,
    RatFunc,
    RootOfUnity,
    ScanResult,
    SearchGrid,
    SpecialCertificate,
    SpecialTermsReport,
    SpecialVerdict,
    Witness,
    house,
)
from cyclohouse.avoidance import ScanHit
from cyclohouse.record import Record
from cyclohouse.witness import _GridValue

SRC = Path(__file__).resolve().parents[1] / "src"

ONE, ZERO, Z3 = CycNum.one, CycNum.zero, CycNum.zeta(3)
HR = HouseResult(Fraction(1), Fraction(3, 2), 64)
ID = Mobius(ONE, ZERO, ZERO, ONE)

# class -> positional arguments of one instance
RECORDS = {
    HouseResult: (Fraction(1), Fraction(3, 2), 64),
    RootOfUnity: (5, 2),
    LoxtonProfile: (Fraction(2), (ONE,), ((Fraction(0), 1), (Fraction(3), 2))),
    Mobius: (Z3, ONE, ZERO, ONE),
    BinomialShape: (ID, ONE, Z3, 2),
    SpecialCertificate: (ID, "power", 3),
    SpecialVerdict: ("special", SpecialCertificate(ID, "power", 3)),
    MonicNormalization: (Z3, RatFunc.x(), 2, Fraction(5, 2)),
    OrbitRecord: ((ONE, Z3), (HR, HR), (True, True), (0,), (1,), None, 1),
    OrbitLemmaReport: (
        2, Fraction(2), False, True, Fraction(3), (), None, (True,), (), 1, "formula"
    ),
    ScanHit: (RootOfUnity(3, 1), Z3, HR),
    ScanResult: ((), (), (RootOfUnity(2, 1),)),
    AvoidanceVerdict: ("unknown", "why", None, {"pole_count": 1}),
    Witness: (((RootOfUnity(1, 0), ONE, 2),), RatFunc.x()),
    SearchGrid: (5, 3),
    _GridValue: ((3, 1), None),
    FZReport: (3, 9, 10080, 2, False, None, True, True, False, None, ("v",)),
    SpecialTermsReport: (3, 3, 9, 0.25, True),
}
IDS = [cls.__qualname__ for cls in RECORDS]

# The value types, whose constructors do not take their fields as they are
# stored (CycNum takes coordinates, LaurentPoly terms, Poly any iterable).
VALUES = {
    CycNum: CycNum(12, [Fraction(1, 3), 2, 0, -5]),
    Poly: Poly([Z3, 0, Fraction(-7, 2)]),
    LaurentPoly: LaurentPoly([(-2, Z3), (0, 1), (3, Fraction(1, 5))]),
    RatFunc: RatFunc(Poly([1, 0, Z3]), Poly([Fraction(2, 3), 5])),
}
VALUE_IDS = [cls.__qualname__ for cls in VALUES]


def _params(cls) -> list[str]:
    return list(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    args = RECORDS[cls]
    a = cls(*args)
    b = cls(**dict(zip(_params(cls), args)))
    assert a == b and not a != b
    assert a is not b
    if cls is AvoidanceVerdict:  # a dict field: unhashable, as it was
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != object() and (a == object()) is False


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_are_read_only(cls):
    obj = cls(*RECORDS[cls])
    for name in _params(cls):
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_format(cls):
    obj = cls(*RECORDS[cls])
    names = _params(cls)
    like = dataclasses.make_dataclass(cls.__name__, names)
    like.__qualname__ = cls.__qualname__
    assert repr(obj) == repr(like(*(getattr(obj, n) for n in names)))


@pytest.mark.parametrize("cls", [HouseResult, RootOfUnity, SearchGrid, FZReport,
                                 SpecialTermsReport, _GridValue], ids=lambda c: c.__qualname__)
def test_records_of_plain_values_pickle(cls):
    obj = cls(*RECORDS[cls])
    assert pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize(
    "obj",
    [cls(*args) for cls, args in RECORDS.items()] + list(VALUES.values()),
    ids=IDS + VALUE_IDS,
)
def test_records_and_values_pickle_and_deep_copy(obj):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(twin) is type(obj) and twin == obj and twin is not obj
        if not isinstance(obj, AvoidanceVerdict):  # holds a dict
            assert hash(twin) == hash(obj)


@pytest.mark.parametrize("cls", VALUES, ids=VALUE_IDS)
def test_values_are_records_that_refuse_every_change(cls):
    obj = VALUES[cls]
    assert isinstance(obj, Record) and not hasattr(obj, "__dict__")
    for name in obj._fields:
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value


def test_values_hash_as_their_field_tuples():
    a, p, lp, r = VALUES.values()
    assert hash(a) == hash((a.n, a.num, a.den))
    assert hash(p) == hash(p.coeffs)
    assert hash(lp) == hash((lp.low, lp.poly))
    assert hash(r) == hash((r.num, r.den))
    assert a != p and p != r and lp != p


def test_a_copied_cycnum_leaves_its_house_memo_behind():
    a = CycNum.zeta(7) + 2
    enclosure = house(a)
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert not hasattr(twin, "_house")
        assert house(twin) == enclosure


def test_defaults():
    assert AvoidanceVerdict("unknown") == AvoidanceVerdict("unknown", None, None, {})
    first, second = AvoidanceVerdict("x"), AvoidanceVerdict("x")
    assert first.diagnostics == {} and first.diagnostics is not second.diagnostics
    assert SearchGrid() == SearchGrid(12, 8)
    assert SpecialVerdict("not_special").certificate is None
    assert FZReport(*RECORDS[FZReport][:-1]).violations == ()
    report = OrbitLemmaReport(*RECORDS[OrbitLemmaReport][:-1])
    assert report.substitute_bound_formula == "max(house(c^-1)*max(R, house(c)*A), A)"


def test_construction_checks_still_raise():
    with pytest.raises(DomainError, match="degenerate"):
        Mobius(ONE, Z3, ONE, Z3)
    assert Mobius(1, 0, 0, 1) == ID  # coefficients are coerced to CycNum
    with pytest.raises(DomainError, match="B must be positive"):
        LoxtonProfile(Fraction(0), (ONE,), ())
    with pytest.raises(DomainError, match="E must be nonempty"):
        LoxtonProfile(Fraction(1), (), ())
    with pytest.raises(DomainError, match="nonnegative"):
        LoxtonProfile(Fraction(1), (ONE,), ((Fraction(0), -1),))
    with pytest.raises(DomainError, match="monotone"):
        LoxtonProfile(Fraction(1), (ONE,), ((Fraction(0), 2), (Fraction(1), 1)))
    with pytest.raises(DomainError, match="at least one term"):
        Witness((), RatFunc.x())
    with pytest.raises(DomainError, match="inner map"):
        Witness(RECORDS[Witness][0], RatFunc.from_poly(Poly([Z3])))
    with pytest.raises(DomainError, match="nonconstant in x"):
        Witness(((RootOfUnity(1, 0), ONE, 0),), RatFunc.x())


def test_grid_value_is_computed_and_left_out_of_equality():
    root, rational = _GridValue(rou=(3, 1)), _GridValue(rational=Fraction(-2, 3))
    assert root.value == Z3 and rational.value == CycNum.from_rational(Fraction(-2, 3))
    assert "value" not in repr(root)
    assert _GridValue(rou=(2, 1)) != _GridValue(rational=Fraction(-1))


def test_scan_result_can_be_weakly_referenced():
    result = ScanResult(*RECORDS[ScanResult])
    assert weakref.ref(result)() is result


def test_hot_records_have_no_instance_dict():
    for cls in (HouseResult, RootOfUnity, ScanHit):
        assert not hasattr(cls(*RECORDS[cls]), "__dict__")


def test_only_record_py_sets_attributes_by_hand():
    # one immutability mechanism: Record's __setattr__ and the slot setters
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            defines = isinstance(node, ast.FunctionDef) and node.name == "__setattr__"
            calls = (
                isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"
            )
            if calls or (defines and path.name != "record.py"):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders


def test_no_module_under_src_imports_dataclasses():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            if "dataclasses" in names:
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders

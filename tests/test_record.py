"""The package's frozen records against frozen dataclasses with the same fields.

Each record class gets a twin from `dataclasses.make_dataclass(...,
frozen=True)` with the same fields and defaults.  The twin subclasses the
record, so it inherits `__post_init__` and the cached properties, while
`__init__`, `__repr__`, `__eq__`, `__hash__`, `__setattr__` and
`__delattr__` come from dataclasses; a method the record defines itself
(FieldElement's `__eq__` and `__hash__`) is handed to the twin too, as
dataclasses keeps it.
"""

import dataclasses
from fractions import Fraction

import pytest

from k3cycles._record import record
from k3cycles.clifford import CliffordElement
from k3cycles.gauss import GaussSumValue, MilgramResult
from k3cycles.kuga_satake import KSReport, PeriodPlane
from k3cycles.lattice import DiscriminantGroup, EmbeddingReport, Lattice, e8_lattice, root_a1
from k3cycles.numberfield import FieldElement, TotallyRealField
from k3cycles.theta import FourierTable, QExpansion, ThetaValue
from k3cycles.transfer import NumberFieldLattice, QuaternionAlgebra

F = TotallyRealField.quadratic(2)
E8 = e8_lattice()
HALF = Fraction(1, 2)

# record class -> argument tuples of distinct valid records
SAMPLES = {
    Lattice: [(((2, 1), (1, 2)),), (((2, 1), (1, 2)), "A2"), (((2,),), "A1")],
    DiscriminantGroup: [((2,), ((HALF,),), 2, 1), ((), (), 1, 0)],
    EmbeddingReport: [(True, None), (False, False), (None, True)],
    GaussSumValue: [(1 + 0j, 1, 4, 8, 1.0), (-1j, 3, 5, 2, 0.2)],
    MilgramResult: [(1j, 1j, 2, 0.0, True), (1 + 0j, -1 + 0j, 4, 2.0, False)],
    PeriodPlane: [(root_a1(), (HALF,), (Fraction(0),)), (E8, (1,) * 8, (0,) * 8)],
    KSReport: [(Fraction(-1), Fraction(2), True, True, False, (1, 1, 0), 4, 2),
               (Fraction(-3), Fraction(-1, 2), True, True, True, (0, 2, 0), 2, 1)],
    FieldElement: [(F, (1, 2), 1), (F, (0, 1), 3), (F, (0, 0), 1)],
    TotallyRealField: [((-2, 0, 1),), ((-5, 0, 1), ((1, 0), (HALF, HALF))), ((-1, -3, 0, 1),)],
    CliffordElement: [(E8, ((0, 1), (3, 2)), 5), (E8, (), 1), (root_a1(), ((1, 1),), 1)],
    QExpansion: [(Fraction(4), Fraction(2), ((Fraction(0), Fraction(1)),)),
                 (HALF, Fraction(0), ())],
    ThetaValue: [(1 + 0j, 0.1, Fraction(4)), (0.5 + 2j, 0.0, HALF)],
    FourierTable: [(1, 2, ((((2,),), 1, 240),)), (2, 0, ())],
    NumberFieldLattice: [(F, ((F.one(),),)), (F, (((1, 0), (0, 1)), ((0, 1), (3, 0))))],
    QuaternionAlgebra: [(F, F.one() * -1, F.gen()), (F, (1, 0), (0, 1))],
}
RECORDS = list(SAMPLES)


def fields(cls):
    return list(cls.__annotations__)


def own_methods(cls):
    """__eq__ and __hash__ where the class body defines them, not the decorator."""
    return {name: m for name in ("__eq__", "__hash__")
            if getattr(m := cls.__dict__.get(name), "__module__", None) == cls.__module__}


def twin(cls):
    """A frozen dataclass with cls's fields and defaults, subclassing cls."""
    specs = [(f, object, dataclasses.field(default=cls.__dict__[f])) if f in cls.__dict__
             else (f, object) for f in fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, specs, bases=(cls,),
                                      namespace=own_methods(cls), frozen=True)


def test_fifteen_records():
    assert len(RECORDS) == 15
    assert [c.__name__ for c in RECORDS if own_methods(c)] == ["FieldElement"]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_eq_hash_match_dataclass(cls):
    oracle = twin(cls)
    recs = [cls(*args) for args in SAMPLES[cls]]
    twins = [oracle(*args) for args in SAMPLES[cls]]
    for x, y in zip(recs, twins):
        assert repr(x) == repr(y)
        assert hash(x) == hash(y)
        assert [getattr(x, f) for f in fields(cls)] == [getattr(y, f) for f in fields(cls)]
    assert [[x == y for y in recs] for x in recs] == [[x == y for y in twins] for x in twins]
    assert [[x != y for y in recs] for x in recs] == [[x != y for y in twins] for x in twins]
    # == defers to the other operand for an object of another class
    assert cls.__eq__(recs[0], object()) is NotImplemented and recs[0] != object()
    if "__eq__" not in own_methods(cls):
        assert cls.__eq__(recs[0], twins[0]) is NotImplemented and recs[0] != twins[0]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_keyword_construction_and_defaults(cls):
    oracle = twin(cls)
    names = fields(cls)
    for args in SAMPLES[cls]:
        kwargs = dict(zip(names, args))
        split = dict(zip(names[1:], args[1:]))
        for build in (lambda c: c(**kwargs), lambda c: c(args[0], **split)):
            x, y = build(cls), build(oracle)
            assert x == cls(*args) and repr(x) == repr(y)
    defaulted = [args for args in SAMPLES[cls] if len(args) < len(names)]
    assert bool(defaulted) == any(f in cls.__dict__ for f in names)
    for args in defaulted:
        assert repr(cls(*args)) == repr(oracle(*args))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    oracle = twin(cls)
    args = SAMPLES[cls][0]
    first = fields(cls)[0]
    bad = [
        lambda c: c(),  # missing
        lambda c: c(*args, no_such_field=1),  # unknown
        lambda c: c(*args, **{first: args[0]}),  # given twice
        lambda c: c(*args, *[None] * len(fields(cls))),  # too many
    ]
    for build in bad:
        for c in (cls, oracle):
            with pytest.raises(TypeError):
                build(c)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_frozen(cls):
    oracle = twin(cls)
    for c in (cls, oracle):
        x = c(*SAMPLES[cls][0])
        for f in fields(cls):
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
        with pytest.raises(AttributeError):
            x.no_such_field = 1


def test_cached_property_still_caches():
    x = CliffordElement(E8, ((0, 1), (3, 2)), 5)
    assert x.coeffs is x.coeffs and "coeffs" in vars(x)
    lat = Lattice(((2, 1), (1, 2)))
    assert lat.det == 3 and lat == Lattice(((2, 1), (1, 2)))


def test_local_records():
    # what the package's records cannot show: a default other than None or (),
    # a __qualname__ that differs from __name__, and a single field
    @record
    class Point:
        x: int
        y: int = 7

    assert Point(1) == Point(x=1, y=7) and Point(1).y == 7
    assert repr(Point(1)) == "test_local_records.<locals>.Point(x=1, y=7)"
    assert hash(Point(1, 2)) == hash((1, 2))

    @record
    class One:
        x: int

    assert repr(One(3)) == "test_local_records.<locals>.One(x=3)"
    assert hash(One(3)) == hash((3,)) and One(3) == One(x=3) != One(4)

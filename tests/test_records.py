"""The frozen value records: immutability, equality, hashing and repr,
checked for each record class against a dataclass twin; and a static
guard that a class with its own equality is a record unless listed."""

import ast
import dataclasses
from fractions import Fraction

import pytest

from haarlab import (
    BkCertificate,
    FiniteMeasure,
    FiniteTopGroup,
    Interval,
    IntervalUnion,
    PointFunction,
    canonical_haar,
    coset_topology,
    counterexample_bk,
    cyclic,
    is_haar,
    quotient,
)
from haarlab.errors import InputError
from haarlab.groups import QuotientData
from haarlab.measure import HaarReport
from haarlab.records import Record

from conftest import SRC


def z4():
    g = cyclic(4)
    return FiniteTopGroup(g, coset_topology(g, 0b0101))


def samples():
    """Two unequal instances of each of the eight record classes."""
    tg = z4()
    canon = canonical_haar(tg)
    cert = counterexample_bk(1, 10)
    cert.translates  # a cached listing must not take part in eq or repr
    return {
        FiniteTopGroup: (tg, FiniteTopGroup(cyclic(4), coset_topology(cyclic(4), 0b0001))),
        PointFunction: (PointFunction((1, 2)), PointFunction((1, 3))),
        QuotientData: (quotient(tg), quotient(FiniteTopGroup(cyclic(3), coset_topology(cyclic(3), 0b111)))),
        FiniteMeasure: (canon, canon.scaled(2)),
        HaarReport: (is_haar(tg, canon), is_haar(tg, FiniteMeasure(tg, (1, 2)))),
        Interval: (Interval(0, 1, False, True), Interval(0, 1)),
        IntervalUnion: (IntervalUnion([Interval(0, 1)]), IntervalUnion([])),
        BkCertificate: (cert, counterexample_bk(0, 10)),
    }


def twin(record):
    """A frozen dataclass with the record's name, fields and values."""
    cls = type(record)
    dc = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    return dc(*record._values())


def test_eight_record_classes():
    assert len(samples()) == 8
    assert all(issubclass(cls, Record) for cls in samples())


@pytest.mark.parametrize("cls", list(samples()), ids=lambda c: c.__name__)
def test_record_semantics(cls):
    a, b = samples()[cls]
    assert type(a) is cls and type(b) is cls
    # frozen: no field can be assigned or deleted, nor a new attribute added
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    # equality and hash by field values, like the dataclass twin
    copy = cls(*a._values())
    assert copy is not a and copy == a and hash(copy) == hash(a)
    assert a != b and not a == b
    assert repr(a) == repr(twin(a)) and repr(b) == repr(twin(b))
    assert hash(a) == hash(twin(a))
    assert repr(a).startswith(f"{cls.__name__}({cls._fields[0]}=")


def test_different_classes_never_equal():
    records = [r for pair in samples().values() for r in pair]
    for x in records:
        for y in records:
            if type(x) is not type(y):
                assert x != y and not x == y
    # the same field values in another class still differ
    assert PointFunction(()) != IntervalUnion([])
    assert PointFunction(())._values() == IntervalUnion([])._values() == ((),)


def test_constructors_validate():
    """Each record's own __init__ checks and converts its fields."""
    tg = z4()
    assert PointFunction(("1/2",)).values == (Fraction(1, 2),)
    with pytest.raises(InputError, match=r"^1 masses for 2 atoms$"):
        FiniteMeasure(tg, (1,))
    with pytest.raises(ValueError):
        FiniteMeasure(tg, (1, -1))
    with pytest.raises(ValueError, match="empty interval"):
        Interval(2, 1)
    with pytest.raises(ValueError, match="degenerate"):
        Interval(0, 0, False)
    assert Interval(0, "3/2").hi == Fraction(3, 2)
    # a certificate built from another's fields lists its own tiles, not
    # the other's cached ones
    cert = counterexample_bk(1, 3)
    assert len(cert.translates) == 4
    fields = dict(zip(cert._fields, cert._values()), count=2)
    assert len(BkCertificate(**fields).translates) == 2


#: The classes in src/haarlab that define __eq__ without being records,
#: and why each stays a plain class.
PLAIN_EQ_CLASSES = {
    "FiniteGroup": "its equality ignores name",
    "FiniteSpace": "its constructor takes an open family, so a copy cannot "
    "be rebuilt from its fields",
}


def plain_eq_classes(source: str) -> list:
    """The names of the classes in source, other than Record, that define
    __eq__ and do not name Record among their bases."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or node.name == "Record":
            continue
        bases = {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases}
        defines_eq = any(
            isinstance(f, ast.FunctionDef) and f.name == "__eq__" for f in node.body
        )
        if defines_eq and "Record" not in bases:
            found.append(node.name)
    return found


def test_guard_finds_plain_eq_classes():
    source = (
        "class Record:\n    def __eq__(self, o): pass\n"
        "class A(Record):\n    pass\n"
        "class B:\n    def __eq__(self, o): pass\n"
        "class C(records.Record):\n    def __eq__(self, o): pass\n"
        "class D:\n    def __hash__(self): pass\n"
        "def f():\n    class E(object):\n        def __eq__(self, o): pass\n"
    )
    assert plain_eq_classes(source) == ["B", "E"]


def test_value_classes_are_records():
    found = [
        name
        for path in sorted((SRC / "haarlab").glob("*.py"))
        for name in plain_eq_classes(path.read_text(encoding="utf-8"))
    ]
    assert sorted(found) == sorted(PLAIN_EQ_CLASSES), (
        "make a value class a records.Record, or list it with its reason"
    )

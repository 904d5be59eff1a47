"""The frozen value records: immutability, equality, hashing and repr,
checked for each record class against a dataclass twin; and a static
guard that no class but Record writes its own equality, hash or repr."""

import ast
import dataclasses
from fractions import Fraction

import pytest

from haarlab import (
    BkCertificate,
    FiniteGroup,
    FiniteMeasure,
    FiniteSpace,
    FiniteTopGroup,
    Interval,
    IntervalUnion,
    PointFunction,
    canonical_haar,
    counterexample_bk,
    cyclic,
    is_haar,
)
from haarlab.errors import InputError
from haarlab.measure import HaarReport
from haarlab.records import Record

from conftest import SRC, z4_coset_instance


def samples():
    """Two unequal instances of each of the nine record classes."""
    tg = z4_coset_instance()
    canon = canonical_haar(tg)
    cert = counterexample_bk(1, 10)
    cert.translates  # a cached listing must not take part in eq or repr
    return {
        FiniteGroup: (tg.group, cyclic(3)),
        FiniteSpace: (tg.space, FiniteSpace(2, (0b11, 0b10))),
        FiniteTopGroup: (tg, FiniteTopGroup(cyclic(4), 0b0001)),
        PointFunction: (PointFunction((1, 2)), PointFunction((1, 3))),
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


def test_nine_record_classes():
    assert len(samples()) == 9
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
    tg = z4_coset_instance()
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


def test_parts_of_a_top_group_are_frozen():
    """The group and N a checked FiniteTopGroup holds, and the space it
    derives from them, cannot be changed under it, nor can the group's
    derived order."""
    tg = z4_coset_instance()
    with pytest.raises(AttributeError):
        tg.normal_subgroup = 0b1111
    with pytest.raises(AttributeError):
        tg.space.min_open = (0b1111,) * 4
    with pytest.raises(AttributeError):
        tg.group.table = cyclic(4).table[::-1]
    with pytest.raises(AttributeError):
        tg.group.order = 2
    assert tg.atoms == (0b0101, 0b1010) and tg.group.order == 4


def test_group_equality_includes_name():
    """A group is a record of its table and its name: the same table
    under another name is another value."""
    table = cyclic(3).table
    assert FiniteGroup(table, name="Z3") == cyclic(3)
    assert FiniteGroup(table) != cyclic(3)
    assert FiniteGroup(table).name == "group"


#: Methods that give a class value semantics; only Record writes them.
VALUE_DUNDERS = {"__eq__", "__hash__", "__repr__"}


def classes_with_value_dunders(source: str) -> list:
    """The names of the classes in source, other than Record, that define
    __eq__, __hash__ or __repr__ themselves."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or node.name == "Record":
            continue
        if any(
            isinstance(f, ast.FunctionDef) and f.name in VALUE_DUNDERS
            for f in node.body
        ):
            found.append(node.name)
    return found


def test_guard_finds_plain_eq_classes():
    source = (
        "class Record:\n    def __eq__(self, o): pass\n"
        "    def __hash__(self): pass\n    def __repr__(self): pass\n"
        "class A(Record):\n    pass\n"
        "class B:\n    def __eq__(self, o): pass\n"
        "class C(records.Record):\n    def __eq__(self, o): pass\n"
        "class D:\n    def __hash__(self): pass\n"
        "class F(Record):\n    def __repr__(self): pass\n"
        "class G:\n    def __str__(self): pass\n"
        "def f():\n    class E(object):\n        def __eq__(self, o): pass\n"
    )
    assert classes_with_value_dunders(source) == ["B", "C", "D", "F", "E"]


def test_value_classes_are_records():
    found = [
        name
        for path in sorted((SRC / "haarlab").glob("*.py"))
        for name in classes_with_value_dunders(path.read_text(encoding="utf-8"))
    ]
    assert found == [], "make a value class a records.Record"


def trusted_call_sites(source: str) -> list:
    """(enclosing definition, record class) of each `X._trusted(...)` call
    in source, the definition named as Class.method or function."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            name = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = f"{where}.{child.name}" if where else child.name
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "_trusted"
            ):
                sites.append((where, ast.unparse(child.func.value)))
            visit(child, name)

    visit(ast.parse(source), "")
    return sites


def test_trusted_records_only_at_theorem_sites():
    """A record skips its constructor's checks only where a theorem in the
    caller proves them: G/N's table and its N = {0} by (aN)(bN) = abN, each
    N that normal_subgroups joins from conjugacy classes, and the U_e that
    from_space's continuity checks prove normal."""
    found = [
        (path.stem, *site)
        for path in sorted((SRC / "haarlab").glob("*.py"))
        for site in trusted_call_sites(path.read_text(encoding="utf-8"))
    ]
    assert found == [
        ("groups", "FiniteTopGroup.from_space", "cls"),
        ("groups", "FiniteTopGroup._quotient", "FiniteGroup"),
        ("groups", "FiniteTopGroup._quotient", "FiniteTopGroup"),
        ("groups", "group_topologies", "FiniteTopGroup"),
    ]
    assert trusted_call_sites("def f():\n    return A._trusted(1)\n") == [("f", "A")]

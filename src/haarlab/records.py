"""Frozen value records without the `dataclasses` import.

The nine value classes are records: `FiniteGroup` and `FiniteTopGroup`
(groups), `FiniteSpace` and `PointFunction` (topology), `FiniteMeasure`
and `HaarReport` (measure), and `Interval`, `IntervalUnion` and
`BkCertificate` (plane).

`dataclasses` imports `inspect`, `ast` and `tokenize` and builds each
class's methods with `exec`; every CLI process would pay for that at start.
"""


class Record:
    """Base of haarlab's immutable value classes.

    A subclass names its fields in ``_fields`` and writes a plain
    ``__init__`` that validates its arguments and stores them with
    ``_assign``, since ``__setattr__`` refuses every assignment.  Equality
    and hashing use the field values, and only instances of the same class
    compare equal; ``repr`` has the form ``Name(field=value, ...)``.  A
    record with other values is built by the constructor, so that every
    check runs.
    """

    _fields: tuple = ()

    def _assign(self, *values):
        """Store values in the fields, in ``_fields`` order.  Stores go
        through ``object.__setattr__``, as a dataclass's do, which keeps
        the attribute values inline instead of building a ``__dict__``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

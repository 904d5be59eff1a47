"""Every precondition the library checks raises InputError, never a bare
ValueError: the CLI reports an InputError as malformed input and lets any
other ValueError through as a bug.  The checks are static: no module in
src/haarlab may hold `raise ValueError` or `raise ValueError(...)`; every
raise there is a bare re-raise or names one of RAISABLE; errors.py
defines exactly the four classes of ERROR_CLASSES; and no other module
defines an exception class."""

import ast
import builtins

from conftest import SRC

#: The classes a raise in src/haarlab may name: the three error kinds the
#: CLI tells apart and the AttributeError of the records' frozen-field
#: protocol.
RAISABLE = {"InputError", "TooLarge", "InternalInconsistency", "AttributeError"}

ERROR_CLASSES = ["HaarlabError", "InputError", "TooLarge", "InternalInconsistency"]


def bare_value_errors(source: str) -> list:
    """Line numbers of the `raise ValueError` statements in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append(node.lineno)
    return sorted(found)


def test_guard_finds_bare_value_errors():
    source = "def f(x):\n    if x:\n        raise ValueError('x')\n    raise ValueError\n"
    assert bare_value_errors(source) == [3, 4]
    assert bare_value_errors("raise InputError('x')\nraise TooLarge\n") == []


def test_library_raises_no_bare_value_error():
    found = [
        f"{path.name}:{line}"
        for path in sorted((SRC / "haarlab").glob("*.py"))
        for line in bare_value_errors(path.read_text(encoding="utf-8"))
    ]
    assert not found, "raise InputError for a broken precondition:\n" + "\n".join(found)


def unlisted_raises(source: str) -> list:
    """Line numbers of the raise statements in source that neither re-raise
    bare nor name a class of RAISABLE."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in RAISABLE):
                found.append(node.lineno)
    return sorted(found)


def defined_classes(source: str) -> list:
    """The names of the classes defined at the top level of source."""
    return [n.name for n in ast.parse(source).body if isinstance(n, ast.ClassDef)]


def test_guard_finds_unlisted_raises():
    source = (
        "try:\n    f()\nexcept KeyError:\n    raise\n"
        "raise InputError('x') from None\nraise TooLarge\n"
        "raise ValueError('x')\nraise exc\nraise errors.InputError('x')\n"
        "raise KeyError(1)\nraise AttributeError('frozen')\n"
    )
    assert unlisted_raises(source) == [7, 8, 9, 10]
    nested = "class A(Exception):\n    class B: pass\nclass C(A): pass\n"
    assert defined_classes(nested) == ["A", "C"]


def test_library_raises_only_listed_classes():
    found = [
        f"{path.name}:{line}"
        for path in sorted((SRC / "haarlab").glob("*.py"))
        for line in unlisted_raises(path.read_text(encoding="utf-8"))
    ]
    assert not found, f"raise one of {sorted(RAISABLE)}:\n" + "\n".join(found)


def test_errors_defines_four_classes():
    source = (SRC / "haarlab" / "errors.py").read_text(encoding="utf-8")
    assert defined_classes(source) == ERROR_CLASSES


#: The exception classes a class of src/haarlab may derive from by name.
EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
} | set(ERROR_CLASSES)


def exception_classes(source: str) -> list:
    """The names of the classes in source, nested ones included, that derive
    from an exception: one of EXCEPTIONS, by plain or dotted name, or a
    class that source defines earlier and that derives from one."""
    known = set(EXCEPTIONS)
    found = []
    classes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)]
    for node in sorted(classes, key=lambda n: n.lineno):
        bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None) for b in node.bases}
        if bases & known:
            known.add(node.name)
            found.append(node.name)
    return found


def test_guard_finds_exception_classes():
    source = (
        "class A(ValueError): pass\nclass B(Record, A): pass\n"
        "class C(errors.InputError): pass\nclass D(Record): pass\n"
        "def f():\n    class E(KeyError): pass\n"
    )
    assert exception_classes(source) == ["A", "B", "C", "E"]


def test_only_errors_defines_exception_classes():
    found = [
        f"{path.name}: {name}"
        for path in sorted((SRC / "haarlab").glob("*.py"))
        if path.name != "errors.py"
        for name in exception_classes(path.read_text(encoding="utf-8"))
    ]
    assert not found, "define exception classes in errors.py only:\n" + "\n".join(found)

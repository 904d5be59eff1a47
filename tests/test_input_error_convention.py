"""Every precondition the library checks raises InputError, never a bare
ValueError: the CLI reports an InputError as malformed input and lets any
other ValueError through as a bug.  The check is static: no module in
src/haarlab may hold `raise ValueError` or `raise ValueError(...)`."""

import ast

from conftest import SRC


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

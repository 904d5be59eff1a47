"""Every function, class and method in src/haarlab is reached from what the
project runs: a command, an acceptance criterion or a bench trace target.

The check is static and name-based.  Reached code reaches every definition
whose name it uses, as a name or as an attribute, in any module: a call
`space.is_open(u)` reaches each method called `is_open`, so a method that
shares its name with a reached one is never reported.  Annotations do not
count as uses, and `haarlab/__init__.py`, which only re-exports, is left
out.  The roots are:

- the module-level code of every library module, which runs when the CLI
  imports it, and `cli.run` and `cli.main`;
- every name that tests/test_acceptance.py uses;
- every target of `TARGETS` in bench/tracing.py, read as text.

A reached function or method reaches the names in its body and decorators.
A reached class reaches its bases, decorators and body statements, and its
dunder methods, but not its other methods: those are reached by name.
"""

import ast
from collections import defaultdict
from pathlib import Path

from conftest import SRC
from test_trace_targets import trace_targets

ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def uses(node) -> set:
    """The names and attribute names in node, annotations aside."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        for field, value in ast.iter_fields(n):
            if field in ("annotation", "returns"):
                continue
            stack.extend(v for v in (value if isinstance(value, list) else [value])
                         if isinstance(v, ast.AST))
    return found


def is_dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreached(library: Path, acceptance: Path, targets) -> list:
    """Qualified names (module.name, module.Class.method) of the library
    definitions that no root reaches."""
    defs = {}  # qualified name -> node
    by_name = defaultdict(list)  # name -> qualified names that use reaches
    roots = []
    for path in sorted(library.glob("*.py")):
        if path.name == "__init__.py":
            continue
        mod = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots.append(node)
                continue
            defs[f"{mod}.{node.name}"] = node
            by_name[node.name].append(f"{mod}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        q = f"{mod}.{node.name}.{item.name}"
                        defs[q] = item
                        if not is_dunder(item.name):
                            by_name[item.name].append(q)

    reached, work = set(), []

    def reach(q):
        if q not in reached:
            reached.add(q)
            work.append(q)

    def reach_uses(node):
        for name in uses(node):
            for q in by_name[name]:
                reach(q)

    for node in roots:
        reach_uses(node)
    reach_uses(ast.parse(acceptance.read_text(encoding="utf-8")))
    for q in ("cli.run", "cli.main"):
        reach(q)
    for mod, cls, attr in targets:
        q = ".".join(p for p in (mod, cls, attr) if p)
        if q in defs:  # tests/test_trace_targets.py checks that each resolves
            reach(q)
    while work:
        q = work.pop()
        node = defs[q]
        if isinstance(node, ast.FunctionDef):
            reach_uses(node)
            continue
        for part in (*node.bases, *node.keywords, *node.decorator_list):
            reach_uses(part)
        for item in node.body:
            if not isinstance(item, ast.FunctionDef):
                reach_uses(item)
            elif is_dunder(item.name):
                reach(f"{q}.{item.name}")
    return sorted(set(defs) - reached)


def test_every_library_definition_is_reached():
    missing = unreached(SRC / "haarlab", ACCEPTANCE, trace_targets())
    assert not missing, "reached by no command, criterion or trace target:\n" + "\n".join(missing)

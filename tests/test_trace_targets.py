import ast
import importlib

from conftest import SRC

TRACING = SRC.parent / "bench" / "tracing.py"


def trace_targets():
    """(module, class or None, attribute) of each entry of `TARGETS` in
    bench/tracing.py, read from its source without importing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [tuple(ast.literal_eval(e) for e in entry.elts[:3]) for entry in node.value.elts]
    raise AssertionError("no TARGETS list in bench/tracing.py")


def test_every_trace_target_resolves():
    """The traced bench run patches each target in place, so a function or
    method it names must exist where it looks: in the module's namespace,
    or in the class's own namespace for a method."""
    targets = trace_targets()
    assert len(targets) == 28
    for mod_name, cls_name, attr in targets:
        owner = importlib.import_module(f"haarlab.{mod_name}")
        if cls_name is not None:
            assert cls_name in vars(owner), (mod_name, cls_name)
            owner = vars(owner)[cls_name]
        assert attr in vars(owner), (mod_name, cls_name, attr)

import ast
import importlib
import sys

import pytest

from conftest import SRC

BENCH = SRC.parent / "bench"
TRACING = BENCH / "tracing.py"


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


@pytest.fixture
def bench(monkeypatch):
    """bench/run.py, tracing.py and workloads.py, imported from bench/
    without writing bytecode there; sys.path and sys.modules are restored
    afterwards."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    yield tuple(importlib.import_module(m) for m in ("run", "tracing", "workloads"))
    for name in set(sys.modules) - before:
        if not name.startswith("haarlab"):
            del sys.modules[name]


def test_traced_tiny_rounds_pass(bench, tmp_path):
    """Every workload's tiny round runs in process under the bench tracer
    with no failed command, so a library change that breaks a trace hook
    (say, a certificate listing without a length) fails here."""
    run, tracing, workloads = bench
    mods = run.load_haarlab()
    tracer = tracing.Tracer(mods)
    for name, build in workloads.WORKLOADS.items():
        ops = build(1, tiny=True)
        work = tmp_path / name
        work.mkdir()
        tally = run.Tally()
        for i, (op, path) in enumerate(zip(ops, run.write_inputs(ops, work))):
            run.run_op(mods, i, op, path, tally, tracer)
        assert (tally.attempted, tally.failed, tally.wrong) == (len(ops), 0, []), name
    assert tracer.counts["plane.tile_pairs_checked"] > 0
    totals = tracer.totals()
    # every space is built by FiniteSpace.__init__, so its span sees each
    # build; no tiny round need build one, so the hook is checked directly
    hook = tracing.Tracer(mods)
    hook.install()
    try:
        mods["topology"].FiniteSpace(2, (0b11, 0b10))
    finally:
        hook.uninstall()
    assert hook.totals()["topology.space_build"][1] == 1
    # the quotient path is traced: measure reaches G/N through its own
    # alias of groups.quotient, which the tracer patches too
    assert totals["groups.quotient"][1] > 0
    assert totals["measure.push_pull"][1] > 0

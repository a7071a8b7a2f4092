"""The public API: every exported name resolves, and so does every
function the benchmark's span tracer wraps (``perfbench/spans.py``); one
traced cycle of two benchmark workloads runs and checks out; no module
imports a name it never uses."""
import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import delone_local

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402

MODULES = ["delone_local"] + [
    f"delone_local.{m.name}" for m in pkgutil.iter_modules(delone_local.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_traced_functions_exist():
    missing = []
    for mod, fns in spans.TRACED.items():
        module = importlib.import_module(f"delone_local.{mod}")
        missing += [f"{mod}.{fn}" for fn in fns
                    if not callable(getattr(module, fn, None))]
    assert missing == []


@pytest.mark.parametrize("workload", ["groups", "analyze_regular"])
def test_traced_cycle(workload, tmp_path):
    # the path `perfbench/run.py --trace 1` takes, on one cycle of ops
    ops = getattr(workloads, f"build_{workload}")(tmp_path, 1)
    tracer = spans.Tracer()
    tracer.install()
    reasons = []
    try:
        for op in ops:
            tracer.begin_op()
            reasons.append(op.check(op.call()))
    finally:
        tracer.remove()
    assert reasons == [None] * len(ops)
    totals = spans.layer_totals(tracer.spans, len(ops))
    if workload == "groups":
        assert totals["point_group.stabilizer.calls"] == 1.0
        assert totals["point_group.tower_height.calls"] == 1.0
    if workload == "analyze_regular":
        # classify_scenario reaches the criterion through its public name
        assert totals["regularity.local_criterion.calls"] == 1.0


def unused_imports(path):
    """(line, name) of each name a module imports and never reads as an
    expression name (``__future__`` features aside)."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(p for p in (ROOT / "src" / "delone_local").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__ is left out: its imports are the package's re-exports
    assert unused_imports(path) == []

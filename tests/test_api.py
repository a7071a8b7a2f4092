"""The public API: every exported name resolves, and so does every
function the benchmark's span tracer wraps (``perfbench/spans.py``); one
traced cycle of two benchmark workloads runs and checks out."""
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
    if workload == "groups":
        totals = spans.layer_totals(tracer.spans, len(ops))
        assert totals["point_group.stabilizer.calls"] == 1.0
        assert totals["point_group.tower_height.calls"] == 1.0

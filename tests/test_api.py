"""The public API: every exported name resolves, and so does every
function the benchmark's span tracer wraps (``perfbench/spans.py``)."""
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import delone_local

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402

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

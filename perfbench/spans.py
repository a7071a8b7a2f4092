"""Spans around the public layer functions of ``delone_local``.

The benchmark records spans from its own files: :class:`Tracer` replaces
each traced public function, in every ``delone_local`` module namespace
that bound it at import, with a wrapper that records (name, start, end,
parent span, op id) and restores the originals afterwards.  Spans stay in
memory until the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from delone_local.antiprism_opt import OptBudget

#: Traced public functions, by module: the boundaries of the layers.
TRACED = {
    "cli": ("main",),
    "generators": ("cubic_lattice", "hex_lattice", "hex_bilattice",
                   "c4v_example"),
    "delone_core": ("load_patch", "save_patch", "cluster", "covering_radius"),
    "equivalence": ("cluster_isometry", "cluster_classes"),
    "point_group": ("stabilizer", "schoenflies_from_matrices", "tower_height"),
    "geometry": ("classify_element",),
    "regularity": ("classify_scenario", "local_criterion"),
    "antiprism_opt": ("optimize_lemma1", "optimize_lemma2"),
}


def _budget(args, kwargs) -> OptBudget:
    return args[0] if args else kwargs.get("budget", OptBudget())


#: Outcome recorded with a span, computed from the call's arguments and
#: result: the counts behind the per-layer ratios.
OBSERVERS = {
    "equivalence.cluster_isometry": lambda a, k, r: int(r is not None),
    "equivalence.cluster_classes": lambda a, k, r: (len(r.assignment), r.N),
    "point_group.stabilizer": lambda a, k, r: r.order,
    "antiprism_opt.optimize_lemma1": lambda a, k, r: (
        _budget(a, k).grid_phi * _budget(a, k).grid_psi,
        r.converged_starts, r.starts),
    "antiprism_opt.optimize_lemma2": lambda a, k, r: (
        _budget(a, k).grid_lemma2 ** 3, r.converged_starts, r.starts),
}

# span record fields
NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    """Installs span-recording wrappers; ``op_id`` tags new spans."""

    SETUP = -1

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op_id = self.SETUP
        self._ops = 0
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def begin_op(self) -> None:
        """Tag the spans that follow with a new op id."""
        self.op_id = self._ops
        self._ops += 1

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                rec[INFO] = observe(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items()
                      if n == "delone_local" or n.startswith("delone_local.")]
        for mod, names in TRACED.items():
            module = sys.modules[f"delone_local.{mod}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{mod}.{fn_name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._saved.append((ns, attr, original))
                            setattr(ns, attr, wrapper)

    def remove(self) -> None:
        while self._saved:
            ns, attr, original = self._saved.pop()
            setattr(ns, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op", "info"],
             "spans": self.spans}))


def layer_totals(spans: List[list], ops: int) -> Dict[str, float]:
    """Per-op calls, total_s and self_s of every traced name over the
    spans of timed ops (op id >= 0), plus the outcome counts and ratios.

    Self time is a span's duration minus that of its direct children;
    children of one span run one after another, so they never overlap.
    """
    child = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    info = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[OP] < 0:
            continue
        dur = rec[END] - rec[START]
        calls[rec[NAME]] += 1
        total[rec[NAME]] += dur
        self_s[rec[NAME]] += dur - child[i]
        if rec[INFO] is not None:
            info[rec[NAME]].append(rec[INFO])

    out: Dict[str, float] = {}
    for mod, names in TRACED.items():
        for fn_name in names:
            name = f"{mod}.{fn_name}"
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.total_s"] = total[name] / ops
            out[f"{name}.self_s"] = self_s[name] / ops

    found = info["equivalence.cluster_isometry"]
    out["equivalence.isometry_found_ratio"] = sum(found) / len(found) if found else 0.0
    classes = info["equivalence.cluster_classes"]
    out["equivalence.centers"] = sum(c for c, _ in classes) / ops
    out["equivalence.classes"] = sum(n for _, n in classes) / ops
    out["point_group.stabilizer.elements"] = sum(info["point_group.stabilizer"]) / ops
    opt = info["antiprism_opt.optimize_lemma1"] + info["antiprism_opt.optimize_lemma2"]
    out["antiprism_opt.grid_evals"] = sum(g for g, _, _ in opt) / ops
    starts = sum(s for _, _, s in opt)
    out["antiprism_opt.converged_ratio"] = (
        sum(c for _, c, _ in opt) / starts if starts else 0.0)
    return out


def setup_build_s(spans: List[list]) -> float:
    """Time spent in the generators during set-up (op id SETUP).  No
    generator calls another, so their spans never nest."""
    return sum((rec[END] - rec[START] for rec in spans
                if rec[OP] == Tracer.SETUP and rec[NAME].startswith("generators.")),
               0.0)

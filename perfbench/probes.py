"""One-shot layer probes of the traced run (reported, not gated).

Each probe times one public library call on a fixed input, outside the
closed loop, so slow or failing calls neither stretch nor distort the
latency metrics.
"""
from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Dict

import numpy as np

from delone_local import delone_core, generators, geometry, point_group
from delone_local.equivalence import cluster_classes

from workloads import random_rotation, rotated

#: Box half-widths of the growing-size probes.
SIZES = (4, 6, 8)
ROUNDTRIP_SEEDS = 6


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def icosahedral_group() -> point_group.PointGroup:
    """Ih: a 5-fold axis through an icosahedron vertex (0, 1, phi), a
    3-fold axis through a face center (1, 1, 1), and the inversion."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    gens = [geometry.rotation_matrix([0.0, 1.0, phi], 2.0 * math.pi / 5.0),
            geometry.rotation_matrix([1.0, 1.0, 1.0], 2.0 * math.pi / 3.0),
            -np.eye(3)]
    return point_group.group_from_generators(gens)


def roundtrip_packing_fails(workdir: Path, seed: int) -> int:
    """Rotated cubic and hex patches written by save_patch and read back
    by load_patch: how many fail the packing check (min distance >= 1).
    The patches reach |x| = 8 / sqrt3, where 10 significant digits leave
    rounding errors near 1e-9 on unit distances."""
    fails = 0
    for i in range(ROUNDTRIP_SEEDS):
        q = random_rotation(np.random.default_rng([seed, 2, i]))
        for name, patch in (
                ("cubic", generators.cubic_lattice((-8,) * 3, (8,) * 3)),
                ("hex", generators.hex_lattice(generators.HexLatticeSpec(1.0, 1.0),
                                               (-8,) * 3, (8,) * 3))):
            path = workdir / f"roundtrip_{name}_{i}.xyz"
            delone_core.save_patch(rotated(patch, q), path)
            fails += not delone_core.load_patch(path).packing_ok
    return fails


def run_probes(workdir: Path, seed: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    cubic = generators.cubic_lattice((-3,) * 3, (3,) * 3)
    c = delone_core.cluster(cubic, (0.0, 0.0, 0.0), 1.0)
    times = [_timed(point_group.stabilizer, c) for _ in range(3)]
    out["probe.stabilizer_cubic_rho1_ms"] = 1e3 * sorted(t for t, _ in times)[1]
    oh = times[0][1]
    out["probe.tower_height_Oh_s"] = _timed(point_group.tower_height, oh)[0]
    out["probe.tower_height_Ih_s"] = _timed(point_group.tower_height,
                                            icosahedral_group())[0]
    for L in SIZES:
        patch = generators.cubic_lattice((-L,) * 3, (L,) * 3)
        dt, dec = _timed(cluster_classes, patch, 1.5)
        out[f"probe.cluster_classes_ms_per_center.L{L}"] = 1e3 * dt / len(dec.assignment)
        out[f"probe.covering_radius_ms.L{L}"] = 1e3 * _timed(
            delone_core.covering_radius, patch)[0]
    out["delone_core.roundtrip_packing_fail_ratio"] = (
        roundtrip_packing_fails(workdir, seed) / (2 * ROUNDTRIP_SEEDS))
    return out

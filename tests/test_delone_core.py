"""Patch parameters, clusters, shells, and the point-set file format."""
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import QhullError

import delone_local as dl
from delone_local import delone_core
from delone_local.cli import _fmt, main
from delone_local.delone_core import (
    _largest_fitting_ball,
    _slabs,
    lex_sort,
    load_patch,
    save_patch,
)
from delone_local.errors import (
    BoxTooSmall,
    CenterNotInPatch,
    MarginViolation,
    ParseError,
    TooFewPoints,
)

from conftest import (
    LATTICES,
    STOCK,
    STOCK_PATCHES,
    covering_radius_oracle,
    jittered_cubic,
    rotated_lattice,
)

SQRT3 = np.sqrt(3.0)


def brute_force_ball(points, center, rho, tol=1e-9):
    d = np.linalg.norm(points - np.asarray(center, float), axis=1)
    return points[d <= rho + tol]


def covering_oracle(patch, h=0.02):
    """Independent oracle: coarse grid scan over the box interior followed
    by local Nelder-Mead refinement of the distance-to-set function."""
    from scipy.optimize import minimize
    from scipy.spatial import cKDTree

    tree = cKDTree(patch.points)
    axes = [np.arange(lo, hi + h / 2, h) for lo, hi in
            zip(patch.box_lo, patch.box_hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    d, _ = tree.query(grid)
    inside = (np.all(grid - d[:, None] >= patch.box_lo - 1e-9, axis=1)
              & np.all(grid + d[:, None] <= patch.box_hi + 1e-9, axis=1))
    best = float(d[inside].max())
    seeds = grid[inside][np.argsort(-d[inside])[:8]]
    for s in seeds:
        res = minimize(lambda c: -tree.query(c)[0], s, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12})
        c = res.x
        r = float(tree.query(c)[0])
        ok = (np.all(c - r >= patch.box_lo - 1e-9)
              and np.all(c + r <= patch.box_hi + 1e-9))
        if ok:
            best = max(best, r)
    return best


class TestPacking:
    def test_z3(self):
        p = dl.cubic_lattice([-2, -2, -2], [2, 2, 2])
        assert dl.packing_diameter(p) == pytest.approx(1.0, abs=1e-12)

    def test_hex(self, hex_patch):
        assert dl.packing_diameter(hex_patch) == pytest.approx(1.0, abs=1e-12)

    def test_violation_reported(self):
        p = dl.PointPatch([[0, 0, 0], [0.9, 0, 0]], [-1, -1, -1], [2, 2, 2])
        assert dl.packing_diameter(p) == pytest.approx(0.9, abs=1e-12)
        assert not p.packing_ok
        assert p.packing_violations == [(0, 1)]

    def test_too_few(self):
        p = dl.PointPatch([[0, 0, 0]], [-1, -1, -1], [1, 1, 1])
        with pytest.raises(TooFewPoints):
            dl.packing_diameter(p)


class TestCoveringRadius:
    def test_z3(self):
        p = dl.cubic_lattice([-3, -3, -3], [3, 3, 3])
        assert dl.covering_radius(p) == pytest.approx(SQRT3 / 2, abs=1e-6)

    def test_hex_unit(self, hex_patch):
        # deep hole above a triangle center, halfway between layers
        expected = covering_oracle(hex_patch, h=0.05)
        assert expected == pytest.approx(np.sqrt(7.0 / 12.0), abs=1e-6)
        assert dl.covering_radius(hex_patch) == pytest.approx(expected, abs=1e-6)

    def test_hex_tall_mu4(self):
        # layer spacing sqrt(mu) = 2: deep hole at sqrt(1/3 + 1)
        p = dl.hex_lattice(dl.HexLatticeSpec(1.0, 4.0), [-5, -5, -6], [5, 5, 6])
        expected = covering_oracle(p, h=0.08)
        assert expected == pytest.approx(np.sqrt(1.0 / 3.0 + 1.0), abs=1e-6)
        assert dl.covering_radius(p) == pytest.approx(expected, abs=1e-6)

    def test_hex_tall_mu16(self):
        # layer spacing 4: deep hole at sqrt(1/3 + 4)
        p = dl.hex_lattice(dl.HexLatticeSpec(1.0, 16.0), [-6, -6, -10], [6, 6, 10])
        assert dl.covering_radius(p) == pytest.approx(
            np.sqrt(1.0 / 3.0 + 4.0), abs=1e-6)

    def test_box_enlargement_invariance(self):
        small = dl.cubic_lattice([-3, -3, -3], [3, 3, 3])
        large = dl.cubic_lattice([-5, -5, -5], [5, 5, 5])
        assert dl.covering_radius(small) == pytest.approx(
            dl.covering_radius(large), abs=1e-6)


def _noisy_z3(sigma):
    # trusted on the box grown by 1e-6, which holds every noisy point
    p = dl.cubic_lattice([-5] * 3, [5] * 3)
    noise = np.random.default_rng(0).normal(0.0, sigma, p.points.shape)
    return dl.PointPatch(p.points + noise, p.box_lo - 1e-6, p.box_hi + 1e-6)


def _rotated_noisy_z3(sigma, seed):
    # Z^3 on +-6 under a seeded rotation, with seeded noise: cospherical up
    # to sigma.  Trusted on the box grown by 1e-6, which holds every point
    p = rotated_lattice("z3", seed, 6.0)
    noise = np.random.default_rng(seed).normal(0.0, sigma, p.points.shape)
    return dl.PointPatch(p.points + noise, p.box_lo - 1e-6, p.box_hi + 1e-6)


def _shifted_z3(shift):
    # Z^3 on +-4 moved by (shift, shift, shift), box and all.  Read off the
    # lifted hyperplanes, R was 5e-10 off at shift 1000 (|x|^2 ~ 3e6)
    p = dl.cubic_lattice([-4] * 3, [4] * 3)
    return dl.PointPatch(p.points + shift, p.box_lo + shift, p.box_hi + shift)


#: Patches on which the Delaunay circumballs must give the Voronoi scan's R.
ORACLE_PATCHES = {
    **{f"stock_{name}_{h}": (lambda b=LATTICES[name][0], h=h: b([-h] * 3, [h] * 3))
       for name, h in STOCK_PATCHES},
    **{f"jittered_{seed}": (lambda seed=seed: jittered_cubic(4, seed))
       for seed in range(5)},
    **{f"rotated_{name}_{seed}": (lambda name=name, seed=seed:
                                  rotated_lattice(name, seed, 4.0))
       for name in LATTICES for seed in range(3)},
    "z3_noise_1e-14": lambda: _noisy_z3(1e-14),
    "z3_noise_1e-9": lambda: _noisy_z3(1e-9),
    **{f"rotated_z3_noise_{sigma:g}_{seed}": (
        lambda sigma=sigma, seed=seed: _rotated_noisy_z3(sigma, seed))
       for sigma in (1e-10, 1e-9, 1e-8) for seed in range(4)},
    "hex_mu16": lambda: dl.hex_lattice(dl.HexLatticeSpec(1, 16),
                                       [-6, -6, -10], [6, 6, 10]),
    "z3_shifted_1000": lambda: _shifted_z3(1000.0),
}


#: (patch, whether the merging triangulation decides R)
TRIANGULATION_CASES = [("stock_z3_4", False), ("jittered_0", False),
                       ("rotated_z3_noise_1e-10_0", True)]


class TestCoveringRadiusOracle:
    """Delaunay circumballs against the Voronoi-vertex scan they replace."""

    @pytest.mark.parametrize("name", ORACLE_PATCHES)
    def test_matches_voronoi_scan(self, name):
        p = ORACLE_PATCHES[name]()
        assert abs(dl.covering_radius(p) - covering_radius_oracle(p)) <= 1e-12

    @staticmethod
    def _triangulations(name, cpus, monkeypatch):
        calls = []
        real = scipy.spatial.Delaunay

        def record(pts, qhull_options):
            calls.append(qhull_options)
            return real(pts, qhull_options=qhull_options)

        monkeypatch.setattr(scipy.spatial, "Delaunay", record)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        dl.covering_radius(ORACLE_PATCHES[name]())
        return calls

    @pytest.mark.parametrize("name, merged", TRIANGULATION_CASES)
    def test_triangulations(self, name, merged, monkeypatch):
        # a lattice and a jittered patch are decided on the joggled cells;
        # a patch cospherical up to 1e-10 noise fails the joggled winner's
        # check and is decided on Qhull's merging triangulation.  Each
        # route triangulates both slabs, and the merging calls come after
        # every joggled one
        calls = self._triangulations(name, 2, monkeypatch)
        assert len(calls) == (4 if merged else 2)
        assert all(c.startswith("QJ") for c in calls[:2])
        assert calls[2:] == ([None, None] if merged else [])

    @pytest.mark.parametrize("name, merged", TRIANGULATION_CASES)
    def test_triangulations_on_one_cpu(self, name, merged, monkeypatch):
        # one triangulation of the whole patch per route
        calls = self._triangulations(name, 1, monkeypatch)
        assert calls[0].startswith("QJ")
        assert calls[1:] == ([None] if merged else [])

    def test_four_points(self):
        # too few for Qhull's joggled lift; the merged triangulation's
        # point at infinity still gives the one cell
        p = dl.PointPatch(np.eye(3).tolist() + [[0, 0, 0]], [-3] * 3, [3] * 3)
        assert dl.covering_radius(p) == pytest.approx(SQRT3 / 2, abs=1e-15)

    def test_same_bits_in_fresh_processes(self):
        # Qhull's joggle is seeded: R is bit-identical across processes, on
        # the joggled route and on the merged one
        script = (
            "import sys; sys.path[:0] = sys.argv[1:3]\n"
            "import delone_local as dl\n"
            "from conftest import jittered_cubic\n"
            "from test_delone_core import _rotated_noisy_z3\n"
            "for p in (dl.cubic_lattice([-4] * 3, [4] * 3),\n"
            "          jittered_cubic(4, 0), _rotated_noisy_z3(1e-10, 0)):\n"
            "    print(repr(dl.covering_radius(p)))\n")
        paths = [str(Path(dl.__file__).parents[1]), str(Path(__file__).parent)]
        runs = [subprocess.run([sys.executable, "-c", script, *paths],
                               capture_output=True, text=True, check=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert len(runs[0].split()) == 3

    def test_planar_patch_raises(self):
        # Qhull cannot triangulate a flat patch; a grid scan over its box
        # gave R = 0.5, which comes from the box alone
        pts = [[x, y, 0.0] for x in range(-3, 4) for y in range(-3, 4)]
        p = dl.PointPatch(pts, [-3, -3, -0.5], [3, 3, 0.5])
        with pytest.raises(BoxTooSmall, match="cannot triangulate"):
            dl.covering_radius(p)
        with pytest.raises(BoxTooSmall):
            covering_radius_oracle(p)

    def test_no_circumball_fits_raises(self):
        # every Delaunay cell of Z^3 on [-1, 1]^3 has radius sqrt(3)/2 and
        # a center 1/2 from the box faces.  A grid scan gave 0.606, though
        # the ball about (t, t, t), t = 1/(1 + sqrt 3), of radius 0.634
        # fits the box
        p = dl.cubic_lattice([-1] * 3, [1] * 3)
        with pytest.raises(BoxTooSmall, match="no Delaunay circumball fits"):
            dl.covering_radius(p)
        with pytest.raises(BoxTooSmall):
            covering_radius_oracle(p)

    def test_inflated_winner_is_rescored(self):
        # (0.2, 0, 0) claims 1.9 but lies 0.2 from the origin; (1.5, .5, .5)
        # claims 0.3 but lies sqrt(3)/2 from the set.  Trusting the claims
        # gives 1.9, dropping only the winner gives 0.3; the KD rule gives
        # sqrt(3)/2
        p = dl.cubic_lattice([-3] * 3, [3] * 3)
        centers = np.array([[0.2, 0.0, 0.0], [1.5, 0.5, 0.5]])
        R = _largest_fitting_ball(p, centers, np.array([1.9, 0.3]))
        assert R == pytest.approx(SQRT3 / 2, abs=1e-15)

    def test_nothing_fits(self):
        p = dl.cubic_lattice([-3] * 3, [3] * 3)
        assert _largest_fitting_ball(p, np.array([[2.9, 0.0, 0.0]]),
                                     np.array([0.5])) is None


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _cut_width(patch):
    # w read off the lower slab's box, which ends at m + w on the cut axis
    slabs = _slabs(patch)
    assert slabs is not None
    a = int(np.argmax(patch.box_hi - patch.box_lo))
    return slabs[0][2][a] - 0.5 * (patch.box_lo[a] + patch.box_hi[a])


def _carved(patch, center, radius):
    # the patch without its sites within radius of center: an empty ball
    # of about that radius about center
    keep = np.linalg.norm(patch.points - center, axis=1) > radius
    return dl.PointPatch(patch.points[keep], patch.box_lo, patch.box_hi)


class TestCoveringRadiusSlabs:
    """Two overlapping slabs on two threads against the whole patch."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.mark.parametrize("name", ORACLE_PATCHES)
    def test_same_R_as_one_slab(self, name, monkeypatch):
        # each cell's bits depend on its vertex set alone, so a winning cell
        # that both routes find gives bit-identical R.  Where the merged
        # winner is not empty, every center is rescored by its KD distance,
        # and those centers are whichever Qhull gave: such an R is checked
        # against the oracle only
        p = ORACLE_PATCHES[name]()
        assert _slabs(p) is not None
        real = delone_core._largest_fitting_ball

        def radius():
            calls = []

            def record(*args):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(delone_core, "_largest_fitting_ball", record)
            return dl.covering_radius(p), len(calls) > 1

        split, rescored = radius()
        _one_cpu(monkeypatch)
        whole, rescored_whole = radius()
        if not (rescored or rescored_whole):
            assert split == whole

    def test_one_slab_without_a_second_cpu(self, monkeypatch):
        p = jittered_cubic(4, 0)
        assert _slabs(p) is not None
        _one_cpu(monkeypatch)
        assert _slabs(p) is None

    def test_cut_width_covers_a_carved_hole(self, monkeypatch):
        # the hole about the middle of the cut plane has radius > 2.6, so
        # its ball straddles the cut and fits neither slab at the width the
        # plain patch gets, which misses R; the cut width grows past it
        plain = jittered_cubic(5, 0)
        p = _carved(plain, np.zeros(3), 2.6)
        R = covering_radius_oracle(p)
        assert _cut_width(plain) < 2.6 < _cut_width(p)
        assert abs(dl.covering_radius(p) - R) <= 1e-12
        w = _cut_width(plain)
        monkeypatch.setattr(delone_core, "_cut_width", lambda *args: w)
        assert dl.covering_radius(p) < R - 0.5

    @given(seed=st.integers(0, 4),
           y=st.floats(-3.0, 3.0), z=st.floats(-3.0, 3.0),
           x=st.floats(-1.0, 1.0), radius=st.floats(1.5, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_carved_hole_property(self, seed, x, y, z, radius):
        # a hole near the cut plane x = 0 of a jittered patch: (0, y, z)
        # lies at least radius - |x| from the set, and so does w
        p = _carved(jittered_cubic(4, seed), np.array([x, y, z]), radius)
        if _slabs(p) is not None:
            assert _cut_width(p) >= radius - abs(x)
        assert abs(dl.covering_radius(p) - covering_radius_oracle(p)) <= 1e-12

    def test_nothing_fits_either_slab(self):
        # Z^3 on a rod: both slabs triangulate, no cell fits the box's
        # +-1 cross-section, and the cause stays "no circumball fits"
        p = dl.cubic_lattice([-6, -1, -1], [6, 1, 1])
        assert _slabs(p) is not None
        with pytest.raises(BoxTooSmall, match="no Delaunay circumball fits"):
            dl.covering_radius(p)

    def test_slab_Qhull_cannot_triangulate(self, monkeypatch):
        # where Qhull fails on a slab (fewer points than the patch), the
        # whole patch is triangulated instead
        p = jittered_cubic(4, 1)
        real = scipy.spatial.Delaunay

        def fail_on_slabs(pts, qhull_options):
            if len(pts) < len(p):
                raise QhullError("slab")
            return real(pts, qhull_options=qhull_options)

        monkeypatch.setattr(scipy.spatial, "Delaunay", fail_on_slabs)
        split = dl.covering_radius(p)
        _one_cpu(monkeypatch)
        assert split == dl.covering_radius(p)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # an error on the worker thread is raised by the call, as on the
        # serial path, and the worker is joined
        main = threading.main_thread()
        real = scipy.spatial.Delaunay

        def fail_off_main(pts, qhull_options):
            if threading.current_thread() is not main:
                raise RuntimeError("worker")
            return real(pts, qhull_options=qhull_options)

        monkeypatch.setattr(scipy.spatial, "Delaunay", fail_off_main)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="worker"):
            dl.covering_radius(jittered_cubic(4, 2))
        assert threading.active_count() == before

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        dl.covering_radius(jittered_cubic(4, 3))
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", ORACLE_PATCHES)
    def test_printed_R_does_not_depend_on_the_cpu_count(self, name,
                                                        monkeypatch):
        # the split and the one-slab R may differ in the last ulp or so
        # (on the rotated and noisy lattices), never in the digits that
        # the CLI prints
        p = ORACLE_PATCHES[name]()
        split = _fmt(dl.covering_radius(p))
        _one_cpu(monkeypatch)
        assert split == _fmt(dl.covering_radius(p))


#: repr(covering_radius), pinned on the stock files that ``delone
#: generate`` writes and on jittered cubic patches (sites |k| <= m, seed):
#: each is decided on a cell of the joggled triangulation, whose center is
#: solved from the patch points alone, whatever joggle Qhull used.
PINNED_R = {
    "cubic4": "0.8660254037844386",
    "hex4": "0.7637626159306851",
    "hex_bilattice4": "0.8693867571416551",
    "hex_bilattice5": "0.8693867571416551",
    (5, 0): "1.452149538897582",
    (5, 1): "1.424266165128646",
    (6, 0): "1.4766846763824468",
    (6, 1): "1.4540639163994677",
}

#: Run in a fresh interpreter: repr(covering_radius) of the file argv[2].
R_OF_FILE_SCRIPT = (
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "import delone_local as dl\n"
    "print(repr(dl.covering_radius(dl.load_patch(sys.argv[2]))))\n")


def _stock_file(name, tmp_path):
    path = tmp_path / f"{name}.xyz"
    assert main(["generate", *STOCK[name], "-o", str(path)]) == 0
    return path


class TestCoveringRadiusBits:
    """R's bits, and the check that keeps a joggled winner honest."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("key", PINNED_R, ids=str)
    def test_pinned(self, key, cpus, tmp_path, monkeypatch):
        if isinstance(key, str):
            p = load_patch(_stock_file(key, tmp_path))
        else:
            p = jittered_cubic(*key)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        assert repr(dl.covering_radius(p)) == PINNED_R[key]

    def test_same_bits_of_a_file_in_fresh_processes(self, tmp_path):
        # the 1035 points of hex_bilattice +-5, read back from the file
        path = _stock_file("hex_bilattice5", tmp_path)
        src = str(Path(dl.__file__).parents[1])
        runs = [subprocess.run([sys.executable, "-c", R_OF_FILE_SCRIPT, src,
                                str(path)], capture_output=True, text=True,
                               check=True).stdout for _ in range(2)]
        assert runs == [PINNED_R["hex_bilattice5"] + "\n"] * 2

    def test_winner_holding_a_point_goes_to_the_merging_route(self,
                                                               monkeypatch):
        # the joggled winner's ball grown to hold its nearest points
        # 10 JOGGLE_TOL L deep, far below any joggle Qhull picks: the KD
        # check refuses it and the merging triangulation decides R, which
        # the grown radius (4e-12 off) would miss by more than 1e-12
        p = ORACLE_PATCHES["stock_z3_4"]()
        pts = p.points - 0.5 * (p.box_lo + p.box_hi)
        depth = 10 * delone_core.JOGGLE_TOL * max(1.0, float(np.abs(pts).max()))
        real = delone_core._circumballs
        options = []

        def grow_winner(patch, pts, slabs, qhull_options):
            options.append(qhull_options)
            centers, radii = real(patch, pts, slabs, qhull_options)
            if qhull_options is not None:
                radii = radii.copy()
                radii[delone_core._largest_fitting(patch, centers, radii)] += depth
            return centers, radii

        monkeypatch.setattr(delone_core, "_circumballs", grow_winner)
        R = dl.covering_radius(p)
        assert len(options) == 2 and options[0] is not None
        assert options[1] is None
        assert abs(R - covering_radius_oracle(p)) <= 1e-12


class TestMapHalves:
    """The two-thread helper behind the slabs and the lemma-1 grid."""

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    @pytest.mark.parametrize("n", range(5))
    def test_results_in_item_order(self, n, cpus, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        threads = []

        def fn(x):
            threads.append(threading.current_thread())
            return x * x

        before = set(threading.enumerate())
        assert delone_core._map_halves(fn, list(range(n))) == [
            x * x for x in range(n)]
        assert set(threading.enumerate()) == before
        # the second half runs on a worker only on two CPUs and with
        # two or more items
        assert len(set(threads)) == (2 if n > 1 and len(cpus) > 1
                                     else min(n, 1))

    def test_caller_error_joins_the_worker(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        main = threading.main_thread()
        done = []

        def fn(x):
            if threading.current_thread() is main:
                raise ValueError("caller")
            done.append(x)

        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="caller"):
            delone_core._map_halves(fn, [0, 1, 2, 3])
        assert done == [2, 3]
        assert set(threading.enumerate()) == before


class TestCluster:
    def test_z3_rho1(self, z3_patch):
        c = dl.cluster(z3_patch, [0, 0, 0], 1.0)
        assert len(c) == 7
        oracle = brute_force_ball(z3_patch.points, [0, 0, 0], 1.0)
        assert len(oracle) == 7

    def test_z3_rho_half(self, z3_patch):
        # below the minimal distance every cluster is just its center
        c = dl.cluster(z3_patch, [0, 0, 0], 0.5)
        assert len(c) == 1

    def test_z3_rho_sqrt2(self, z3_patch):
        c = dl.cluster(z3_patch, [0, 0, 0], np.sqrt(2))
        assert len(c) == 19
        assert len(brute_force_ball(z3_patch.points, [0, 0, 0], np.sqrt(2))) == 19

    def test_center_not_in_patch(self, z3_patch):
        with pytest.raises(CenterNotInPatch):
            dl.cluster(z3_patch, [0.5, 0, 0], 1.0)

    def test_margin_violation(self, z3_patch):
        with pytest.raises(MarginViolation):
            dl.cluster(z3_patch, [4, 0, 0], 1.0)

    def test_monotone_in_rho(self, z3_patch):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r1, r2 = sorted(rng.uniform(0.2, 2.5, size=2))
            a = dl.cluster(z3_patch, [0, 0, 0], r1)
            b = dl.cluster(z3_patch, [0, 0, 0], r2)
            keys_b = {tuple(p) for p in np.round(b.members, 9)}
            assert all(tuple(p) in keys_b for p in np.round(a.members, 9))

    def test_cluster_equals_union_of_shells(self, z3_patch):
        c = dl.cluster(z3_patch, [0, 0, 0], 2.0)
        dists = np.unique(np.round(c.center_distances, 9))
        total = 0
        for r in dists:
            total += len(dl.shell(z3_patch, [0, 0, 0], float(r)))
        assert total == len(c)

    def test_full_dimensional_at_2R(self, z3_patch):
        c = dl.cluster(z3_patch, [1, 0, 0], SQRT3)
        assert c.affine_dimension() == 3


class TestShell:
    def test_z3_rho1(self, z3_patch):
        assert len(dl.shell(z3_patch, [0, 0, 0], 1.0)) == 6

    def test_empty_shell(self, z3_patch):
        assert len(dl.shell(z3_patch, [0, 0, 0], 1.2)) == 0

    def test_zero_shell_is_center(self, z3_patch):
        s = dl.shell(z3_patch, [0, 0, 0], 0.0)
        assert s.shape == (1, 3)
        assert np.allclose(s[0], 0)


class TestShellFilter:
    # shell filters cluster's members at |d - rho| <= geom_tol; it must
    # equal a scan of every patch point, byte for byte
    @pytest.mark.parametrize("name, seed", [
        ("z3", 0), ("z3", 1), ("c4v", 0), ("c4v", 1)])
    def test_equals_brute_force_scan(self, name, seed):
        patch = rotated_lattice(name, seed, 5)
        tol = patch.geom_tol
        inside = patch.points[patch.ball_inside_box(patch.points, 3.0)]
        for c in inside[:: max(1, len(inside) // 2)][:2]:
            d = np.linalg.norm(patch.points - c, axis=1)
            for rho in np.unique(d[d <= 3.0]):
                want = lex_sort(patch.points[np.abs(d - rho) <= tol])
                got = dl.shell(patch, c, float(rho))
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestFileFormat:
    def test_roundtrip(self, tmp_path, c4v_patch):
        path = tmp_path / "set.xyz"
        save_patch(c4v_patch, path)
        back = load_patch(path)
        assert np.allclose(back.points, c4v_patch.points)
        assert np.allclose(back.box_lo, c4v_patch.box_lo)
        assert np.allclose(back.box_hi, c4v_patch.box_hi)
        assert back.declared_R == pytest.approx(c4v_patch.declared_R)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "pts.xyz"
        path.write_text("# a comment\n\n0 0 0\n1 0 0\n# trailing\n")
        p = load_patch(path)
        assert len(p) == 2

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\n1 0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_patch(path)

    @pytest.mark.parametrize("text, message", [
        ("1 2 3 4\n5 6\n", "line 1: expected 3 coordinates, got 4"),
        ("0 0 0\n1 2 3 # x\n", "line 2: expected 3 coordinates, got 5"),
        ("0 0\n1 0\n2 0\n", "line 1: expected 3 coordinates, got 2"),
        ("".join(f"{i} 0 0\n" for i in range(100)) + "100 0 zero\n",
         "line 101: bad coordinate"),
        # a non-finite number or a declared R <= 0 read as "no center
        # supports radius nan", "point has non-finite components" or an
        # error without a line
        ("# box -1 -1 -1 1 1 1\n# R nan\n0 0 0\n",
         "line 2: R header must be positive and finite"),
        ("# R inf\n0 0 0\n1 0 0\n", "line 1: R header must be positive and finite"),
        ("# R 0\n0 0 0\n1 0 0\n", "line 1: R header must be positive and finite"),
        ("# R -0.5\n0 0 0\n1 0 0\n", "line 1: R header must be positive and finite"),
        ("# box nan -1 -1 1 1 1\n0 0 0\n", "line 1: non-finite box header"),
        ("0 0 0\n# box -1 -1 -1 1 inf 1\n", "line 2: non-finite box header"),
        ("# box -1 -1 -1 1 1 1\n0 0 0\nnan 0 0\n", "line 3: non-finite coordinate"),
        ("0 0 0\n\n1 -inf 0\n2 0 nan\n", "line 3: non-finite coordinate"),
        ("# box -1 -1 -1 1 1\n0 0 0\n", "line 1: box header needs 6 numbers"),
        ("0 0 0\n# box -1 -1 -1 1 1 one\n", "line 2: bad box header"),
        ("# R 1 2\n0 0 0\n", "line 1: R header needs 1 number"),
        ("0 0 0\n# R one\n", "line 2: bad R header"),
    ], ids=["4-then-2", "trailing-comment", "2-columns", "bad-after-100",
            "R-nan", "R-inf", "R-zero", "R-negative", "box-nan", "box-inf",
            "point-nan", "point-inf-no-box", "box-5-numbers", "box-word",
            "R-2-numbers", "R-word"])
    def test_bad_data_line_named(self, tmp_path, text, message):
        # the data lines are parsed as one array; a failure names its
        # line, as does a bad number in a header
        path = tmp_path / "bad.xyz"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_patch(path)
        assert str(info.value) == message

    def test_point_outside_box(self, tmp_path):
        # the patch must be the set's intersection with its box; a point
        # outside it made `analyze` blame a lower-dimensional cluster
        path = tmp_path / "outside.xyz"
        path.write_text("# box 0 0 0 1 1 1\n0 0 0\n5 5 5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_patch(path)
        path.write_text("# box 0 0 0 1 1 1\n0 0 0\n1.0000000005 1 1\n")
        assert len(load_patch(path)) == 2

    @pytest.mark.parametrize("R", [float("nan"), float("inf"), 0.0, -1.0])
    def test_patch_refuses_a_bad_declared_R(self, R):
        # a nan was kept, and save_patch wrote "# R nan", which load_patch
        # refuses
        with pytest.raises(ValueError, match="declared R must be positive "
                                             "and finite"):
            dl.PointPatch([[0, 0, 0]], [-1] * 3, [1] * 3, declared_R=R)

    def test_declared_R_survives_the_roundtrip(self, tmp_path):
        path = tmp_path / "R.xyz"
        save_patch(dl.PointPatch([[0, 0, 0], [1, 0, 0]], [-1] * 3, [2, 1, 1],
                                 declared_R=1.25), path)
        assert load_patch(path).declared_R == 1.25

    def test_patch_checks_its_box(self):
        # built in code, a patch holds its points to its box as a loaded
        # one does, within geom_tol
        with pytest.raises(MarginViolation, match="lies outside the box"):
            dl.PointPatch([[0, 0, 0], [5, 5, 5]], [0, 0, 0], [1, 1, 1])
        assert len(dl.PointPatch([[0, 0, 0], [1 + 5e-10, 1, 1]],
                                 [0, 0, 0], [1, 1, 1])) == 2

    def test_load_names_the_line_outside_the_box(self, tmp_path):
        path = tmp_path / "outside.xyz"
        path.write_text("# box 0 0 0 1 1 1\n# R 0.5\n0 0 0\n\n5 5 5\n")
        with pytest.raises(ParseError) as info:
            load_patch(path)
        assert str(info.value) == "line 5: point [5.0, 5.0, 5.0] lies outside the box"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError, match="no points"):
            load_patch(path)

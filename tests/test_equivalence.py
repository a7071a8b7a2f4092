"""Cluster equivalence and the cluster-counting function."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import delone_local as dl
from delone_local import delone_core, equivalence, point_group
from delone_local.delone_core import Cluster, load_patch, save_patch
from delone_local.equivalence import (
    _profile_partners,
    _profile_tolerance,
    _profiles_match,
    cluster_classes,
    cluster_isometry,
)
from delone_local.errors import NoUsableCenters, RadiusMismatch
from delone_local.geometry import Isometry, classify_element, rotation_matrix
from delone_local.regularity import classify_scenario

from conftest import (
    LATTICES,
    STOCK_PATCHES,
    _carries_oracle,
    cluster_classes_oracle,
    jittered_cubic,
    maps_oracle,
    named_group_generators,
    rotated_lattice,
)

SQRT3 = np.sqrt(3.0)


def transported(c: Cluster, iso: Isometry) -> Cluster:
    return Cluster(center=iso.apply(c.center), radius=c.radius,
                   members=iso.apply(c.members))


def random_isometry(rng) -> Isometry:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return Isometry(q, rng.normal(size=3) * 3.0)


class TestClusterIsometry:
    def test_z3_translation(self, z3_patch):
        a = dl.cluster(z3_patch, [0, 0, 0], 1.0)
        b = dl.cluster(z3_patch, [1, 0, 0], 1.0)
        g = cluster_isometry(a, b)
        assert g is not None
        assert np.abs(g.apply(a.center) - b.center).max() < 1e-9

    def test_z3_vs_hex_not_equivalent(self, z3_patch, hex_patch):
        a = dl.cluster(z3_patch, [0, 0, 0], 1.0)
        b = dl.cluster(hex_patch, [0, 0, 0], 1.0)
        assert len(a) == 7 and len(b) == 9  # cardinality already differs
        assert cluster_isometry(a, b) is None

    def test_c4v_mirror_layers(self, c4v_patch):
        rho = np.sqrt(1.5)
        a = dl.cluster(c4v_patch, [0, 0, 1], rho)
        b = dl.cluster(c4v_patch, [0, 0, 2], rho)
        g = cluster_isometry(a, b)
        assert g is not None
        kind = classify_element(g.q)
        det = float(np.linalg.det(g.q))
        # layers are mirror-related: improper map or a horizontal half-turn
        horizontal_half_turn = (kind.kind == "rotation" and kind.order == 2
                                and abs(kind.axis[2]) < 1e-6)
        assert det < 0 or horizontal_half_turn

    def test_radius_mismatch(self, z3_patch):
        a = dl.cluster(z3_patch, [0, 0, 0], 1.0)
        b = dl.cluster(z3_patch, [0, 0, 0], 1.4)
        with pytest.raises(RadiusMismatch):
            cluster_isometry(a, b)

    def test_reproduction_error_bound(self, z3_patch):
        rng = np.random.default_rng(11)
        a = dl.cluster(z3_patch, [0, 0, 0], 2.0)
        iso = random_isometry(rng)
        b = transported(a, iso)
        g = cluster_isometry(a, b)
        assert g is not None
        moved = g.apply(a.members)
        d, _ = cKDTree(b.members).query(moved)
        assert float(d.max()) <= 10 * 1e-9 * 100  # well within matching tol

    def test_single_point_clusters(self, z3_patch):
        a = dl.cluster(z3_patch, [0, 0, 0], 0.5)
        b = dl.cluster(z3_patch, [2, 1, 0], 0.5)
        g = cluster_isometry(a, b)
        assert g is not None
        assert np.allclose(g.t, [2, 1, 0])

    def test_collinear_clusters(self):
        # points on a line: equivalence decided with reduced frames
        pts = [[0, 0, z] for z in range(-3, 4)]
        p = dl.PointPatch(pts, [-4, -4, -4], [4, 4, 4])
        a = dl.cluster(p, [0, 0, 0], 1.0)
        b = dl.cluster(p, [0, 0, 1], 1.0)
        g = cluster_isometry(a, b)
        assert g is not None

    def test_collinear_not_equivalent(self):
        pts = [[0, 0, -1.0], [0, 0, 0], [0, 0, 1.5], [0, 0, 3.0]]
        p = dl.PointPatch(pts, [-2, -2, -1.5], [2, 2, 3.5])
        a = dl.cluster(p, [0, 0, 0], 1.1)   # neighbors at -1 only
        b = dl.cluster(p, [0, 0, 1.5], 1.6)
        with pytest.raises(RadiusMismatch):
            cluster_isometry(a, b)
        b = dl.cluster(p, [0, 0, 1.5], 1.1)  # no neighbors within 1.1
        assert cluster_isometry(a, b) is None

    def test_planar_clusters(self):
        pts = [[x, y, 0] for x in range(-3, 4) for y in range(-3, 4)]
        p = dl.PointPatch(pts, [-3.5, -3.5, -1.5], [3.5, 3.5, 1.5])
        a = dl.cluster(p, [0, 0, 0], 1.0)
        b = dl.cluster(p, [1, 1, 0], 1.0)
        g = cluster_isometry(a, b)
        assert g is not None

    @pytest.mark.parametrize("basis", [
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.5, SQRT3 / 2, 0.0]],
    ], ids=["square", "hex"])
    def test_planar_rotated_reflected_copy(self, basis):
        e1, e2 = np.array(basis)
        pts = np.array([i * e1 + j * e2 for i in range(-6, 7) for j in range(-6, 7)])
        pts = pts[np.all(np.abs(pts) <= 4, axis=1)]  # the lattice in the box
        p = dl.PointPatch(pts, [-4, -4, -2], [4, 4, 2])
        a = dl.cluster(p, [0, 0, 0], 2.0)
        assert a.affine_dimension() == 2
        rot = rotation_matrix([1.0, -2.0, 0.5], 0.7)
        b = transported(a, Isometry(rot @ np.diag([1.0, -1.0, 1.0]), [0.4, 1.1, -2.0]))
        g = cluster_isometry(a, b)
        assert g is not None
        assert np.abs(g.apply(a.center) - b.center).max() < 1e-9
        d, _ = cKDTree(b.members).query(g.apply(a.members))
        assert float(d.max()) < 1e-7

    def test_planar_same_distances_not_congruent(self):
        c = np.cos(2 * np.pi / 3)
        s = np.sin(2 * np.pi / 3)
        a = Cluster(center=[0, 0, 0], radius=1.0,
                    members=[[0, 0, 0], [1, 0, 0], [0, 1, 0]])      # 0 and 90 deg
        b = Cluster(center=[0, 0, 0], radius=1.0,
                    members=[[0, 0, 0], [1, 0, 0], [c, s, 0]])      # 0 and 120 deg
        assert np.allclose(a.center_distances, b.center_distances)
        assert cluster_isometry(a, b) is None
        assert cluster_isometry(b, a) is None

    def test_collinear_rotated_reversed_copy(self):
        a = Cluster(center=[0, 0, 0], radius=1.0,
                    members=[[-1, 0, 0], [0, 0, 0], [1, 0, 0]])
        iso = Isometry(rotation_matrix([0, 1, 1], 2.0) @ np.diag([-1.0, 1.0, 1.0]),
                       [0.3, -1.2, 2.0])
        b = transported(a, iso)
        g = cluster_isometry(a, b)
        assert g is not None
        d, _ = cKDTree(b.members).query(g.apply(a.members))
        assert float(d.max()) < 1e-9

    def test_collinear_same_distances_not_congruent(self):
        a = Cluster(center=[0, 0, 0], radius=2.0,
                    members=[[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        b = Cluster(center=[0, 0, 0], radius=2.0,
                    members=[[0, 0, 0], [1, 0, 0], [-2, 0, 0]])
        assert cluster_isometry(a, b) is None
        assert cluster_isometry(b, a) is None

    def test_frame_window_growth(self, layered_square_patch):
        # the frame of a needs a window wider than its 12 coplanar nearest
        # neighbours (see the stabilizer test on the same patch)
        a = dl.cluster(layered_square_patch, [0, 0, 0], 3.0)
        b = dl.cluster(layered_square_patch, [1, -1, 2.5], 3.0)
        g = cluster_isometry(a, b)
        assert g is not None
        d, _ = cKDTree(b.members).query(g.apply(a.members))
        assert float(d.max()) < 1e-9


class TestCarries:
    """Stacked map verification: one KD query, then per row the distance
    test and the one-to-one test."""

    # each offset of B lies within 1e-8 of one of A's, but two of them
    # share the nearest one, (0, 1, 0): not one-to-one
    A = Cluster(center=[0, 0, 0], radius=1.0,
                members=[[0, 0, 0], [1, 0, 0], [1, 0, 1e-8], [0, 1, 0]])
    B = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 1e-8]])

    def test_centers_against_one_map(self):
        a = self.A
        got, rows = equivalence._carries(
            a, np.stack([a.offsets, self.B, a.offsets[::-1]]), np.eye(3))
        assert got.tolist() == [True, False, True]
        # a passing row is the permutation of a's offsets that it makes
        assert rows[0].tolist() == [0, 1, 2, 3]
        assert rows[2].tolist() == [3, 2, 1, 0]

    def test_maps_against_one_offset_set(self):
        a = self.A
        qs = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0]),
                       rotation_matrix([0, 0, 1], np.pi / 2), np.eye(3)])
        assert equivalence._carries(a, a.offsets, qs)[0].tolist() == [
            True, False, False, True]
        assert equivalence._carries(a, self.B, qs)[0].tolist() == [False] * 4

    def test_member_count_differs(self):
        a = self.A
        assert equivalence._carries(
            a, a.offsets[1:], np.eye(3)[None])[0].tolist() == [False]
        assert equivalence._carries(
            a, np.stack([a.offsets[1:]] * 2), np.eye(3))[0].tolist() == [False] * 2


class TestCarriesOracle:
    """The cell lookup of ``_carries`` against one KD query over the whole
    stack (``_carries_oracle``): the same pass mask, and the same index
    rows on passing rows."""

    @staticmethod
    def assert_same(a, offsets, qs):
        got, rows = equivalence._carries(a, offsets, qs)
        want, want_rows = _carries_oracle(a, offsets, qs)
        assert got.tolist() == want.tolist()
        assert np.array_equal(rows[got], want_rows[got])
        return got

    @staticmethod
    def recorded(monkeypatch, run):
        """The arguments of every ``_carries`` call that run() makes."""
        calls, carries = [], equivalence._carries
        for mod in (equivalence, point_group):
            monkeypatch.setattr(mod, "_carries", lambda a, offsets, qs: (
                calls.append((a, offsets, qs)) or carries(a, offsets, qs)))
        run()
        monkeypatch.undo()
        return calls

    def assert_all_same(self, calls):
        passed = [self.assert_same(*call) for call in calls]
        assert any(p.any() for p in passed)
        return passed

    @pytest.mark.parametrize("name, h", STOCK_PATCHES)
    def test_stock_analyze_stacks(self, name, h, monkeypatch):
        # the class loop at 2R and 4R, the stabilizers and the criterion's
        # verification of the analyze_regular benchmark's patches
        build, R = LATTICES[name]
        patch = build([-h] * 3, [h] * 3)
        calls = self.recorded(monkeypatch, lambda: classify_scenario(patch, R))
        self.assert_all_same(calls)

    @pytest.mark.parametrize("test, args", [
        pytest.param(test, args, id="-".join(map(str, (test[5:], *args))))
        for test, args in (
            *(("test_lattices", (name, k)) for name in LATTICES for k in (2, 4)),
            *(("test_rotated_lattices", (name, 0)) for name in LATTICES),
            *(("test_z3_with_hole", (rho,)) for rho in (1.0, 1.5, 2.0, 2.5)),
            *(("test_periodic_with_displaced_site", (rho,)) for rho in (1.6, 2.2)))])
    def test_class_loop_oracle_stacks(self, test, args, monkeypatch):
        calls = self.recorded(
            monkeypatch, lambda: getattr(TestClassLoopOracle(), test)(*args))
        self.assert_all_same(calls)

    @pytest.mark.parametrize("name", named_group_generators())
    def test_motif_orbits(self, name, monkeypatch):
        # _closure's and _matrix_table's orbits: Oh's 79 points lie within
        # 0.08 of the origin and 8.7e-3 apart
        gens = named_group_generators()[name]
        calls = self.recorded(monkeypatch, lambda: point_group.schoenflies_from_matrices(
            point_group.group_from_generators(gens).elements))
        assert len(calls) == 2
        assert all(p.all() for p in self.assert_all_same(calls))

    @pytest.mark.parametrize("name", LATTICES)
    def test_one_offset_per_cell_on_packing_valid_clusters(self, name):
        # a cell of side 1/2 holds at most one point at unit spacing, so
        # each moved point meets one candidate; the index holds m keys
        _, R = LATTICES[name]
        patch = rotated_lattice(name, 0, 6.0)
        assert patch.packing_ok
        for rho in (2 * R, 4 * R):
            a = dl.cluster(patch, patch.usable_centers(rho)[0], rho)
            index = a.offset_index
            assert index.depth == 1
            assert index.keys.shape == index.order.shape == (len(a),)

    def test_offsets_1e8_apart(self):
        a, b = TestCarries.A, TestCarries.B
        qs = np.stack([np.eye(3), np.diag([1.0, 1.0, -1.0]),
                       rotation_matrix([0, 0, 1], np.pi / 2)])
        self.assert_same(a, np.stack([a.offsets, b, a.offsets[::-1]]), np.eye(3))
        self.assert_same(a, a.offsets, qs)
        self.assert_same(a, b, qs)

    @pytest.mark.parametrize("rho", [1.0, 2.0, 3.0])
    def test_lattice_offsets_on_grid_lines(self, rho):
        # integer offsets sit on the unshifted grid's faces; moved by the
        # cube's 48 maps, and each point then by 0.5, 0.99, 1.01 and 3
        # times the match tolerance in a random direction
        pts = dl.cubic_lattice([-3] * 3, [3] * 3).points
        a = Cluster(center=[0, 0, 0], radius=rho,
                    members=pts[np.linalg.norm(pts, axis=1) <= rho])
        cube = point_group.stabilizer(a).elements
        assert self.assert_same(a, a.offsets, np.array(cube)).all()
        rng = np.random.default_rng(int(rho))
        tol = equivalence.match_tolerance(rho)
        for k in (0.5, 0.99, 1.01, 3.0):
            step = rng.normal(size=(8, len(a), 3))
            step *= k * tol / np.linalg.norm(step, axis=2, keepdims=True)
            step[::2, 1:] = 0.0  # even rows move one point only
            got = self.assert_same(a, a.offsets[::-1] + step, np.eye(3))
            assert got.all() == (k < 1)

    def test_empty_cluster(self):
        a = Cluster(center=[0, 0, 0], radius=1.0, members=np.empty((0, 3)))
        assert self.assert_same(a, a.offsets, np.eye(3)[None]).all()
        assert not self.assert_same(a, np.zeros((2, 1, 3)), np.eye(3)).any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_offsets_closer_than_the_tolerance(self, seed):
        # 16 offsets in a 2e-6 cube share cells of side 4 m tol; each row
        # moves every point by up to 0.9 tol
        rng = np.random.default_rng(seed)
        a = Cluster(center=[0, 0, 0], radius=1.0,
                    members=rng.uniform(-1e-6, 1e-6, size=(16, 3)))
        tol = equivalence.match_tolerance(1.0)
        step = rng.normal(size=(60, len(a), 3))
        step *= rng.uniform(0.0, 0.9 * tol, size=(60, len(a), 1)) / np.linalg.norm(
            step, axis=2, keepdims=True)
        self.assert_same(a, a.offsets + step, np.eye(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("far", [1e3, 1e20, 1e300])
    @pytest.mark.parametrize("members", [
        pytest.param(dl.cubic_lattice([-2] * 3, [2] * 3).points, id="lattice"),
        pytest.param(TestCarries.A.members, id="1e-8 apart")])
    def test_far_moved_points(self, far, members):
        a = Cluster(center=[0, 0, 0], radius=2.0, members=members)
        stack = np.stack([a.offsets] * 4)
        stack[0, 3] = [far, 0.0, 0.0]
        stack[1, :, 1] += far
        stack[2] *= -far
        assert self.assert_same(a, stack, np.eye(3)).tolist() == [
            False, False, False, True]


class TestMapsOracle:
    """The stacked map search against the recursive generator it
    replaced: every verified map, bit for bit and in the same order, and
    ``cluster_isometry`` takes the first."""

    @staticmethod
    def assert_same(a, b):
        want = maps_oracle(a, b)
        got, _ = equivalence._maps(a, b)
        assert got.shape == (len(want), 3, 3)
        assert all(np.array_equal(q, w) for q, w in zip(got, want))
        g = cluster_isometry(a, b)
        assert (g is None) == (not want)
        if want:
            assert np.array_equal(g.q, want[0])
        return len(want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", LATTICES)
    def test_rotated_lattices(self, name, seed):
        _, R = LATTICES[name]
        patch = rotated_lattice(name, seed, 6.0 if name == "c4v" else 4.5)
        _, (i, j) = patch.tree.query([0.0, 0.0, 0.0], k=2)
        for rho in (1.0, 1.5, 2 * R, 4 * R):
            a, b = (dl.cluster(patch, patch.points[k], rho) for k in (i, j))
            assert self.assert_same(a, b) > 0  # every lattice point alike

    def test_jittered(self):
        patch = jittered_cubic(4, 0)
        _, (i, j) = patch.tree.query([[0.0, 0.0, 0.0], [1.6, 0.0, 0.0]])
        for rho in (2.5, 2.9):
            a, b = (dl.cluster(patch, patch.points[k], rho) for k in (i, j))
            assert self.assert_same(a, a) == 1
            assert self.assert_same(a, b) == 0

    @pytest.mark.parametrize("rho", [1.0, 2.0, 3.0])
    def test_collinear_and_planar(self, rho):
        rng = np.random.default_rng(5)
        iso = Isometry(rotation_matrix([1.0, -2.0, 0.5], 0.7)
                       @ np.diag([1.0, -1.0, 1.0]), [0.4, 1.1, -2.0])
        line = Cluster(center=[0, 0, 0], radius=rho,
                       members=[[0, 0, z] for z in range(-int(rho), int(rho) + 1)])
        e1, e2 = np.array([1.0, 0.0, 0.0]), np.array([0.5, SQRT3 / 2, 0.0])
        pts = np.array([i * e1 + j * e2 for i in range(-4, 5)
                        for j in range(-4, 5)])
        plane = Cluster(center=[0, 0, 0], radius=rho,
                        members=pts[np.linalg.norm(pts, axis=1) <= rho + 1e-9])
        for a, dim in ((line, 1), (plane, 2)):
            assert a.affine_dimension() == dim
            b = transported(a, iso)
            assert self.assert_same(a, a) > 1
            assert self.assert_same(a, b) > 1
            c = transported(a, random_isometry(rng))
            assert self.assert_same(b, c) > 1


class TestClusterClasses:
    def test_z3_single_class_at_2R(self, z3_patch):
        dec = cluster_classes(z3_patch, SQRT3)
        assert dec.N == 1
        # representative is the lexicographically smallest usable center
        rep = dec.class_representatives[0]
        usable = z3_patch.usable_centers(SQRT3)
        assert np.allclose(rep.center, usable[0])

    def test_c4v_single_class_at_2R(self, c4v_patch):
        dec = cluster_classes(c4v_patch, 2 * np.sqrt(1.5))
        assert dec.N == 1

    def test_z3_with_hole_two_classes(self):
        pts = [[x, y, z] for x in range(-4, 5) for y in range(-4, 5)
               for z in range(-4, 5) if (x, y, z) != (0, 0, 0)]
        p = dl.PointPatch(pts, [-4, -4, -4], [4, 4, 4])
        dec = cluster_classes(p, 1.0)
        assert dec.N == 2
        sizes = sorted(len(rep) for rep in dec.class_representatives)
        assert sizes == [6, 7]  # hole neighbors lost one member

    def test_no_usable_centers(self, z3_patch):
        with pytest.raises(NoUsableCenters):
            cluster_classes(z3_patch, 10.0)

    def test_N_one_below_unit_distance(self, z3_patch):
        for rho in (0.3, 0.6, 0.95):
            assert cluster_classes(z3_patch, rho).N == 1

    @pytest.mark.parametrize("sigma", [1e-12, 1e-11])
    @pytest.mark.parametrize("s", [1.0000005, 1.0000025])
    def test_noisy_scaled_lattice_single_class(self, z3_patch, s, sigma):
        # Equal profiles on either side of a 6-decimal rounding boundary:
        # the class loop must compare them as cluster_isometry does.
        rng = np.random.default_rng(1)
        pts = z3_patch.points * s + rng.normal(scale=sigma, size=(len(z3_patch), 3))
        p = dl.PointPatch(pts, [-4 * s - 0.01] * 3, [4 * s + 0.01] * 3)
        for rho in (1.1 * s, 1.5 * s):
            assert cluster_classes(p, rho).N == 1

    @pytest.mark.parametrize("lattice, rho", [
        pytest.param("z3", 1.5, id="z3-1.5"),
        pytest.param("c4v", 2 * np.sqrt(1.5), id="c4v-2R"),
        pytest.param("c4v", 4 * np.sqrt(1.5), id="c4v-4R")])
    def test_one_cell_index_per_representative(self, lattice, rho, monkeypatch):
        # maps are verified against the representative's cached cell
        # index: none is built per center, nor for the second cluster of
        # the c4v layers' frame search
        built = []
        index = delone_core._CellIndex
        monkeypatch.setattr(delone_core, "_CellIndex",
                            lambda *args: built.append(1) or index(*args))
        build, _ = LATTICES[lattice]
        dec = cluster_classes(build([-6] * 3, [6] * 3), rho)
        assert dec.N == 1 and len(dec.assignment) > 1
        assert 0 < len(built) <= dec.N

    def test_one_frame_search_per_orientation(self, z3_patch, monkeypatch):
        # a verified linear part is reused for every later center of its
        # class: Z^3 needs none beyond the identity, the c4v layers one
        calls = []
        maps = equivalence._maps
        monkeypatch.setattr(equivalence, "_maps",
                            lambda a, b: calls.append(1) or maps(a, b))
        assert cluster_classes(z3_patch, SQRT3).N == 1
        assert calls == []
        c4v = dl.c4v_example([-6] * 3, [6] * 3)
        dec = cluster_classes(c4v, 2 * np.sqrt(1.5))
        assert dec.N == 1 and len(dec.assignment) == 196
        assert calls == [1]

    def test_one_frame_search_c4v_4R(self, monkeypatch):
        # at 4R the c4v layers still need one frame search in all
        calls = []
        maps = equivalence._maps
        monkeypatch.setattr(equivalence, "_maps",
                            lambda a, b: calls.append(1) or maps(a, b))
        c4v = dl.c4v_example([-6] * 3, [6] * 3)
        dec = cluster_classes(c4v, 4 * np.sqrt(1.5))
        assert dec.N == 1 and len(dec.assignment) > 1
        assert calls == [1]

    @pytest.mark.parametrize("rho", [2.9, 5.8])  # 2R and 4R, R near 1.45
    def test_generic_builds_no_cluster(self, rho, monkeypatch):
        # every jittered profile sum stands alone in its member-count
        # group, so no center is verified and no Cluster is built until
        # the representatives are read; the first read builds them all
        calls, built = [], []
        maps = equivalence._maps
        monkeypatch.setattr(equivalence, "_maps",
                            lambda a, b: calls.append(1) or maps(a, b))
        monkeypatch.setattr(equivalence, "Cluster",
                            lambda *a: built.append(1) or Cluster(*a))
        patch = jittered_cubic(5, 0)
        dec = cluster_classes(patch, rho)
        assert dec.N == len(dec.assignment) > 3
        assert calls == [] and built == []
        reps = dec.class_representatives
        assert len(built) == dec.N
        assert dec.class_representatives is reps
        assert reps[0] is reps[0] and reps[-1] is reps[dec.N - 1]
        assert np.array_equal(reps[0].center, patch.usable_centers(rho)[0])
        with pytest.raises(IndexError):
            reps[dec.N]
        assert [r.center.tolist() for r in reps] == [
            list(c) for c in sorted(dec.assignment, key=dec.assignment.get)]
        assert len(built) == dec.N and reps[1:3] == [reps[1], reps[2]]

    def test_assignment_covers_all_usable_centers(self, z3_patch):
        dec = cluster_classes(z3_patch, 1.5)
        assert len(dec.assignment) == len(z3_patch.usable_centers(1.5))
        assert set(dec.assignment.values()) == set(range(dec.N))


class TestClassLoopOracle:
    """The batched, learned-parts class loop against the loop that called
    ``cluster`` and ``cluster_isometry`` once per center."""

    @staticmethod
    def assert_same(patch, rho):
        dec = cluster_classes(patch, rho)
        assignment, rep_centers = cluster_classes_oracle(patch, rho)
        assert dec.assignment == assignment
        assert [tuple(rep.center) for rep in dec.class_representatives] == rep_centers
        for rep in dec.class_representatives:
            want = dl.cluster(patch, rep.center, rho)
            assert rep.radius == want.radius
            assert np.array_equal(rep.members, want.members)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("name", LATTICES)
    def test_lattices(self, name, k):
        build, R = LATTICES[name]
        h = 4 if k == 2 else 6
        self.assert_same(build([-h] * 3, [h] * 3), k * R)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", LATTICES)
    def test_rotated_lattices(self, name, seed):
        _, R = LATTICES[name]
        h = 6.0 if name == "c4v" else 4.5  # c4v's 4R is 4.9
        patch = rotated_lattice(name, seed, h)
        for k in (2, 4):
            self.assert_same(patch, k * R)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jittered(self, seed):
        patch = jittered_cubic(4, seed)
        for rho in (2.9, 5.8):  # 2R and 4R, with R near 1.45
            self.assert_same(patch, rho)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_jittered_file_round_trip(self, seed, tmp_path):
        # coordinates rounded to the file's ten significant digits
        path = tmp_path / "jitter.xyz"
        save_patch(jittered_cubic(4, seed), path)
        patch = load_patch(path)
        for rho in (2.9, 5.8):
            self.assert_same(patch, rho)

    @pytest.mark.parametrize("rho", [1.6, 2.2])
    def test_periodic_with_displaced_site(self, rho):
        # the same three jittered sites in every cubic cell of edge 2, and
        # one site moved off its lattice: translation classes and the
        # singletons around the moved site share member-count groups
        rng = np.random.default_rng(7)
        basis = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        basis += rng.uniform(-0.2, 0.2, size=basis.shape)
        cells = 2.0 * np.array([[x, y, z] for x in range(-4, 4)
                                for y in range(-4, 4) for z in range(-4, 4)])
        pts = (cells[:, None] + basis).reshape(-1, 3)
        pts = pts[np.all(np.abs(pts) <= 5.5, axis=1)]
        pts[np.argmin(np.linalg.norm(pts, axis=1))] += [0.05, -0.03, 0.02]
        patch = dl.PointPatch(pts, [-5.5] * 3, [5.5] * 3)
        self.assert_same(patch, rho)
        dec = cluster_classes(patch, rho)
        sizes = np.bincount(list(dec.assignment.values()))
        members = np.array([len(r) for r in dec.class_representatives])
        assert set(members[sizes == 1]) & set(members[sizes > 1])

    @pytest.mark.parametrize("rho", [1.0, 1.5, 2.0, 2.5])
    def test_z3_with_hole(self, rho):
        # the hole seen from centers in every direction: classes of equal
        # member count, joined by rotations the frame search must find
        pts = [[x, y, z] for x in range(-4, 5) for y in range(-4, 5)
               for z in range(-4, 5) if (x, y, z) != (0, 0, 0)]
        self.assert_same(dl.PointPatch(pts, [-4] * 3, [4] * 3), rho)

    def test_negative_radius(self, z3_patch):
        with pytest.raises(ValueError, match="non-negative"):
            cluster_classes(z3_patch, -1.0)

    # patches on which the profile prefixes settle some centers and leave
    # the others to the sweep

    @staticmethod
    def assert_mixed(patch, rho):
        centers = patch.usable_centers(rho)
        settled = equivalence._settled(patch, centers, rho)
        assert settled.any() and not settled.all()

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("m, core, rho", [(4, 1, 2.9), (5, 2, 2.9), (5, 2, 4.0)])
    def test_jittered_with_exact_core(self, m, core, rho, seed):
        # the sites |k| <= core back on the lattice: the centers whose
        # balls stay in that block form one class, and their neighbours
        # share the exact prefix (0, 1.6, 1.6)
        patch = jittered_cubic(m, seed)
        sites = dl.cubic_lattice((-m,) * 3, (m,) * 3).points
        exact = np.abs(sites).max(axis=1) <= core
        pts = patch.points.copy()
        pts[exact] = 1.6 * sites[exact]
        patch = dl.PointPatch(pts, patch.box_lo, patch.box_hi)
        self.assert_mixed(patch, rho)
        self.assert_same(patch, rho)

    @pytest.mark.parametrize("rho", [1.0, 1.5, 2.0])
    def test_z3_with_displaced_point(self, rho):
        # the centers around (1, 0, 0) see it at new distances; the rest
        # keep the lattice prefix (0, 1, 1)
        pts = dl.cubic_lattice([-4] * 3, [4] * 3).points.copy()
        pts[np.flatnonzero((pts == [1, 0, 0]).all(axis=1))] += [0.05, -0.03, 0.02]
        patch = dl.PointPatch(pts, [-4] * 3, [4] * 3)
        self.assert_mixed(patch, rho)
        self.assert_same(patch, rho)

    @given(amplitude=st.sampled_from([1e-9, 1e-6, 1e-3, 0.15]),
           seed=st.integers(0, 2**16), rho=st.sampled_from([1.7, 2.9]))
    @example(amplitude=1e-9, seed=0, rho=2.9)
    @example(amplitude=1e-6, seed=0, rho=1.7)
    @example(amplitude=1e-3, seed=0, rho=2.9)
    @example(amplitude=0.15, seed=0, rho=1.7)
    @settings(max_examples=8, deadline=None)
    def test_jitter_amplitudes(self, amplitude, seed, rho):
        # 1e-6 per axis moves distances by about the profile tolerance
        # (4e-7 rho), so prefixes fall on both sides of the window
        self.assert_same(jittered_cubic(3, seed, amplitude=amplitude), rho)


class _RecordingTree:
    """A patch's KD tree that records how many centers each batched ball
    query is asked for."""

    def __init__(self, tree):
        self.tree, self.batched = tree, []

    def query_ball_point(self, x, *args, **kwargs):
        if np.ndim(x) == 2:
            self.batched.append(len(x))
        return self.tree.query_ball_point(x, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.tree, name)


def _loop_profile_starts(patch, rho):
    """The first three sorted profile entries of each usable center, as
    the class loop computes them (NaN rows for clusters of fewer than
    three members)."""
    centers = patch.usable_centers(rho)
    balls = patch.tree.query_ball_point(centers, rho + patch.geom_tol,
                                        return_sorted=False)
    counts = np.array([len(b) for b in balls])
    starts = np.full((len(centers), 3), np.nan)
    for m in np.unique(counts[counts >= 3]):
        ids = np.flatnonzero(counts == m)
        offsets = (patch.points[np.concatenate(balls[ids])].reshape(-1, m, 3)
                   - centers[ids, None])
        starts[ids] = np.sort(np.linalg.norm(offsets, axis=2), axis=1)[:, :3]
    return centers, starts


class TestSettledCenters:
    """Centers whose profile prefixes have no partner are settled before
    any ball is extracted; the class loop extracts only the others."""

    @staticmethod
    def recorded(monkeypatch, patch, rho):
        tree = _RecordingTree(patch.tree)
        monkeypatch.setattr(patch, "_tree", tree)
        dec = cluster_classes(patch, rho)
        return dec, tree.batched

    @staticmethod
    def assert_as_unsettled(patch, rho):
        # the classes, representatives and members of the loop that
        # settles no center before extracting its ball
        dec = cluster_classes(patch, rho)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(equivalence, "_settled",
                      lambda patch, centers, rho: np.zeros(len(centers), dtype=bool))
            want = cluster_classes(patch, rho)
        assert dec.assignment == want.assignment
        for got, rep in zip(dec.class_representatives, want.class_representatives,
                            strict=True):
            assert np.array_equal(got.center, rep.center)
            assert np.array_equal(got.members, rep.members)
        return dec

    @given(amplitude=st.sampled_from([1e-9, 1e-7, 3e-7, 1e-6, 1e-3]),
           seed=st.integers(0, 2**16), rho=st.sampled_from([1.7, 2.9]))
    @example(amplitude=1e-7, seed=0, rho=1.7)
    @settings(max_examples=10, deadline=None)
    def test_settling_changes_no_class(self, amplitude, seed, rho):
        # at 1e-7 and 3e-7 per axis, equivalent clusters' prefixes differ
        # by a good part of the profile window
        self.assert_as_unsettled(jittered_cubic(3, seed, amplitude=amplitude), rho)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partner_prefixes_apart_by_most_of_a_match(self, seed):
        # two copies of a jittered block, 20 apart; in the second the two
        # nearest neighbours of the middle site move outward by 0.9
        # match_tolerance, so the middle clusters' prefixes differ by that
        # much in two entries, and the translation still carries one onto
        # the other
        rho = 1.7
        block = jittered_cubic(2, seed).points
        mid = np.argmin(np.linalg.norm(block, axis=1))
        copy = block + [20.0, 0.0, 0.0]
        d = block - block[mid]
        near = np.argsort(np.linalg.norm(d, axis=1))[1:3]
        copy[near] += (0.9 * equivalence.match_tolerance(rho) * d[near]
                       / np.linalg.norm(d[near], axis=1, keepdims=True))
        patch = dl.PointPatch(np.vstack([block, copy]), [-3.6, -3.6, -3.6],
                              [23.6, 3.6, 3.6])
        dec = self.assert_as_unsettled(patch, rho)
        pair = np.array([block[mid], copy[mid]])
        assert dec.assignment[tuple(pair[0])] == dec.assignment[tuple(pair[1])]
        assert not equivalence._settled(patch, pair, rho).any()

    @pytest.mark.parametrize("seed, rho, swept", [
        (0, 2.9, 4), (0, 5.8, 0), (1, 2.9, 0), (1, 5.8, 0), (2, 2.9, 6),
        (2, 5.8, 0)])
    def test_generic_extracts_only_open_centers(self, seed, rho, swept,
                                                monkeypatch):
        patch = jittered_cubic(5, seed)
        dec, batched = self.recorded(monkeypatch, patch, rho)
        centers = patch.usable_centers(rho)
        assert len(centers) - equivalence._settled(patch, centers, rho).sum() == swept
        assert batched == ([swept] if swept else [])
        assert dec.N == len(dec.assignment) == len(centers)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("name, h", STOCK_PATCHES)
    def test_stock_lattices_extract_every_center(self, name, h, k, monkeypatch):
        # a lone usable center (z3 and hex_bilattice +-4 at 4R) is the one
        # a lattice settles: it has no other prefix to match
        build, R = LATTICES[name]
        patch = build([-h] * 3, [h] * 3)
        n = len(patch.usable_centers(k * R))
        dec, batched = self.recorded(monkeypatch, patch, k * R)
        assert dec.N == 1
        assert batched == ([n] if n > 1 else [])

    @pytest.mark.parametrize("patch, rho, at_build", [
        pytest.param(lambda: jittered_cubic(5, 1), 2.9, 0, id="jittered-2R"),
        pytest.param(lambda: jittered_cubic(5, 1), 5.8, 0, id="jittered-4R"),
        pytest.param(lambda: dl.c4v_example([-6] * 3, [6] * 3),
                     2 * np.sqrt(1.5), 1, id="c4v-2R")])
    def test_representatives_read_in_one_ball_query(self, patch, rho,
                                                    at_build, monkeypatch):
        # N and the assignment query no ball; the settled representatives'
        # balls are queried together on the first read, and the swept
        # ones are not queried again
        calls = []
        members = equivalence._ball_members
        monkeypatch.setattr(equivalence, "_ball_members",
                            lambda *a: calls.append(1) or members(*a))
        patch = patch()
        dec = cluster_classes(patch, rho)
        assert dec.N >= 1 and len(dec.assignment) >= dec.N
        assert len(calls) == at_build
        first, last = dec.class_representatives[0], dec.class_representatives[-1]
        assert len(calls) == 1
        assert first is dec.class_representatives[0]
        assert last is dec.class_representatives[dec.N - 1]
        for rep in dec.class_representatives:
            want = dl.cluster(patch, rep.center, rho)
            assert rep.members.tobytes() == want.members.tobytes()

    @pytest.mark.parametrize("name", ["z3", "hex", "c4v", "hex_bilattice",
                                      "jittered"])
    def test_prefix_is_the_profile_start(self, name):
        if name == "jittered":
            patch, R = jittered_cubic(5, 0), 1.45
        else:
            build, R = LATTICES[name]
            patch = build([-6] * 3, [6] * 3)
        for rho in (1.7, 2 * R, 4 * R):
            centers, starts = _loop_profile_starts(patch, rho)
            full = ~np.isnan(starts[:, 0])
            assert full.any()
            prefix = equivalence._prefixes(patch, centers)
            assert np.array_equal(prefix[full], starts[full])

    def test_radius_zero(self, z3_patch_small):
        centers = z3_patch_small.usable_centers(0.0)
        assert not equivalence._settled(z3_patch_small, centers, 0.0).any()
        dec = cluster_classes(z3_patch_small, 0.0)
        assert dec.N == 1 and len(dec.assignment) == len(centers)
        TestClassLoopOracle.assert_same(z3_patch_small, 0.0)

    def test_two_point_patch(self, monkeypatch):
        # no third point to query: nothing is settled, both are swept
        patch = dl.PointPatch([[0, 0, 0], [1, 0, 0]], [-1.5] * 3, [2.5] * 3)
        dec, batched = self.recorded(monkeypatch, patch, 1.0)
        assert batched == [2] and dec.N == 1
        assert [len(r) for r in dec.class_representatives] == [2]
        TestClassLoopOracle.assert_same(patch, 1.0)


class TestProfilePrefilter:
    """The profile-sum prefilter of the class loop rules out only rows
    that the profile test would reject against every other row."""

    @given(m=st.integers(1, 400), rho=st.floats(0.0, 60.0),
           seed=st.integers(0, 2**32 - 1), exact=st.booleans(),
           extra=st.integers(0, 6))
    @example(m=1, rho=0.0, seed=0, exact=True, extra=0)
    @example(m=400, rho=60.0, seed=1, exact=True, extra=3)
    @settings(max_examples=300, deadline=None)
    def test_never_separates_a_matching_pair(self, m, rho, seed, exact, extra):
        rng = np.random.default_rng(seed)
        t = _profile_tolerance(rho)
        a = np.sort(rng.uniform(0.0, rho + 1.0, size=m))
        a[0] = 0.0  # the center's own distance
        sign = np.where(a < t, 1.0, rng.choice([-1.0, 1.0], size=m))
        b = a + sign * (t if exact else rng.uniform(0.0, t, size=m))
        while not _profiles_match(b, a, rho):  # back off by ulps to the bound
            b = np.where(np.abs(b - a) > t, np.nextafter(b, a), b)
        rows = np.vstack([a, b, np.sort(rng.uniform(0.0, rho + 1.0,
                                                    size=(extra, m)), axis=1)])
        order = rng.permutation(len(rows))
        near = _profile_partners(rows[order], rho)
        assert near[np.argsort(order)[:2]].all()

    @pytest.mark.parametrize("m", [1, 50, 400])
    def test_exact_bound_from_zero(self, m):
        # every entry differs by exactly t, so the sums by m t
        t = _profile_tolerance(3.0)
        rows = np.array([np.zeros(m), np.full(m, t)])
        assert _profiles_match(rows[1], rows[0], 3.0)
        assert _profile_partners(rows, 3.0).all()

    def test_rules_out_a_sum_gap(self):
        a = np.linspace(0.0, 3.0, 40)
        t = _profile_tolerance(3.0)
        assert not _profile_partners(np.array([a, a + 2 * t]), 3.0).any()
        assert _profile_partners(np.array([a, a + 2 * t, a]), 3.0).tolist() == [
            True, False, True]

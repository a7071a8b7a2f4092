"""Cluster equivalence and the cluster-counting function."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import delone_local as dl
from delone_local import equivalence
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

from conftest import (
    LATTICES,
    cluster_classes_oracle,
    jittered_cubic,
    maps_oracle,
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

    def test_one_kd_tree_per_representative(self, z3_patch, monkeypatch):
        # maps are verified against the representative's cached tree, so
        # no tree is built per cluster_isometry call
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return cKDTree(*args, **kwargs)

        for mod in vars(dl).values():
            if getattr(mod, "cKDTree", None) is cKDTree:
                monkeypatch.setattr(mod, "cKDTree", counting)
        dec = cluster_classes(z3_patch, 1.5)
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
        # a representative is read
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
        assert reps[0] is reps[0] and len(built) == 1
        assert reps[-1] is reps[dec.N - 1] and len(built) == 2
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

"""Cluster stabilizers, Schoenflies classification, and subgroup towers."""
import sys
from pathlib import Path

import numpy as np
import pytest

import delone_local as dl
from delone_local import delone_core, geometry, point_group
from delone_local.equivalence import _maps, match_tolerance
from delone_local.errors import (
    DeloneError,
    GroupTooLarge,
    LowerDimensionalCluster,
    NotAGroup,
    UnrecognizedGroup,
)
from delone_local.geometry import (
    classify_element,
    reflection_matrix,
    rotation_matrix,
)
from delone_local.point_group import (
    PointGroup,
    SchoenfliesLabel,
    group_from_generators,
    omega,
    schoenflies_from_matrices,
    stabilizer,
    tower_height,
)
from delone_local.regularity import local_criterion

from conftest import (
    C2_X,
    LATTICES,
    SIGMA_H,
    SIGMA_V,
    _check_group,
    classify_element_oracle,
    closure_oracle,
    cn_gen,
    element_key,
    element_kinds_oracle,
    greedy_frame_oracle,
    jittered_cubic,
    label_oracle,
    maps_oracle,
    named_group_generators,
    signed_permutations,
    rotated_lattice,
    same_kinds,
    sn_gen,
    tower_height_oracle,
    z3_missing_site,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SQRT3 = np.sqrt(3.0)

EXPECTED_ORDERS = {
    "C1": 1, "S1": 2, "S2": 2, "S3": 6, "S4": 4, "S5": 10, "S6": 6,
    "S8": 8, "S10": 10, "S12": 12,
    "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6,
    "C2v": 4, "C3v": 6, "C4v": 8, "C5v": 10, "C6v": 12,
    "C2h": 4, "C4h": 8, "C6h": 12,
    "D2": 4, "D3": 6, "D4": 8, "D5": 10, "D6": 12,
    "D2h": 8, "D3h": 12, "D4h": 16, "D5h": 20, "D6h": 24,
    "D2d": 8, "D3d": 12, "D4d": 16, "D5d": 20, "D6d": 24,
    "T": 12, "Td": 24, "Th": 24, "O": 24, "Oh": 48, "I": 60, "Ih": 120,
}


class TestStabilizer:
    def test_z3_full_octahedral(self, z3_patch):
        c = dl.cluster(z3_patch, [0, 0, 0], 1.0)
        g = stabilizer(c)
        assert str(g.label) == "Oh"
        assert g.order == 48
        # oracle: the 48 signed permutation matrices, exactly
        keys = {element_key(m) for m in g.elements}
        oracle = {element_key(m) for m in signed_permutations()}
        assert keys == oracle

    def test_hex_d6h(self, hex_patch):
        c = dl.cluster(hex_patch, [0, 0, 0], 1.0)
        g = stabilizer(c)
        assert str(g.label) == "D6h"
        assert g.order == 24
        oracle = closure_oracle(named_group_generators()["D6h"])
        assert {element_key(m) for m in g.elements} == \
            {element_key(m) for m in oracle}

    def test_c4v_example(self, c4v_patch):
        c = dl.cluster(c4v_patch, [0, 0, 1], np.sqrt(1.5))
        g = stabilizer(c)
        assert str(g.label) == "C4v"
        assert g.order == 8

    def test_antiprism_d4d(self):
        a = b = 1 / np.sqrt(2)
        pts = dl.antiprism_points(a, b)
        patch = dl.antiprism_patch(a, b)
        c = dl.cluster(patch, [0, 0, 0], 1.0 + 1e-6)
        assert len(c) == 9
        g = stabilizer(c)
        assert str(g.label) == "D4d"
        assert g.order == 16
        assert pts.shape == (8, 3)

    def test_frame_window_growth(self, layered_square_patch):
        # the 12 offsets nearest the center are coplanar, so the frame
        # search must widen its window to find a third direction
        c = dl.cluster(layered_square_patch, [0, 0, 0], 3.0)
        offs = c.offsets[np.argsort(np.linalg.norm(c.offsets, axis=1))][1:13]
        assert np.linalg.matrix_rank(offs) == 2
        g = stabilizer(c)
        assert str(g.label) == "D4h"
        assert g.order == 16
        # oracle: the signed permutations that keep the layer normal z
        oracle = {element_key(m) for m in signed_permutations() if m[2, 2] != 0}
        assert {element_key(m) for m in g.elements} == oracle

    def test_lower_dimensional_raises(self):
        pts = [[0, 0, z] for z in range(-3, 4)]
        p = dl.PointPatch(pts, [-4, -4, -4], [4, 4, 4])
        with pytest.raises(LowerDimensionalCluster):
            stabilizer(dl.cluster(p, [0, 0, 0], 1.0))

    def test_monotone_in_rho(self, z3_patch):
        # stabilizer can only shrink (as a set) when rho grows
        small = stabilizer(dl.cluster(z3_patch, [0, 0, 0], SQRT3))
        large = stabilizer(dl.cluster(z3_patch, [0, 0, 0], 2 * SQRT3))
        k_small = {element_key(m) for m in small.elements}
        k_large = {element_key(m) for m in large.elements}
        assert k_large <= k_small

    def test_conjugacy_under_isometry(self, z3_patch):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        c = dl.cluster(z3_patch, [0, 0, 0], 1.0)
        moved = dl.Cluster(center=c.center @ q.T + 2.0,
                           radius=c.radius, members=c.members @ q.T + 2.0)
        g0 = stabilizer(c)
        g1 = stabilizer(moved)
        assert g1.order == g0.order
        k1 = {element_key(m) for m in g1.elements}
        k0c = {element_key(q @ m @ q.T) for m in g0.elements}
        assert k1 == k0c

    @pytest.mark.parametrize("sigma", [3e-9, 1e-8])
    def test_noisy_z3_is_oh_or_raises(self, z3_patch, sigma):
        # coordinate noise far below the element tolerance: the label is
        # right or the verified maps fail the group check, never a wrong
        # label and never an unrecognized group; and the matrix product
        # table on the same elements gives the same label, or raises too
        def outcome(make):
            try:
                return str(make().label)
            except DeloneError as e:
                return type(e).__name__

        outcomes = []
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            pts = z3_patch.points + rng.normal(scale=sigma, size=z3_patch.points.shape)
            # trusted on the box grown by 1e-6, which holds every noisy point
            p = dl.PointPatch(pts, z3_patch.box_lo - 1e-6, z3_patch.box_hi + 1e-6)
            x0 = pts[np.argmin(np.linalg.norm(pts, axis=1))]
            for rho in (1.0 + 1e-6, 1.5):
                c = dl.cluster(p, x0, rho)
                got = outcome(lambda: stabilizer(c))
                want = outcome(lambda: PointGroup(c.center, tuple(_maps(c, c)[0])))
                assert got == want or not {got, want} & set(EXPECTED_ORDERS), \
                    (got, want)
                outcomes.append(got)
        assert set(outcomes) <= {"Oh", "NotAGroup"}, outcomes
        if sigma == 3e-9:
            assert outcomes == ["Oh"] * 10


class TestStabilizerOracle:
    """The stacked map search and the one-pass kind reader against the
    recursive generator and the per-element classifier they replaced:
    the same elements, bit for bit and in the same order, and the same
    kinds; and the product table composed from the verified index rows
    against the matrix table on the same elements."""

    @staticmethod
    def assert_same(c):
        want = maps_oracle(c, c)
        if c.affine_dimension() < 3:  # a planar cluster's maps, no group
            got, _ = _maps(c, c)
            assert len(got) == len(want) > 0
            assert all(np.array_equal(q, w) for q, w in zip(got, want))
            return
        g = stabilizer(c)
        assert len(g.elements) == len(want)
        assert all(np.array_equal(q, w) for q, w in zip(g.elements, want))
        assert same_kinds(g.kinds, element_kinds_oracle(want))
        assert_composed_table_is_matrix_table(c)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", LATTICES)
    def test_rotated_lattices(self, name, seed):
        _, R = LATTICES[name]
        patch = rotated_lattice(name, seed, 6.0 if name == "c4v" else 4.5)
        center = patch.points[patch.tree.query([0.0, 0.0, 0.0])[1]]
        for rho in (1.0, 1.5, 2 * R, 4 * R):
            self.assert_same(dl.cluster(patch, center, rho))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_jittered(self, seed):
        patch = jittered_cubic(4, seed)
        center = patch.points[patch.tree.query([0.0, 0.0, 0.0])[1]]
        for rho in (2.5, 2.9, 5.8):
            self.assert_same(dl.cluster(patch, center, rho))


def assert_composed_table_is_matrix_table(c):
    """The stabilizer's integer table equals the matrix table (products
    matched as 9-vectors) of its elements; returns the stabilizer."""
    g = stabilizer(c)
    table = point_group._composed_table(c, _maps(c, c)[1])
    assert np.array_equal(table, _check_group(np.array(g.elements)))
    return g


class TestComposedTable:
    """The stabilizer's product table is composed in integers from the
    index rows of map verification, and the criterion's witness group
    too: no element is matched as a float."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_group_cases_match_matrix_table(self, seed):
        # the cases of the benchmark's groups workload, built as it builds
        # them: randomly rotated Oh, D6h, C4v and C1 clusters
        rng = np.random.default_rng([seed, 1])
        sources = workloads.group_sources(rng)
        q = workloads.random_rotation(rng)
        for case in workloads.GROUP_CASES:
            src = sources[case.source]
            center = q @ src.points[src.tree.query(case.center)[1]]
            c = dl.cluster(workloads.rotated(src, q), center, case.rho)
            g = assert_composed_table_is_matrix_table(c)
            assert (str(g.label), g.order) == case.want[:2]

    @pytest.fixture
    def no_float_match(self, monkeypatch):
        def no_match(*args):
            raise AssertionError("a group was keyed on a motif's orbit")

        monkeypatch.setattr(point_group, "_matrix_table", no_match)

    def test_stabilizer_matches_no_float(self, z3_patch, no_float_match):
        g = stabilizer(dl.cluster(z3_patch, [0, 0, 0], 1.5))
        assert (str(g.label), g.order) == ("Oh", 48)

    def test_criterion_witness_matches_no_float(self, no_float_match):
        v = local_criterion(z3_missing_site(), 1.5, SQRT3 / 2)
        assert not v.regular
        assert "order 48 (Oh)" in v.witness and "order 2 (S1)" in v.witness

    @pytest.fixture
    def oh(self, z3_patch):
        """The Z^3 1-cluster, its 48 index rows and which is the identity."""
        c = dl.cluster(z3_patch, [0, 0, 0], 1.0)
        rows = _maps(c, c)[1]
        return c, rows, (rows == np.arange(len(c))).all(axis=1)

    def test_row_leaving_the_set_is_not_closed(self, oh):
        c, rows, ident = oh
        drop = np.flatnonzero(~ident)[0]
        with pytest.raises(NotAGroup, match="closed"):
            point_group._composed_table(c, np.delete(rows, drop, axis=0))

    def test_duplicated_row_is_not_a_latin_square(self, oh):
        c, rows, ident = oh
        twin = rows[np.flatnonzero(~ident)[:1]]
        with pytest.raises(NotAGroup, match="duplicate"):
            point_group._composed_table(c, np.concatenate([rows, twin]))

    def test_missing_identity(self, oh):
        c, rows, ident = oh
        with pytest.raises(NotAGroup, match="identity"):
            point_group._composed_table(c, rows[~ident])


def axial_generators(family, n):
    """Generators of the axial family (C, S, Ch, Cv, D, Dh, Dd) at axis
    order n, principal axis z."""
    sigma_d = reflection_matrix([np.sin(np.pi / (2 * n)),
                                 -np.cos(np.pi / (2 * n)), 0.0])
    return {"C": [cn_gen(n)], "S": [sn_gen(n)], "Ch": [cn_gen(n), SIGMA_H],
            "Cv": [cn_gen(n), SIGMA_V], "D": [cn_gen(n), C2_X],
            "Dh": [cn_gen(n), C2_X, SIGMA_H],
            "Dd": [cn_gen(n), C2_X, sigma_d]}[family]


def group_case_clusters(seed):
    """The clusters of the benchmark's groups workload, built as it builds
    them: randomly rotated Oh, D6h, C4v and C1 clusters, with the label,
    order and tower height theory gives each."""
    rng = np.random.default_rng([seed, 1])
    sources = workloads.group_sources(rng)
    q = workloads.random_rotation(rng)
    for case in workloads.GROUP_CASES:
        src = sources[case.source]
        center = q @ src.points[src.tree.query(case.center)[1]]
        yield dl.cluster(workloads.rotated(src, q), center, case.rho), case.want


class TestGroupsHotPath:
    """The label, order and tower height of a stabilizer are counted
    without building an element kind, whose axes are built only when
    ``kinds`` is read; and cluster frames are the ones ``np.cross`` gave."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_no_kinds_are_built(self, seed, monkeypatch):
        def no_kinds(*args):
            raise AssertionError("an element kind was built")

        groups = []
        with monkeypatch.context() as m:
            m.setattr(point_group, "element_kinds", no_kinds)
            m.setattr(geometry, "_axis", no_kinds)
            for c, want in group_case_clusters(seed):
                g = stabilizer(c)
                assert (str(g.label), g.order, tower_height(g)) == want
                groups.append(g)
            for label in ("Oh", "D6h", "C4v", "C1"):
                g = group_from_generators(named_group_generators()[label])
                assert str(schoenflies_from_matrices(g.elements)) == str(g.label) == label
        assert {str(g.label) for g in groups} == {"Oh", "D6h", "C4v", "C1"}
        for g in groups:
            assert same_kinds(g.kinds, element_kinds_oracle(g.elements))
            assert g.kinds is g.kinds

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_frames_equal_the_np_cross_rule(self, seed, monkeypatch):
        for c, _ in group_case_clusters(seed):
            got = c.frame
            with monkeypatch.context() as m:
                m.setattr(delone_core, "_greedy_frame", greedy_frame_oracle)
                want = dl.Cluster(c.center, c.radius, c.members).frame
            assert got.tobytes() == want.tobytes()

    def test_planar_frames_equal_the_np_cross_rule(self, layered_square_patch,
                                                   monkeypatch):
        for rho in (1.0, 1.5, 2.0):
            c = dl.cluster(layered_square_patch, [0, 0, 0], rho)
            assert c.affine_dimension() == 2
            with monkeypatch.context() as m:
                m.setattr(delone_core, "_greedy_frame", greedy_frame_oracle)
                want = dl.Cluster(c.center, c.radius, c.members).frame
            assert c.frame.tobytes() == want.tobytes()


class TestSchoenflies:
    @pytest.mark.parametrize("label", sorted(EXPECTED_ORDERS))
    def test_named_groups(self, label):
        gens = named_group_generators()[label]
        g = group_from_generators(gens)
        assert g.order == EXPECTED_ORDERS[label]
        assert str(g.label) == label

    def test_conjugated_groups(self):
        # the label, the element set and the kinds of each conjugated
        # group, against the rounded-key closure and the per-element
        # classifier
        rng = np.random.default_rng(17)
        gens_map = named_group_generators()
        for label in sorted(gens_map):
            u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            gens = [u @ m @ u.T for m in gens_map[label]]
            g = group_from_generators(gens)
            assert str(g.label) == label, label
            assert {element_key(m) for m in g.elements} == \
                {element_key(m) for m in closure_oracle(gens)}, label
            assert same_kinds(g.kinds, element_kinds_oracle(g.elements)), label

    def test_aliases(self):
        # Cs and Ci are reported in the S-family; odd C_nh collapse to S_n
        sigma = np.diag([1.0, 1.0, -1.0])
        assert str(schoenflies_from_matrices([np.eye(3), sigma])) == "S1"
        assert str(schoenflies_from_matrices([np.eye(3), -np.eye(3)])) == "S2"
        g = group_from_generators([rotation_matrix([0, 0, 1], 2 * np.pi / 3), sigma])
        assert str(g.label) == "S3"

    def test_closure_across_rounding_boundary(self):
        # a half-turn whose (0, 0) entry sits on the 6-decimal rounding
        # boundary: its snapped copy must be matched to it, not added as
        # a third element
        theta = 0.5 * np.arccos(0.1234565)
        g = group_from_generators([rotation_matrix(
            [np.cos(theta), np.sin(theta), 0.0], np.pi)])
        assert g.order == 2
        assert str(g.label) == "C2"

    @staticmethod
    def _boundary_axes(n=240):
        # unit axes whose x-component sits on a 6-decimal rounding
        # boundary: the axes computed for R and R @ R round either way
        rng = np.random.default_rng(20261018)
        x = 0.1234565
        s = np.sqrt(1.0 - x * x)
        for phi in rng.uniform(0.0, 2.0 * np.pi, size=n):
            yield np.array([x, s * np.cos(phi), s * np.sin(phi)])

    def test_c3_axis_across_rounding_boundary(self):
        for axis in self._boundary_axes():
            r = rotation_matrix(axis, 2 * np.pi / 3)
            assert str(schoenflies_from_matrices([np.eye(3), r, r @ r])) == "C3"

    def test_c3v_axis_across_rounding_boundary(self):
        for axis in self._boundary_axes():
            r = rotation_matrix(axis, 2 * np.pi / 3)
            m = reflection_matrix(np.cross(axis, [0.0, 0.0, 1.0]))
            elements = [np.eye(3), r, r @ r, m, m @ r, m @ r @ r]
            assert str(schoenflies_from_matrices(elements)) == "C3v"

    def test_trivial_group(self):
        assert str(schoenflies_from_matrices([np.eye(3)])) == "C1"

    def test_not_a_group(self):
        r = rotation_matrix([0, 0, 1], 2 * np.pi / 5)
        with pytest.raises(NotAGroup):
            PointGroup(center=np.zeros(3), elements=(np.eye(3), r))
        with pytest.raises(NotAGroup):
            schoenflies_from_matrices([np.eye(3), r])

    def test_counts_of_no_group_raise(self):
        # counts no checked group can have: two mirrors and no rotation, and
        # five half-turns (p = 6, n = 2: neither C6 nor D3)
        for counts in ((3, 1, 1, 2, False), (6, 6, 2, 0, False)):
            with pytest.raises(UnrecognizedGroup):
                point_group._schoenflies(*counts)

    @pytest.mark.parametrize("label", sorted(EXPECTED_ORDERS))
    def test_element_kinds_match_angle_oracle(self, label, monkeypatch):
        # kind, order and axis from the product table (and from the
        # single-matrix power search) agree with the angle-based
        # classifier, element by element, and so does the label read off
        # them, which also equals the decision tree's (label_oracle); the
        # one-pass kinds equal the per-element reader's exactly
        rng = np.random.default_rng(sum(map(ord, label)))
        for _ in range(3):
            u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            g = group_from_generators(
                [u @ m @ u.T for m in named_group_generators()[label]])
            table_kinds = PointGroup(np.zeros(3), g.elements).kinds
            assert same_kinds(table_kinds, element_kinds_oracle(g.elements))
            for q, got in zip(g.elements, table_kinds):
                want = classify_element_oracle(q)
                for k in (got, classify_element(q)):
                    assert (k.kind, k.order) == (want.kind, want.order)
                    if want.axis is not None:
                        assert abs(abs(float(k.axis @ want.axis)) - 1.0) < 1e-9
            assert str(g.label) == label
            assert label_oracle(table_kinds) == g.label
            with monkeypatch.context() as m:
                m.setattr(point_group, "element_kinds", lambda qs, orders: [
                    classify_element_oracle(q) for q in qs])
                assert schoenflies_from_matrices(g.elements) == g.label

    @pytest.mark.parametrize("family", ["C", "S", "Ch", "Cv", "D", "Dh", "Dd",
                                        "polyhedral"])
    def test_counting_label_matches_tree(self, family):
        # n = 1..12 for each axial family, or T, Td, Th, O, Oh, I and Ih,
        # each under three random conjugations; then the same elements
        # with 3e-7 of noise each, wherever they still pass the group check
        rng = np.random.default_rng(sum(map(ord, family)))
        if family == "polyhedral":
            named = named_group_generators()
            cases = [named[k] for k in ("T", "Td", "Th", "O", "Oh", "I", "Ih")]
        else:
            cases = [axial_generators(family, n) for n in range(1, 13)]
        noisy = 0
        for gens in cases:
            for _ in range(3):
                u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
                g = group_from_generators([u @ m @ u.T for m in gens])
                assert g.label == label_oracle(g.kinds)
                assert g.label.order == g.order
                elements = tuple(m + rng.uniform(-3e-7, 3e-7, size=(3, 3))
                                 for m in g.elements)
                try:
                    h = PointGroup(np.zeros(3), elements)
                except NotAGroup:
                    continue
                noisy += 1
                assert h.label == label_oracle(h.kinds) == g.label
        assert noisy > 0

    def test_incongruent_frame_images_raise(self):
        # a shear of order 2 permutes the motif's orbit, but its frame
        # images are not congruent to the frame: no matrix is read off
        # them, and the element is not dropped from the group silently
        shear = np.array([[1.0, 0.5, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(shear @ shear, np.eye(3))
        with pytest.raises(NotAGroup, match="congruent"):
            group_from_generators([shear])

    @staticmethod
    def _tilted_half_turn(shift):
        """A half-turn about an axis tilted from z so that it moves the
        motif points ``shift`` from where the half-turn about z does."""
        def c2(t):
            return rotation_matrix([np.sin(t), 0.0, np.cos(t)], np.pi)

        motif = point_group._MOTIF
        t = 1e-6
        t *= shift / np.linalg.norm(motif @ c2(t) - motif @ c2(0.0), axis=1).max()
        return c2(0.0), c2(t)

    @pytest.mark.parametrize("factor, error", [(0.5, "duplicate"),
                                               (2.0, "not closed")])
    def test_sameness_at_match_tolerance(self, factor, error):
        # two half-turns are one element iff they move the motif points
        # to within match_tolerance(1) of each other
        c2, tilted = self._tilted_half_turn(factor * match_tolerance(1.0))
        with pytest.raises(NotAGroup, match=error):
            PointGroup(np.zeros(3), (np.eye(3), c2, tilted))
        same = (PointGroup(np.zeros(3), (np.eye(3), c2))
                == PointGroup(np.zeros(3), (np.eye(3), tilted)))
        assert same == (factor < 1.0)

    def test_label_orders(self):
        for name, order in EXPECTED_ORDERS.items():
            fam = name[0]
            if name in ("T", "Td", "Th", "O", "Oh", "I", "Ih"):
                lbl = SchoenfliesLabel(name)
            elif fam in "CSD":
                rest = name[1:]
                digits = "".join(ch for ch in rest if ch.isdigit())
                suffix = rest[len(digits):]
                lbl = SchoenfliesLabel(fam + {"": "", "h": "h", "v": "v",
                                              "d": "d"}[suffix], int(digits))
            assert lbl.order == order, name
            assert str(lbl) == name


class TestOmegaAndTowers:
    def test_omega_values(self):
        assert [omega(n) for n in [1, 2, 3, 4, 6, 8, 12, 24, 48, 60]] == \
            [0, 1, 1, 2, 2, 3, 3, 4, 5, 4]

    def test_tower_trivial(self):
        assert tower_height(PointGroup(np.zeros(3), (np.eye(3),))) == 1

    def test_tower_cyclic(self):
        # |G| = 2^k cyclic: the tower has one step per prime factor
        for n in (2, 4, 8):
            g = group_from_generators(
                [rotation_matrix([0, 0, 1], 2 * np.pi / n)])
            assert tower_height(g) == omega(n) + 1

    def test_tower_s8(self):
        g = group_from_generators(named_group_generators()["S8"])
        assert tower_height(g) == 4  # = omega(8) + 1: bound attained

    def test_tower_d4d(self):
        g = group_from_generators(named_group_generators()["D4d"])
        assert tower_height(g) == 5  # = omega(16) + 1: bound attained

    def test_tower_oh(self):
        g = group_from_generators(named_group_generators()["Oh"])
        assert tower_height(g) == omega(48) + 1 == 6

    def test_tower_bounded_by_omega(self):
        for label in ("C6", "D3h", "Td", "S12", "C4h"):
            g = group_from_generators(named_group_generators()[label])
            assert tower_height(g) == tower_height_oracle(g.elements) \
                == omega(g.order) + 1

    # The lattice oracle needs about half a minute on Ih, so Ih is left
    # out here; the oracle gives 6 = omega(120) + 1 there as well.
    @pytest.mark.parametrize(
        "label", sorted(set(named_group_generators()) - {"Ih"}))
    def test_tower_matches_lattice_oracle(self, label):
        g = group_from_generators(named_group_generators()[label])
        assert tower_height(g) == tower_height_oracle(g.elements)

    def test_tower_rejects_non_closed_set(self):
        c5 = rotation_matrix([0, 0, 1], 2 * np.pi / 5)
        with pytest.raises(NotAGroup, match="closed"):
            PointGroup(np.zeros(3), (np.eye(3), c5))

    def test_tower_rejects_missing_identity(self):
        c2 = rotation_matrix([0, 0, 1], np.pi)
        with pytest.raises(NotAGroup, match="identity"):
            PointGroup(np.zeros(3), (c2,))

    def test_tower_rejects_duplicate_element(self):
        c2 = rotation_matrix([0, 0, 1], np.pi)
        twin = rotation_matrix([0, 0, 1], np.pi + 1e-9)
        with pytest.raises(NotAGroup, match="duplicate"):
            PointGroup(np.zeros(3), (np.eye(3), c2, twin))

    def test_tower_rejects_more_than_120_elements(self):
        c121 = [rotation_matrix([0, 0, 1], 2 * np.pi * k / 121) for k in range(121)]
        with pytest.raises(GroupTooLarge):
            PointGroup(np.zeros(3), tuple(c121))


class TestCheckedOnce:
    def test_group_check_runs_once(self, z3_patch, monkeypatch):
        # cluster -> stabilizer -> tower_height, the sequence behind
        # `delone group`: the group check runs when the PointGroup is
        # built and never again
        calls = []
        check = point_group._check_table
        monkeypatch.setattr(point_group, "_check_table",
                            lambda t, e: calls.append(1) or check(t, e))
        g = stabilizer(dl.cluster(z3_patch, [0, 0, 0], 1.0))
        assert tower_height(g) == 6
        assert str(g.label) == "Oh"
        assert len(calls) == 1

    def test_criterion_checks_one_group(self, monkeypatch):
        # a regular verdict checks S(rho0) alone: S(rho0 + 2R) is only
        # built, and checked, for the witness of a failure
        calls = []
        check = point_group._check_table
        monkeypatch.setattr(point_group, "_check_table",
                            lambda t, e: calls.append(1) or check(t, e))
        z3 = dl.cubic_lattice([-4] * 3, [4] * 3)
        assert local_criterion(z3, SQRT3, SQRT3 / 2).regular
        assert len(calls) == 1
        calls.clear()
        v = local_criterion(z3_missing_site(), 1.5, SQRT3 / 2)
        assert not v.regular and v.witness is not None
        assert len(calls) == 2

    def test_label_follows_elements(self):
        # no label can be passed in, so none can disagree with the elements
        c4 = rotation_matrix([0, 0, 1], np.pi / 2)
        g = PointGroup(np.zeros(3), (np.eye(3), c4, c4 @ c4, c4.T))
        assert str(g.label) == "C4"
        assert [k.kind for k in g.kinds] == ["identity"] + ["rotation"] * 3
        with pytest.raises(TypeError):
            PointGroup(np.zeros(3), (np.eye(3),), SchoenfliesLabel("C", 1))


class TestEquality:
    def test_point_groups_compare_and_hash_by_element_set(self):
        c4 = rotation_matrix([0, 0, 1], np.pi / 2)
        g = group_from_generators([c4])
        h = PointGroup(np.ones(3), tuple(reversed(g.elements)))
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        assert g != group_from_generators([c4 @ c4])
        assert g != group_from_generators([rotation_matrix([1, 0, 0], np.pi / 2)])
        assert g != "C4"

    def test_numpy_dataclasses_compare_by_identity(self, z3_patch):
        # a generated == would compare numpy fields and raise ValueError
        r = rotation_matrix([0, 0, 1], 1.0)
        for make in (lambda: dl.cluster(z3_patch, [0, 0, 0], 1.0),
                     lambda: dl.Isometry(r, np.ones(3)),
                     lambda: classify_element(r)):
            a, b = make(), make()
            assert a == a and a != b
            assert len({a, b}) == 2


class TestMaxRotationOrder:
    """The largest rotation order of a cluster's stabilizer, read off its
    element kinds (1 without a nontrivial rotation)."""

    @staticmethod
    def max_rotation_order(c):
        return max((k.order for k in stabilizer(c).kinds if k.kind == "rotation"),
                   default=1)

    def test_z3(self, z3_patch):
        assert self.max_rotation_order(dl.cluster(z3_patch, [0, 0, 0], 1.0)) == 4

    def test_hex(self, hex_patch):
        assert self.max_rotation_order(dl.cluster(hex_patch, [0, 0, 0], 1.0)) == 6

    def test_asymmetric(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1.1, 0], [0, 0, 1.25], [-1.4, 0.3, 0.2]]
        p = dl.PointPatch(pts, [-3, -3, -3], [3, 3, 3])
        assert self.max_rotation_order(dl.cluster(p, [0, 0, 0], 2.0)) == 1

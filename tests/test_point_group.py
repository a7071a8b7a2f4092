"""Cluster stabilizers, Schoenflies classification, and subgroup towers."""
import numpy as np
import pytest

import delone_local as dl
from delone_local import point_group
from delone_local.errors import (
    DeloneError,
    GroupTooLarge,
    LowerDimensionalCluster,
    NotAGroup,
    UnrecognizedGroup,
)
from delone_local.geometry import classify_element, reflection_matrix, rotation_matrix
from delone_local.point_group import (
    PointGroup,
    SchoenfliesLabel,
    group_from_generators,
    max_rotation_order,
    omega,
    schoenflies,
    schoenflies_from_matrices,
    stabilizer,
    tower_height,
    tower_height_from_matrices,
)

from conftest import (
    classify_element_oracle,
    closure_oracle,
    element_key,
    named_group_generators,
    signed_permutations,
    tower_height_oracle,
)

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
        # label and never an unrecognized group
        outcomes = []
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            pts = z3_patch.points + rng.normal(scale=sigma, size=z3_patch.points.shape)
            p = dl.PointPatch(pts, z3_patch.box_lo, z3_patch.box_hi)
            x0 = pts[np.argmin(np.linalg.norm(pts, axis=1))]
            for rho in (1.0 + 1e-6, 1.5):
                try:
                    outcomes.append(str(stabilizer(dl.cluster(p, x0, rho)).label))
                except DeloneError as e:
                    outcomes.append(type(e).__name__)
        assert set(outcomes) <= {"Oh", "NotAGroup"}, outcomes
        if sigma == 3e-9:
            assert outcomes == ["Oh"] * 10


class TestSchoenflies:
    @pytest.mark.parametrize("label", sorted(EXPECTED_ORDERS))
    def test_named_groups(self, label):
        gens = named_group_generators()[label]
        g = group_from_generators(gens)
        assert g.order == EXPECTED_ORDERS[label]
        assert str(g.label) == label

    def test_conjugated_groups(self):
        rng = np.random.default_rng(17)
        gens_map = named_group_generators()
        for label in ("C4v", "D3d", "S8", "Td", "D6h", "C6", "S4", "Oh"):
            u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            gens = [u @ m @ u.T for m in gens_map[label]]
            g = group_from_generators(gens)
            assert str(g.label) == label, label

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
        g = PointGroup(center=np.zeros(3), elements=(np.eye(3), r),
                       label=SchoenfliesLabel("C", 1))
        with pytest.raises(NotAGroup):
            schoenflies(g)
        with pytest.raises(NotAGroup):
            schoenflies_from_matrices([np.eye(3), r])

    @pytest.mark.parametrize("label", sorted(EXPECTED_ORDERS))
    def test_element_kinds_match_angle_oracle(self, label, monkeypatch):
        # kind, order and axis from the product table (and from the
        # single-matrix power search) agree with the angle-based
        # classifier, element by element, and so does the label the
        # decision tree reads off them
        rng = np.random.default_rng(sum(map(ord, label)))
        for _ in range(3):
            u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            g = group_from_generators(
                [u @ m @ u.T for m in named_group_generators()[label]])
            table_kinds = point_group._element_kinds(g.elements)
            for q, got in zip(g.elements, table_kinds):
                want = classify_element_oracle(q)
                for k in (got, classify_element(q)):
                    assert (k.kind, k.order) == (want.kind, want.order)
                    if want.axis is not None:
                        assert abs(abs(float(k.axis @ want.axis)) - 1.0) < 1e-9
            assert str(g.label) == label
            with monkeypatch.context() as m:
                m.setattr(point_group, "_element_kinds",
                          lambda els: [classify_element_oracle(q) for q in els])
                assert schoenflies_from_matrices(g.elements) == g.label

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
        assert tower_height_from_matrices([np.eye(3)]) == 1

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
            tower_height_from_matrices([np.eye(3), c5])

    def test_tower_rejects_missing_identity(self):
        c2 = rotation_matrix([0, 0, 1], np.pi)
        with pytest.raises(NotAGroup, match="identity"):
            tower_height_from_matrices([c2])

    def test_tower_rejects_duplicate_element(self):
        c2 = rotation_matrix([0, 0, 1], np.pi)
        twin = rotation_matrix([0, 0, 1], np.pi + 1e-9)
        with pytest.raises(NotAGroup, match="duplicate"):
            tower_height_from_matrices([np.eye(3), c2, twin])

    def test_tower_rejects_more_than_120_elements(self):
        c121 = [rotation_matrix([0, 0, 1], 2 * np.pi * k / 121) for k in range(121)]
        with pytest.raises(GroupTooLarge):
            tower_height_from_matrices(c121)


class TestMaxRotationOrder:
    def test_z3(self, z3_patch):
        assert max_rotation_order(dl.cluster(z3_patch, [0, 0, 0], 1.0)) == 4

    def test_hex(self, hex_patch):
        assert max_rotation_order(dl.cluster(hex_patch, [0, 0, 0], 1.0)) == 6

    def test_asymmetric(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1.1, 0], [0, 0, 1.25], [-1.4, 0.3, 0.2]]
        p = dl.PointPatch(pts, [-3, -3, -3], [3, 3, 3])
        assert max_rotation_order(dl.cluster(p, [0, 0, 0], 2.0)) == 1

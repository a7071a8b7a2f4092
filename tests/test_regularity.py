"""Regularity criteria, the tower and step bounds, and the bounds table."""
import dataclasses

import numpy as np
import pytest

import delone_local as dl
from delone_local import regularity
from delone_local.equivalence import _carries
from delone_local.errors import MarginViolation, UnknownLabel
from delone_local.point_group import PointGroup, stabilizer
from delone_local.regularity import (
    TABLE,
    bound_lookup,
    classify_scenario,
    local_criterion,
    shtogrin_step_bound,
    table_from_csv,
    table_rows,
    table_to_csv,
    tower_bound_radius,
    tower_formula_mismatches,
)

from conftest import LATTICES, STOCK_PATCHES, z2_layers, z3_missing_site

SQRT3 = np.sqrt(3.0)


class TestStepBound:
    def test_exact_values(self):
        assert shtogrin_step_bound(2) == pytest.approx(2.0, abs=1e-15)
        assert shtogrin_step_bound(3) == pytest.approx(SQRT3, abs=1e-15)
        assert shtogrin_step_bound(4) == pytest.approx(np.sqrt(2), abs=1e-15)
        assert shtogrin_step_bound(6) == pytest.approx(1.0, abs=1e-15)

    def test_n7_below_one(self):
        assert shtogrin_step_bound(7) == pytest.approx(0.8677674782, abs=1e-9)

    def test_dichotomy_at_six(self):
        for n in range(2, 7):
            assert shtogrin_step_bound(n) >= 1.0 - 1e-12
        for n in range(7, 30):
            assert shtogrin_step_bound(n) < 0.87

    def test_strictly_decreasing(self):
        vals = [shtogrin_step_bound(n) for n in range(2, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            shtogrin_step_bound(1)


class TestTowerBound:
    def test_values(self):
        # 2 (Omega(order) + 2): trivial group -> 4R, order 8 -> 10R,
        # order 48 -> 14R
        assert tower_bound_radius(1) == 4
        assert tower_bound_radius(2) == 6
        assert tower_bound_radius(4) == 8
        assert tower_bound_radius(8) == 10
        assert tower_bound_radius(12) == 10
        assert tower_bound_radius(48) == 14

    def test_bad_order(self):
        with pytest.raises(ValueError):
            tower_bound_radius(0)


class TestBoundsTable:
    def test_row_count(self):
        assert len(table_rows()) == 52

    def test_spot_rows(self):
        assert bound_lookup("C1").bound == "4R"
        assert bound_lookup("C6").bound == "2R"
        assert bound_lookup("C4v").bound == "10R"
        assert bound_lookup("S8").bound == "Impossible"
        assert bound_lookup("D4d").bound == "Impossible"
        assert bound_lookup("Oh").bound == "2R"
        assert bound_lookup("Ih").bound == "Impossible"
        assert bound_lookup("Th").order == 48

    def test_references(self):
        assert bound_lookup("C6").reference == "Rotation-order bound"
        assert bound_lookup("S2").reference == "Locally antipodal criterion"
        assert bound_lookup("S8").reference == "Antiprism exclusion"
        assert bound_lookup("T").reference == "Tetrahedral criterion"
        assert bound_lookup("O").reference == "Cubic criterion"
        assert bound_lookup("I").reference == "Icosahedral exclusion"
        assert bound_lookup("C1h").reference == "This is the group S1."

    def test_unique_labels(self):
        labels = [r.label for r in TABLE]
        assert len(labels) == len(set(labels))

    def test_family_counts(self):
        from collections import Counter
        fam = Counter()
        for r in TABLE:
            if r.label in ("T", "Td", "Th", "O", "Oh", "I", "Ih"):
                fam["poly"] += 1
            elif r.label[0] == "S":
                fam["S"] += 1
            elif r.label.endswith("h") and r.label[0] == "C":
                fam["Ch"] += 1
            elif r.label.endswith("v"):
                fam["Cv"] += 1
            elif r.label.endswith("h"):
                fam["Dh"] += 1
            elif r.label.endswith("d"):
                fam["Dd"] += 1
            elif r.label[0] == "C":
                fam["C"] += 1
            else:
                fam["D"] += 1
        assert fam == {"C": 6, "S": 9, "Ch": 6, "Cv": 6, "D": 6,
                       "Dh": 6, "Dd": 6, "poly": 7}

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            bound_lookup("C7")

    def test_csv_roundtrip_bit_exact(self):
        text = table_to_csv()
        rows = table_from_csv(text)
        assert rows == table_rows()
        # serializing the parsed rows reproduces the text byte for byte
        import delone_local.regularity as reg
        saved = reg.TABLE
        assert text.splitlines()[0] == "group,order,bound,reference"
        assert len(text.splitlines()) == 53
        assert table_to_csv() == text
        assert reg.TABLE is saved

    def test_tower_formula_mismatch_is_exactly_s10(self):
        rows = tower_formula_mismatches()
        assert [r.label for r in rows] == ["S10"]
        assert rows[0].bound == "2R"
        assert tower_bound_radius(rows[0].order) == 8


class TestLocalCriterion:
    def test_z3_regular(self, z3_patch):
        v = local_criterion(z3_patch, SQRT3, SQRT3 / 2)
        assert v.regular
        assert v.n_classes == 1
        assert v.groups_equal
        assert v.witness is None

    def test_verdict_carries_rho0_group(self, z3_patch):
        # S_x0(rho0) rides on the verdict, outside its equality and repr
        v = local_criterion(z3_patch, SQRT3, SQRT3 / 2)
        assert (str(v.group.label), v.group.order) == ("Oh", 48)
        assert v == dataclasses.replace(v, group=None)
        assert "group=" not in repr(v)

    def test_z3_small_rho0(self, z3_patch):
        v = local_criterion(z3_patch, 1.0, SQRT3 / 2)
        assert v.regular

    def test_c4v_regular(self):
        p = dl.c4v_example([-8, -8, -8], [8, 8, 8])
        R = np.sqrt(1.5)
        v = local_criterion(p, 2 * R, R)
        assert v.regular

    def test_hole_fails_with_witness(self):
        pts = [[x, y, z] for x in range(-4, 5) for y in range(-4, 5)
               for z in range(-4, 5) if (x, y, z) != (0, 0, 0)]
        p = dl.PointPatch(pts, [-4, -4, -4], [4, 4, 4])
        v = local_criterion(p, 1.0, 0.75)
        assert not v.regular
        assert v.n_classes > 1
        assert "not all equivalent" in v.witness
        assert v.group is None

    def test_groups_differ_with_witness(self):
        # N(rho0 + 2R) = 1 (the origin is the only usable center), but the
        # missing site breaks all symmetry except the mirror z -> -z
        v = local_criterion(z3_missing_site(), 1.5, SQRT3 / 2)
        assert not v.regular
        assert v.n_classes == 1
        assert not v.groups_equal
        assert v.witness == (
            "stabilizer at rho0 = 1.5 has order 48 (Oh) but at rho0 + 2R = "
            "3.23205 order 2 (S1) at center [0.0, 0.0, 0.0]")

    @pytest.mark.parametrize("build, rho0, R", [
        *(pytest.param(lambda b=LATTICES[k][0], h=h: b([-h] * 3, [h] * 3),
                       2 * LATTICES[k][1], LATTICES[k][1], id=f"{k}_{h}")
          for k, h in STOCK_PATCHES),
        pytest.param(z3_missing_site, 1.5, SQRT3 / 2, id="z3_missing_site"),
    ])
    def test_big_group_filtered_from_small(self, build, rho0, R):
        # S(rho0 + 2R) as the elements of S(rho0) that fix the larger
        # cluster equals its own frame-search stabilizer
        patch, rho_big = build(), rho0 + 2 * R
        x0 = patch.usable_centers(rho_big)[0]
        big = dl.cluster(patch, x0, rho_big)
        small = np.array(stabilizer(dl.cluster(patch, x0, rho0)).elements)
        keep, _ = _carries(big, big.offsets, small)
        filtered = PointGroup(x0, tuple(small[keep]))
        want = stabilizer(big)
        assert filtered == want
        assert filtered.label == want.label

    def test_negative_R_raises(self, z3_patch):
        # S(rho0 + 2R) is filtered from S(rho0), which needs R >= 0
        with pytest.raises(ValueError, match="non-negative"):
            local_criterion(z3_patch, 2.0, -0.25)

    def test_negative_rho0_raises_before_any_class_count(self, z3_patch,
                                                         monkeypatch):
        # a negative rho0 ran cluster_classes at rho0 + 2R first, and was
        # refused only inside cluster, after the class count
        def fail(patch, rho):
            raise AssertionError(f"cluster_classes ran at {rho}")

        monkeypatch.setattr(regularity, "cluster_classes", fail)
        with pytest.raises(ValueError, match="rho0 must be non-negative, got -1"):
            local_criterion(z3_patch, -1, SQRT3 / 2)

    @pytest.mark.parametrize("R", [0.0, 1e-9, 0.4999])
    def test_R_below_packing_radius_raises(self, R):
        # R >= r = 1/2 for every unit-distance Delone set.  With R = 0 the
        # two radii coincide, S(rho0) = S(rho0 + 0) trivially, and this
        # non-regular set came out regular
        with pytest.raises(ValueError, match="below the packing radius 1/2"):
            local_criterion(z2_layers(), 1.0, R)

    def test_layers_not_regular_at_their_R(self):
        p = z2_layers()
        R = dl.covering_radius(p)
        assert R == pytest.approx(np.sqrt(0.5 + 0.65 ** 2), abs=1e-12)
        v = local_criterion(p, 1.0, R)
        assert not v.regular and v.n_classes == 2
        assert local_criterion(p, 1.0, 0.5).n_classes == 2

    def test_box_too_small_raises(self, z3_patch_small):
        # rho0 + 2R exceeds what the box supports: no usable center has
        # the needed margin, and the criterion refuses to truncate
        from delone_local.errors import NoUsableCenters
        with pytest.raises((MarginViolation, NoUsableCenters)):
            local_criterion(z3_patch_small, 2.0, SQRT3 / 2)

    def test_rigid_motion_stability(self):
        # the verdict must not depend on the patch's orientation: rebuild
        # the cubic lattice in rotated coordinates and re-run the criterion
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        grid = np.stack(np.meshgrid(*[np.arange(-9, 10)] * 3,
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        moved = grid.astype(float) @ q.T
        keep = np.all(np.abs(moved) <= 5.0 + 1e-9, axis=1)
        p = dl.PointPatch(moved[keep], [-5, -5, -5], [5, 5, 5])
        v = local_criterion(p, SQRT3, SQRT3 / 2)
        assert v.regular

    def test_groups_equal_across_rounding_boundary(self):
        # two C2 groups whose half-turn axes differ by 1e-9 rad; the axis
        # angle puts the (0, 0) entry, cos(2 theta), on the 6-decimal
        # rounding boundary 0.1234565, where rounded keys disagree
        def c2(theta):
            u = np.array([np.cos(theta), np.sin(theta), 0.0])
            half_turn = 2.0 * np.outer(u, u) - np.eye(3)
            return PointGroup(np.zeros(3), (np.eye(3), half_turn))

        theta = 0.5 * np.arccos(0.1234565)
        assert c2(theta) == c2(theta + 1e-9)
        assert not c2(theta) == c2(theta + 1e-3)


class TestClassifyScenario:
    def test_c4v_scenario(self):
        p = dl.c4v_example([-8, -8, -8], [8, 8, 8])
        rep = classify_scenario(p, np.sqrt(1.5))
        assert rep.n_classes == 1
        assert rep.label == "C4v"
        assert rep.order == 8
        assert rep.bound_row.bound == "10R"
        assert rep.verdict is not None and rep.verdict.regular

    def test_box_too_small_noted(self, z3_patch_small):
        rep = classify_scenario(z3_patch_small, SQRT3 / 2)
        assert rep.n_classes == 1
        assert rep.label == "Oh"
        assert rep.verdict is None
        assert "box too small" in rep.note


class TestOneFrameSearch:
    """classify_scenario reads the 2R label off the criterion's S(2R),
    and the criterion filters S(4R) from it: one stabilizer per call."""

    @staticmethod
    def count_stabilizers(monkeypatch):
        calls = []

        def counting(c):
            calls.append(c.radius)
            return stabilizer(c)

        monkeypatch.setattr(regularity, "stabilizer", counting)
        return calls

    def test_one_stabilizer(self, z3_patch, monkeypatch):
        calls = self.count_stabilizers(monkeypatch)
        rep = classify_scenario(z3_patch, SQRT3 / 2)
        assert rep.label == "Oh" and rep.order == 48
        assert rep.verdict is not None and rep.verdict.regular
        assert calls == [pytest.approx(SQRT3)]

    def test_one_stabilizer_without_criterion(self, z3_patch_small, monkeypatch):
        # no usable center at 4R: the label comes from the representative
        calls = self.count_stabilizers(monkeypatch)
        rep = classify_scenario(z3_patch_small, SQRT3 / 2)
        assert rep.label == "Oh" and rep.verdict is None
        assert calls == [pytest.approx(SQRT3)]

    def test_no_label_stabilizer_when_N_exceeds_one(self, monkeypatch):
        # N(2R) > 1 but N(4R) = 1: the criterion's S(2R) is the only one
        calls = self.count_stabilizers(monkeypatch)
        rep = classify_scenario(z3_missing_site(), 0.75)
        assert rep.n_classes > 1 and rep.label is None
        assert rep.verdict is not None and rep.verdict.n_classes == 1
        assert calls == [1.5]

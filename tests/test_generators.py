"""Point-set generators: lattices, bi-lattices, the layered example, and
the antiprism configuration."""
import hashlib

import numpy as np
import pytest

import delone_local as dl
from delone_local import generators
from delone_local.cli import main
from delone_local.errors import BoxTooSmall, DegenerateAntiprism, InvalidShift
from delone_local.geometry import GEOM_TOL


def neighbor_distances(patch, center, k=13):
    d = np.linalg.norm(patch.points - np.asarray(center, float), axis=1)
    return np.sort(d)[:k]


class TestCubicLattice:
    def test_count(self):
        p = dl.cubic_lattice([-1, -1, -1], [1, 1, 1])
        assert len(p) == 27
        p = dl.cubic_lattice([-2, -2, -2], [2, 2, 2])
        assert len(p) == 125

    def test_membership_and_packing(self):
        p = dl.cubic_lattice([-2, -2, -2], [2, 2, 2])
        assert np.allclose(p.points, np.round(p.points))
        assert dl.packing_diameter(p) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_box(self):
        with pytest.raises(BoxTooSmall):
            dl.cubic_lattice([0, 0, 0], [0, 1, 1])

    @pytest.mark.parametrize("cap, refused", [(342, True), (343, False)])
    def test_count_cap(self, cap, refused, monkeypatch):
        # the box [-2, 2]^3 spans the indices -3..3 per axis, 7^3 = 343
        monkeypatch.setattr(generators, "MAX_LATTICE_POINTS", cap)
        if refused:
            with pytest.raises(ValueError, match="spans 343 lattice points"):
                dl.cubic_lattice([-2] * 3, [2] * 3)
        else:
            assert len(dl.cubic_lattice([-2] * 3, [2] * 3)) == 125

    @pytest.mark.parametrize("build", [
        # 1e16 indices per axis on the z axis alone; this asked numpy for
        # 14.2 PiB
        lambda: dl.hex_lattice(dl.HexLatticeSpec(mu=1e-30), [-1] * 3, [1] * 3),
        lambda: dl.hex_lattice(dl.HexLatticeSpec(1e-300, 1e-300), [0] * 3, [1] * 3),
        lambda: dl.cubic_lattice([-2] * 3, [1.7e308, 2, 2]),
    ], ids=["mu 1e-30", "lambda and mu 1e-300", "box 1.7e308"])
    @pytest.mark.filterwarnings("error")
    def test_count_cap_refuses_before_any_array(self, build):
        with pytest.raises(ValueError, match="MAX_LATTICE_POINTS"):
            build()

    def test_deterministic_ordering(self):
        a = dl.cubic_lattice([-2, -2, -2], [2, 2, 2])
        b = dl.cubic_lattice([-2, -2, -2], [2, 2, 2])
        assert np.array_equal(a.points, b.points)


class TestHexLattice:
    def test_unit_in_plane_neighbors(self, hex_patch):
        # lam = mu = 1: six in-plane neighbors at 1, two vertical at 1
        d = neighbor_distances(hex_patch, [0, 0, 0], 9)
        assert d[0] == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(d[1:9], 1.0, atol=1e-9)

    def test_vertical_spacing_sqrt_mu(self):
        spec = dl.HexLatticeSpec(1.0, 9.0)
        p = dl.hex_lattice(spec, [-4, -4, -7], [4, 4, 7])
        col = p.points[np.linalg.norm(p.points[:, :2], axis=1) < 1e-9]
        z = np.sort(col[:, 2])
        assert np.allclose(np.diff(z), 3.0, atol=1e-9)

    def test_min_distance(self):
        spec = dl.HexLatticeSpec(2.0, 1.0)
        assert spec.min_distance == pytest.approx(1.0)  # vertical wins
        spec = dl.HexLatticeSpec(1.0, 9.0)
        assert spec.min_distance == pytest.approx(1.0)  # in-plane wins

    def test_gram_matrix(self):
        spec = dl.HexLatticeSpec(3.0, 5.0)
        b = spec.basis
        assert np.allclose(b @ b.T, [[3, 1.5, 0], [1.5, 3, 0], [0, 0, 5]])

    @pytest.mark.parametrize("lam, mu", [(1.0, np.inf), (np.nan, 1.0),
                                         (np.inf, np.inf), (0.0, 1.0), (1.0, -2.0)])
    def test_spec_refuses_a_bad_parameter(self, lam, mu):
        with pytest.raises(ValueError, match="lam and mu must be positive and finite"):
            dl.HexLatticeSpec(lam, mu)


class TestHexBilattice:
    def test_vertical_spacings(self):
        spec = dl.BiLatticeSpec(dl.HexLatticeSpec(1.0, 9.0), (0, 0, 1.3))
        p = dl.hex_bilattice(spec, [-4, -4, -7], [4, 4, 7])
        col = p.points[np.linalg.norm(p.points[:, :2], axis=1) < 1e-9]
        z = np.sort(col[:, 2])
        gaps = np.round(np.diff(z), 9)
        assert set(gaps) == {1.3, 1.7}

    def test_count_doubles(self):
        spec_hex = dl.HexLatticeSpec(1.0, 9.0)
        base = dl.hex_lattice(spec_hex, [-4, -4, -6], [4, 4, 6])
        spec = dl.BiLatticeSpec(spec_hex, (0, 0, 1.5))
        both = dl.hex_bilattice(spec, [-4, -4, -6], [4, 4, 6])
        # the translate adds roughly one copy per cell; shifted copies can
        # fall out of the closed box at the top, hence <=
        assert len(base) < len(both) <= 2 * len(base)

    def test_invalid_shifts(self):
        hexspec = dl.HexLatticeSpec(1.0, 9.0)
        with pytest.raises(InvalidShift):
            dl.BiLatticeSpec(hexspec, (0.5, 0, 1.0))  # not vertical
        with pytest.raises(InvalidShift):
            dl.BiLatticeSpec(hexspec, (0, 0, 3.0))  # a lattice vector
        with pytest.raises(InvalidShift):
            dl.BiLatticeSpec(hexspec, (0, 0, 0.0))

    def test_packing_with_close_shift(self):
        spec = dl.BiLatticeSpec(dl.HexLatticeSpec(1.0, 9.0), (0, 0, 0.7))
        p = dl.hex_bilattice(spec, [-3, -3, -5], [3, 3, 5])
        assert dl.packing_diameter(p) == pytest.approx(0.7, abs=1e-9)


class TestC4vExample:
    def test_membership(self, c4v_patch):
        assert np.allclose(c4v_patch.points, np.round(c4v_patch.points))
        z = np.round(c4v_patch.points[:, 2]).astype(int)
        assert np.all(z % 3 != 0)

    def test_declared_R(self, c4v_patch):
        assert c4v_patch.declared_R == pytest.approx(np.sqrt(1.5))

    def test_covering_radius_matches_declared(self):
        p = dl.c4v_example([-5, -5, -5], [5, 5, 5])
        assert dl.covering_radius(p) == pytest.approx(np.sqrt(1.5), abs=1e-6)

    def test_packing(self, c4v_patch):
        assert dl.packing_diameter(c4v_patch) == pytest.approx(1.0, abs=1e-12)


class TestAntiprism:
    def test_distances_reference_shape(self):
        # a = b = 1/2: all vertices at sqrt(1/2) from origin
        v = dl.antiprism_points(0.5, 0.5)
        assert v.shape == (8, 3)
        assert np.allclose(np.linalg.norm(v, axis=1), np.sqrt(0.5))

    def test_square_bases(self):
        a, b = 0.8, 0.4
        v = dl.antiprism_points(a, b)
        top = v[np.isclose(v[:, 2], b)]
        bot = v[np.isclose(v[:, 2], -b)]
        assert len(top) == 4 and len(bot) == 4
        # each base is a square of circumradius a
        assert np.allclose(np.linalg.norm(top[:, :2], axis=1), a)
        assert np.allclose(np.linalg.norm(bot[:, :2], axis=1), a)

    def test_vertex_transitive_edge_lengths(self):
        # a = b = 1/sqrt(2): all 8 circumradii are 1, base edge = 1
        a = b = 1 / np.sqrt(2)
        v = dl.antiprism_points(a, b)
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0)
        d = np.linalg.norm(v[:, None] - v[None, :], axis=2)
        pair = d[np.triu_indices(8, 1)]
        # base edge a*sqrt(2) = 1 is the shortest pair distance
        assert pair.min() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateAntiprism):
            dl.antiprism_points(0.5, 0.0)
        with pytest.raises(ValueError):
            dl.antiprism_points(-1.0, 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, b", [(1e200, 0.5), (0.5, 1e200), (np.nan, 0.5),
                                      (1e154, 1e154)])
    def test_refuses_a_squared_circumradius_that_is_not_finite(self, a, b):
        # a = 1e200 got scipy's KD-tree "p too large" overflow message
        with pytest.raises(ValueError, match=r"finite a\^2 \+ b\^2"):
            dl.antiprism_points(a, b)

    @pytest.mark.filterwarnings("error")
    def test_patch_refuses_a_box_too_large_to_square(self):
        # a^2 + b^2 is finite, the squared box diagonal 8 a^2 is not
        dl.antiprism_patch(4e153, 0.5)
        with pytest.raises(ValueError, match="squared diagonal is not finite"):
            dl.antiprism_patch(1e154, 0.5)

    def test_patch_contains_origin(self):
        p = dl.antiprism_patch(0.7, 0.3)
        assert len(p) == 9
        assert any(np.allclose(q, 0) for q in p.points)


class TestRegeneration:
    def test_bit_exact(self, tmp_path):
        from delone_local.delone_core import load_patch, save_patch
        p1 = dl.hex_lattice(dl.HexLatticeSpec(1.0, 2.0), [-3, -3, -3], [3, 3, 3])
        path = tmp_path / "hex.xyz"
        save_patch(p1, path)
        text1 = path.read_text()
        p2 = dl.hex_lattice(dl.HexLatticeSpec(1.0, 2.0), [-3, -3, -3], [3, 3, 3])
        save_patch(p2, path)
        assert path.read_text() == text1
        back = load_patch(path)
        # the text format carries 10 significant digits
        assert np.allclose(back.points, p1.points, atol=1e-8)


#: One spec of each lattice-plus-motif kind, with a sheared hexagonal
#: lattice and a bilattice shifted downward among them.
SPECS = {
    "cubic": dl.cubic_lattice,
    "hex": lambda lo, hi: dl.hex_lattice(dl.HexLatticeSpec(1.0, 1.0), lo, hi),
    "hex_sheared": lambda lo, hi: dl.hex_lattice(
        dl.HexLatticeSpec(2.5, 0.7), lo, hi),
    "hex_bilattice": lambda lo, hi: dl.hex_bilattice(
        dl.BiLatticeSpec(dl.HexLatticeSpec(1.0, 6.25), (0, 0, 1.2)), lo, hi),
    "hex_bilattice_down": lambda lo, hi: dl.hex_bilattice(
        dl.BiLatticeSpec(dl.HexLatticeSpec(1.7, 6.25), (0, 0, -2.1)), lo, hi),
    "c4v": dl.c4v_example,
}


class TestSetIntersectBox:
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_patch_is_the_clip_of_a_larger_patch(self, kind):
        # the patch on a box is, bit for bit and in (z, y, x) order, the
        # +-20 patch clipped to that box: boxes with corners of up to two
        # decimals, off centre and thin ones included
        build = SPECS[kind]
        big = build([-20] * 3, [20] * 3).points
        rng = np.random.default_rng(sorted(SPECS).index(kind))
        for _ in range(60):
            lo = np.round(rng.uniform(-8.0, 4.0, 3), 2)
            hi = np.round(lo + rng.uniform(0.01, 8.0, 3), 2)
            inside = (np.all(big >= lo - GEOM_TOL, axis=1)
                      & np.all(big <= hi + GEOM_TOL, axis=1))
            got = build(lo, hi).points
            assert got.shape == big[inside].shape
            assert got.tobytes() == big[inside].tobytes()


#: SHA-256 of the files ``delone generate`` writes: the five stock boxes of
#: the ``analyze_regular`` benchmark workload, boxes off centre with
#: fractional corners, a sheared hexagonal lattice and a bilattice shifted
#: downward.
GENERATE_DIGESTS = [
    (["--kind", "c4v", "--box", "-6", "-6", "-6", "6", "6", "6"],
     "4f796af80feda1fb62ac1b401a2d21a56b606602063678c2f3eb829b56a71b6b"),
    (["--kind", "cubic", "--box", "-4", "-4", "-4", "4", "4", "4"],
     "a643d7ceb3647b2d82386acc12b2cce2a1a194356a7f82ae1e2d1cb1dcea5e82"),
    (["--kind", "hex", "--lambda", "1", "--mu", "1",
      "--box", "-4", "-4", "-4", "4", "4", "4"],
     "453d60e4d09992dd26db21ad41fdb502b715dc11eac02e99587ff360550b16c8"),
    (["--kind", "hex_bilattice", "--mu", "6.25", "--t-z", "1.2",
      "--box", "-4", "-4", "-4", "4", "4", "4"],
     "4e8cb57d8dc3bf27d5ea08e7259aa3959f5accf7b570e0c9c023a18d3930b6ca"),
    (["--kind", "hex_bilattice", "--mu", "6.25", "--t-z", "1.2",
      "--box", "-5", "-5", "-5", "5", "5", "5"],
     "1e997dc50a7bcd90246b6500537939dafb569ff57e1ed0a6ec6f3ca67c130208"),
    (["--kind", "cubic", "--box", "-2.37", "-1.5", "0.25", "3.1", "2.05", "4.99"],
     "53a39a22f6f665229e0eb27bedc035a920b0e9033c378400af428760e8c9b272"),
    (["--kind", "c4v", "--box", "-3.5", "-2.25", "-4.75", "4.1", "3.3", "5.6"],
     "5724ab8696e265db61467da87e25627ec4bfb3abb7948d3850f23de2891863e5"),
    (["--kind", "hex", "--lambda", "2.5", "--mu", "0.7",
      "--box", "-3.3", "-2.71", "-1.05", "2.9", "3.44", "2.2"],
     "4faebc9a300fa2f9a17400805c9e577ced5c72f85dd99c989ac15192d6b95af3"),
    (["--kind", "hex_bilattice", "--mu", "6.25", "--t-z", "-2.1",
      "--box", "-4.2", "-3.75", "-5.5", "3.6", "4.01", "5.13"],
     "b2b37b11f785a1b30f9f6ff25f80cc2e81025eb466e0b3fa94cedb18b3248d1f"),
]


@pytest.mark.parametrize("argv, digest", GENERATE_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in GENERATE_DIGESTS])
def test_generate_bytes_pinned(argv, digest, tmp_path, capsys):
    path = tmp_path / "out.xyz"
    assert main(["generate", *argv, "-o", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

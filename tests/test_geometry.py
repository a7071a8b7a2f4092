"""Element classification and the stacked frame solver."""
import importlib
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delone_local
from delone_local import geometry, point_group
from delone_local.errors import NonOrthogonal
from delone_local.geometry import (
    Isometry,
    _complete_basis,
    _cross,
    _frame_map,
    canonical_axis,
    check_orthogonal,
    classify_element,
    nearest_orthogonal,
    reflection_matrix,
    rotation_matrix,
)

from conftest import element_kind_oracle, rotoreflection_matrix, same_kinds

S8_MATRIX = np.array([
    [np.cos(np.pi / 4), -np.sin(np.pi / 4), 0.0],
    [np.sin(np.pi / 4), np.cos(np.pi / 4), 0.0],
    [0.0, 0.0, -1.0],
])


def random_orthogonal(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q


class TestClassifyElement:
    def test_identity(self):
        assert classify_element(np.eye(3)).kind == "identity"

    def test_inversion(self):
        assert classify_element(-np.eye(3)).kind == "inversion"

    def test_reflection_z(self):
        k = classify_element(np.diag([1.0, 1.0, -1.0]))
        assert k.kind == "reflection"
        assert np.allclose(k.axis, [0, 0, 1])

    def test_s8_generator(self):
        k = classify_element(S8_MATRIX)
        assert k.kind == "rotoreflection"
        assert k.order == 8
        assert np.allclose(k.axis, [0, 0, 1])

    def test_rotation_2pi_over_7(self):
        k = classify_element(rotation_matrix([0, 0, 1], 2 * np.pi / 7))
        assert k.kind == "rotation"
        assert k.order == 7

    def test_rotation_orders_all_angles(self):
        # angle 2 pi k / n with gcd(k, n) = 1 must report order n
        for n in range(2, 25):
            for k in range(1, n):
                if np.gcd(k, n) != 1:
                    continue
                kind = classify_element(rotation_matrix([1, 2, 3], 2 * np.pi * k / n))
                assert kind.kind == "rotation"
                assert kind.order == n, (n, k)

    def test_generic_rotation(self):
        k = classify_element(rotation_matrix([0, 0, 1], 1.0))  # 1 rad: irrational
        assert k.kind == "generic_rotation"

    def test_orbit_closure_stops_at_its_cap(self, monkeypatch):
        # each orbit point the closure finds is multiplied by the one
        # generator once, not again each round: up to the cap of 3 * 240
        # motif images and the origin, at most that many points are moved
        moved = []
        grow = point_group._grow
        monkeypatch.setattr(point_group, "_grow", lambda pts, images:
                            moved.append(len(images)) or grow(pts, images))
        k = classify_element(rotation_matrix([0, 0, 1], 1.0))
        assert k.kind == "generic_rotation"
        assert 0 < sum(moved) <= 3 * 240 + 1

    @pytest.mark.parametrize("n", [25, 60, 120])
    def test_high_rotation_orders(self, n):
        # the order of the cyclic group is finite up to the closure's
        # ceiling of 240 elements
        k = classify_element(rotation_matrix([1, 2, 3], 2 * np.pi / n))
        assert (k.kind, k.order) == ("rotation", n)

    def test_generic_elements_match_single_map_reader(self):
        # no finite order: the stack-of-one reader gives what the
        # per-element one gave, axis bits included
        for q, kind in ((rotation_matrix([1, 2, -3], 1.0), "generic_rotation"),
                        (rotoreflection_matrix([-2, 1, 1], 1.0),
                         "generic_rotoreflection")):
            k = classify_element(q)
            assert k.kind == kind and k.order is None
            assert same_kinds([k], [element_kind_oracle(q, None)])

    def test_rotoreflection_even_orders(self):
        for n in (4, 6, 8, 10, 12, 60):
            k = classify_element(rotoreflection_matrix([0, 1, 1], 2 * np.pi / n))
            assert k.kind == "rotoreflection"
            assert k.order == n

    def test_half_turn_near_machine_noise(self):
        # products of exact elements drift by ~1e-16; half-turns must
        # survive the angle extraction (arccos of the trace would not)
        q = rotation_matrix([1, 1, 0], np.pi)
        r = random_orthogonal(np.random.default_rng(7))
        k = classify_element(r @ q @ r.T)
        assert k.kind == "rotation"
        assert k.order == 2

    def test_non_orthogonal_rejected(self):
        with pytest.raises(NonOrthogonal):
            classify_element(np.eye(3) * 2.0)

    def test_orthogonality_checked_at_ortho_tol(self):
        # q^T q - I has largest entry q[0, 1]; ORTHO_TOL = 1e-7 is the bound
        q = np.eye(3)
        q[0, 1] = 5e-8
        check_orthogonal(q)
        q[0, 1] = 5e-7
        with pytest.raises(NonOrthogonal):
            check_orthogonal(q)

    def test_product_of_reflections_is_rotation(self):
        # mirrors at dihedral angle theta compose to a rotation by 2 theta
        for theta, order in ((np.pi / 2, 2), (np.pi / 3, 3), (np.pi / 4, 4)):
            m1 = reflection_matrix([1.0, 0.0, 0.0])
            m2 = reflection_matrix([np.cos(theta), np.sin(theta), 0.0])
            k = classify_element(m2 @ m1)
            assert k.kind == "rotation"
            assert k.order == order

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_conjugation_covariance(self, seed):
        rng = np.random.default_rng(seed)
        u = random_orthogonal(rng)
        n = int(rng.integers(2, 13))
        axis = rng.normal(size=3)
        q = rotation_matrix(axis, 2 * np.pi / n)
        k1 = classify_element(q)
        k2 = classify_element(u @ q @ u.T)
        assert k1.kind == k2.kind == "rotation"
        assert k1.order == k2.order == n
        mapped = canonical_axis(u @ k1.axis)
        assert np.allclose(mapped, k2.axis, atol=1e-7)


class TestFrameMap:
    """The stacked frame solver: one completed frame inverse against a
    stack of image tuples, congruent ones solved and snapped, the rest
    gated out."""

    FRAME = np.eye(3)  # the difference vectors of a point quadruple

    @staticmethod
    def solve(frame, images, gate=1e-6):
        frame_inv = np.linalg.inv(_complete_basis(np.asarray(frame)[None])[0])
        return _frame_map(np.asarray(images), frame_inv, gate)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(42)
        src = rng.normal(size=(4, 3))
        assert abs(np.linalg.det(src[1:] - src[0])) > 1e-3
        qs = np.array([random_orthogonal(rng) for _ in range(200)])
        ts = rng.normal(size=(200, 3))
        dst = np.einsum("nij,kj->nki", qs, src) + ts[:, None]
        got = self.solve(src[1:] - src[0], dst[:, 1:] - dst[:, :1])
        assert got.shape == (200, 3, 3)
        for q, d in zip(got, dst):
            iso = Isometry(q, d[0] - q @ src[0])
            assert np.abs(iso.apply(src) - d).max() < 1e-9
            (back,) = self.solve(d[1:] - d[0], [src[1:] - src[0]])
            comp = iso.compose(Isometry(back, src[0] - back @ d[0]))
            assert np.abs(comp.q - np.eye(3)).max() < 1e-9
            assert np.abs(comp.t).max() < 1e-8

    def test_incongruent_gated_out(self):
        dst = self.FRAME.copy()
        dst[2] = [0, 0, 2.0]
        got = self.solve(self.FRAME, [dst, self.FRAME, dst])
        assert got.shape == (1, 3, 3)
        assert np.allclose(got[0], np.eye(3))


class TestCross:
    """The component cross product equals ``np.cross`` bit for bit, and so
    do the columns ``_complete_basis`` adds with it."""

    @staticmethod
    def stacks(seed, n=400):
        # magnitudes from 1e-12 to 1e12 per component, plus signed zeros,
        # exact cancellations and parallel pairs
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-12, 13, size=(n, 3))
                for _ in range(2))
        z = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [-0.0, -0.0, -0.0],
                      [1.0, 1.0, 1.0], [2.0, -3.0, 0.5], [-1e300, 1e-300, 0.0]])
        return (np.concatenate([a, z, z, 3.0 * z, a[:5]]),
                np.concatenate([b, z, z[::-1], z, -a[:5]]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_np_cross_bit_for_bit(self, seed):
        a, b = self.stacks(seed)
        with np.errstate(over="ignore", under="ignore"):
            want = np.cross(a, b)
            assert np.stack(_cross(a.T, b.T), axis=1).tobytes() == want.tobytes()
            # one vector against a stack, and one against one
            assert (np.stack(_cross(a[7], b.T), axis=1).tobytes()
                    == np.cross(a[7], b).tobytes())
            for x, y in zip(a[-40:], b[-40:]):
                assert np.array(_cross(x, y)).tobytes() == np.cross(x, y).tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_completed_columns_equal_np_cross(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(300, 2, 3)) * 10.0 ** rng.integers(-3, 4, size=(300, 2, 1))
        got = _complete_basis(v)
        assert got[:, :, 2].tobytes() == np.cross(v[:, 0], v[:, 1]).tobytes()
        u = v[:, 0]
        p = np.cross(u, np.eye(3)[np.argmin(np.abs(u), axis=1)])
        p *= (np.sqrt(np.vecdot(u, u)) / np.sqrt(np.vecdot(p, p)))[:, None]
        got = _complete_basis(v[:, :1])
        assert got[:, :, 1].tobytes() == p.tobytes()
        assert got[:, :, 2].tobytes() == np.cross(u, p).tobytes()


class TestFrameIsometry:
    """Single frame pairs through the stacked solver, as stacks of one."""

    def test_identity(self):
        got = TestFrameMap.solve(TestFrameMap.FRAME, [TestFrameMap.FRAME])
        assert got.shape == (1, 3, 3)
        assert np.allclose(got[0], np.eye(3))

    def test_recovers_rotation(self):
        q = rotation_matrix([0, 0, 1], np.pi / 2)
        frame = TestFrameMap.FRAME
        got = TestFrameMap.solve(frame, [frame @ q.T])
        assert got.shape == (1, 3, 3)
        assert np.allclose(got[0], q, atol=1e-9)


class TestIsometryAlgebra:
    def test_inverse(self):
        rng = np.random.default_rng(3)
        q = random_orthogonal(rng)
        iso = Isometry(q, rng.normal(size=3))
        comp = iso.compose(iso.inverse())
        assert np.abs(comp.q - np.eye(3)).max() < 1e-12
        assert np.abs(comp.t).max() < 1e-12

    def test_distance_preserving(self):
        rng = np.random.default_rng(4)
        iso = Isometry(random_orthogonal(rng), rng.normal(size=3))
        a = rng.normal(size=(50, 3))
        b = rng.normal(size=(50, 3))
        d0 = np.linalg.norm(a - b, axis=1)
        d1 = np.linalg.norm(iso.apply(a) - iso.apply(b), axis=1)
        assert np.abs(d0 - d1).max() < 1e-12

    def test_nearest_orthogonal_projects(self):
        rng = np.random.default_rng(5)
        q = random_orthogonal(rng) + rng.normal(size=(3, 3)) * 1e-8
        p = nearest_orthogonal(q)
        assert np.abs(p.T @ p - np.eye(3)).max() < 1e-14


def test_every_tolerance_is_documented():
    # one tolerance policy: each module-level *_TOL constant of the
    # package is listed in the tolerance section of geometry's docstring
    names = set()
    for info in pkgutil.iter_modules(delone_local.__path__):
        module = importlib.import_module(f"delone_local.{info.name}")
        names |= {n for n in vars(module) if n.endswith("_TOL")}
    assert {"GEOM_TOL", "FRAME_TOL", "ORTHO_TOL", "FEAS_TOL"} <= names
    missing = [n for n in sorted(names)
               if not re.search(rf"(?<!\w){n}(?!\w)", geometry.__doc__)]
    assert not missing

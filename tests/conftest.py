"""Shared fixtures and independent oracle helpers for the test suite.

Oracles here deliberately avoid the library's own machinery: signed
permutation matrices are enumerated directly, brute-force distance scans
use plain numpy, and group element sets are generated from explicit
matrices so that stabilizer/classification results can be checked against
something the implementation does not share code with.
"""
import itertools
from math import gcd

import numpy as np
import pytest

import delone_local as dl
from delone_local.geometry import (
    ElementKind,
    canonical_axis,
    check_orthogonal,
    nearest_orthogonal,
    reflection_matrix,
    rotation_matrix,
)

SQRT3 = np.sqrt(3.0)


@pytest.fixture(scope="session")
def z3_patch():
    return dl.cubic_lattice([-4, -4, -4], [4, 4, 4])


@pytest.fixture(scope="session")
def z3_patch_small():
    return dl.cubic_lattice([-3, -3, -3], [3, 3, 3])


@pytest.fixture(scope="session")
def hex_patch():
    return dl.hex_lattice(dl.HexLatticeSpec(1.0, 1.0), [-4, -4, -4], [4, 4, 4])


@pytest.fixture(scope="session")
def c4v_patch():
    return dl.c4v_example([-4, -4, -4], [4, 4, 4])


@pytest.fixture(scope="session")
def layered_square_patch():
    """Unit square layers 2.5 apart: the 12 nearest neighbours of a point
    lie in its own layer."""
    pts = [[x, y, 2.5 * k] for x in range(-4, 5) for y in range(-4, 5)
           for k in range(-3, 4)]
    return dl.PointPatch(pts, [-4, -4, -7.5], [4, 4, 7.5])


def signed_permutations():
    """All 48 signed permutation matrices (oracle for the Z^3 stabilizer)."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product([1.0, -1.0], repeat=3):
            m = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            mats.append(m)
    return mats


def element_key(m):
    """Rounded key of a group element, for comparing element sets that
    are far from the rounding boundaries (signed permutations, closures of
    the named generators, their conjugates)."""
    return tuple((np.round(np.asarray(m, dtype=float), 6) + 0.0).ravel())


def closure_oracle(generators, limit=200):
    """Independent closure of matrices under products (rounded keys)."""
    elems = {element_key(np.eye(3)): np.eye(3)}
    frontier = [np.eye(3)] + [np.asarray(g, float) for g in generators]
    for g in frontier[1:]:
        elems.setdefault(element_key(g), g)
    changed = True
    while changed:
        changed = False
        current = list(elems.values())
        for a in current:
            for b in current:
                p = a @ b
                k = element_key(p)
                if k not in elems:
                    elems[k] = p
                    changed = True
                    assert len(elems) <= limit
    return list(elems.values())


def tower_height_oracle(elements):
    """Tower height by enumerating the subgroup lattice: the longest chain
    of strictly nested subgroups, both ends included.

    Subgroups are the closures of joins of cyclic subgroups, found through
    an integer multiplication table with rounded keys; each subgroup's
    height is one more than the largest height among its proper subgroups.
    """
    elements = sorted(elements, key=lambda m: float(np.abs(m - np.eye(3)).max()))
    index = {element_key(m): i for i, m in enumerate(elements)}
    assert element_key(elements[0]) == element_key(np.eye(3))
    table = [[index[element_key(a @ b)] for b in elements] for a in elements]

    def close(gens):
        s = set(gens) | {0}
        frontier = list(s)
        while frontier:
            new = []
            members = list(s)
            for f in frontier:
                for g in members:
                    for k in (table[f][g], table[g][f]):
                        if k not in s:
                            s.add(k)
                            new.append(k)
            frontier = new
        return frozenset(s)

    cyclics = {close({i}) for i in range(len(elements))}
    subs = {frozenset({0})} | cyclics | {frozenset(range(len(elements)))}
    changed = True
    while changed:
        changed = False
        for h in list(subs):
            for c in cyclics:
                if not c <= h:
                    j = close(h | c)
                    if j not in subs:
                        subs.add(j)
                        changed = True
    height = {}
    for s in sorted(subs, key=len):  # proper subgroups come first
        height[s] = 1 + max((height[t] for t in height if t < s), default=0)
    return height[max(subs, key=len)]


def _rotation_order(theta, max_order, angle_tol):
    """Smallest n <= max_order with theta = 2 pi k / n, gcd(k, n) = 1."""
    two_pi = 2.0 * np.pi
    for n in range(2, max_order + 1):
        k = int(round(theta * n / two_pi))
        if k < 1 or k > n // 2:
            continue
        if abs(theta - two_pi * k / n) <= angle_tol and gcd(k, n) == 1:
            return n
    return None


def _rotoreflection_order(theta, max_order, angle_tol):
    """Smallest even n <= max_order with theta = 2 pi k / n for some k.

    An improper map with rotation angle theta (not 0 or pi) has element
    order equal to the smallest even n with n * theta a multiple of 2 pi.
    """
    two_pi = 2.0 * np.pi
    for n in range(4, max_order + 1, 2):
        k = round(theta * n / two_pi)
        if k >= 1 and abs(theta - two_pi * k / n) <= angle_tol:
            return n
    return None


def _rotation_angle(r):
    """Rotation angle in [0, pi] of a proper orthogonal map (atan2 of the
    sine from the antisymmetric part and the cosine from the trace)."""
    c = (float(np.trace(r)) - 1.0) / 2.0
    s = float(np.linalg.norm(r - r.T)) / (2.0 * np.sqrt(2.0))
    return float(np.arctan2(s, c))


def _fixed_axis(q, eigenvalue):
    """Unit eigenvector of an orthogonal map for eigenvalue +1 or -1."""
    w, v = np.linalg.eig(q)
    idx = int(np.argmin(np.abs(w - eigenvalue)))
    axis = np.real(v[:, idx])
    return canonical_axis(axis)


def classify_element_oracle(q, angle_tol=1e-9, max_rotation_order=24):
    """Angle-based element classifier (oracle for the product-table one).

    Snaps q onto O(3), reads the rotation angle and matches it against
    2 pi k / n within ``angle_tol``; the axis is an eigenvector from
    ``np.linalg.eig``.  Shares no order or axis code with the library.
    """
    q = check_orthogonal(q, 1e-7)
    q = nearest_orthogonal(q)
    det = float(np.linalg.det(q))
    proper = det > 0.0

    if proper:
        theta = _rotation_angle(q)
        if theta <= angle_tol:
            return ElementKind("identity")
        # axis = eigenvector of q for eigenvalue +1
        axis = _fixed_axis(q, +1.0)
        if abs(theta - np.pi) <= angle_tol:
            return ElementKind("rotation", order=2, axis=axis)
        n = _rotation_order(theta, max_rotation_order, angle_tol)
        if n is None:
            return ElementKind("generic_rotation", axis=axis)
        return ElementKind("rotation", order=n, axis=axis)

    # improper: q = (rotation by phi about axis) o (reflection in the plane
    # orthogonal to the axis), with axis the -1 eigenvector.  -q is the
    # proper rotation by pi - phi about the same axis, so phi is recovered
    # from it without the arccos conditioning loss near phi = 0 or pi.
    axis = _fixed_axis(q, -1.0)
    phi = float(np.pi) - _rotation_angle(-q)
    if phi <= angle_tol:
        return ElementKind("reflection", axis=axis)
    if abs(phi - np.pi) <= angle_tol:
        return ElementKind("inversion")
    n = _rotoreflection_order(phi, 2 * max_rotation_order, angle_tol)
    if n is None:
        return ElementKind("generic_rotoreflection", axis=axis)
    return ElementKind("rotoreflection", order=n, axis=axis)


# Standard generator matrices (z principal axis) for building named groups.
def cn_gen(n):
    return rotation_matrix([0, 0, 1], 2 * np.pi / n)


def sn_gen(n):
    return np.diag([1.0, 1.0, -1.0]) @ rotation_matrix([0, 0, 1], 2 * np.pi / n)


SIGMA_H = np.diag([1.0, 1.0, -1.0])
SIGMA_V = np.diag([1.0, -1.0, 1.0])
C2_X = np.diag([1.0, -1.0, -1.0])
SIGMA_D = reflection_matrix([np.sin(np.pi / 4), -np.cos(np.pi / 4), 0.0])


def named_group_generators():
    """Map of Schoenflies label -> generator matrices, for n = 1..6 axial
    families plus S8/S10/S12 and the polyhedral groups."""
    gens = {}
    for n in range(2, 7):
        gens[f"C{n}"] = [cn_gen(n)]
        gens[f"C{n}v"] = [cn_gen(n), SIGMA_V]
        gens[f"D{n}"] = [cn_gen(n), C2_X]
        gens[f"D{n}h"] = [cn_gen(n), C2_X, SIGMA_H]
        # Dnd: vertical mirror bisecting adjacent C2 axes
        gens[f"D{n}d"] = [cn_gen(n), C2_X,
                          reflection_matrix([np.sin(np.pi / (2 * n)),
                                             -np.cos(np.pi / (2 * n)), 0.0])]
    for n in (4, 6):  # even n: Cnh stays Cnh
        gens[f"C{n}h"] = [cn_gen(n), SIGMA_H]
    gens["C2h"] = [cn_gen(2), SIGMA_H]
    for n in (3, 5):  # odd n: Cnh = Sn (paper aliasing)
        gens[f"S{n}"] = [cn_gen(n), SIGMA_H]
    for n in (2, 4, 6, 8, 10, 12):
        gens[f"S{n}"] = [sn_gen(n)]
    gens["S1"] = [SIGMA_H]
    gens["C1"] = []

    # polyhedral: tetrahedron inscribed in the cube with vertices
    # (1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1)
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    all_sp = signed_permutations()

    def preserves(m, pts):
        moved = pts @ m.T
        return all(any(np.allclose(v, w, atol=1e-9) for w in pts) for v in moved)

    td = [m for m in all_sp if preserves(m, tetra)]
    t = [m for m in td if np.linalg.det(m) > 0]
    gens["T"] = t
    gens["Td"] = td
    gens["Th"] = t + [-m for m in t]
    gens["O"] = [m for m in all_sp if np.linalg.det(m) > 0]
    gens["Oh"] = all_sp
    # icosahedral rotations: order-5 axis through (phi, 1, 0), order-3
    # axis through (1, 1, 1)
    phi = (1 + np.sqrt(5)) / 2
    r5 = rotation_matrix([phi, 1.0, 0.0], 2 * np.pi / 5)
    r3 = rotation_matrix([1.0, 1.0, 1.0], 2 * np.pi / 3)
    gens["I"] = [r5, r3]
    gens["Ih"] = [r5, r3, -np.eye(3)]
    return gens

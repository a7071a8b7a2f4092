"""Randomized property suites (1000+ cases each, bar the generated
regular systems).

Each suite checks a structural law of the library against independent
recomputation: monotonicity of stabilizers and of the class count,
equivalence-relation laws, conjugation covariance, objective agreement
with a brute-force scan, the subgroup-tower bound, and one class with the
site group inside the cluster group on generated regular systems.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delone_local as dl
from delone_local.antiprism_opt import (
    PHI_MAX,
    PHI_MIN,
    Lemma1Params,
    lemma1_objective,
    p_y_vertices,
)
from delone_local.delone_core import Cluster
from delone_local.equivalence import cluster_classes, cluster_isometry
from delone_local.errors import LowerDimensionalCluster
from delone_local.generators import _lattice_patch
from delone_local.geometry import Isometry
from delone_local.point_group import (
    PointGroup,
    group_from_generators,
    omega,
    stabilizer,
    tower_height,
)

from conftest import (
    closure_oracle,
    element_key,
    signed_permutations,
    tower_height_oracle,
)

N_CASES = 1000


def random_orthogonal(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q


def random_isometry(rng):
    return Isometry(random_orthogonal(rng), rng.normal(size=3) * 2.0)


def transported(c, iso):
    return Cluster(center=iso.apply(c.center), radius=c.radius,
                   members=iso.apply(c.members))


def stabilizer_keys(patch, rho, cache={}):
    c = dl.cluster(patch, [0, 0, 0], rho)
    key = tuple(np.round(np.sort(c.center_distances), 9))
    if key not in cache:
        cache[key] = frozenset(element_key(m) for m in stabilizer(c).elements)
    return cache[key]


class TestStabilizerMonotonicity:
    def test_thousand_radius_pairs(self, z3_patch):
        # growing the cluster can only remove symmetries
        rng = np.random.default_rng(101)
        checked = 0
        while checked < N_CASES:
            r1, r2 = np.sort(rng.uniform(1.0, 2.4, size=2))
            k1 = stabilizer_keys(z3_patch, float(r1))
            k2 = stabilizer_keys(z3_patch, float(r2))
            assert k2 <= k1, (r1, r2)
            checked += 1


class TestClassCountMonotonicity:
    def test_thousand_radius_pairs(self):
        # N(rho) is non-decreasing on a patch with two cluster classes
        pts = [[x, y, z] for x in range(-4, 5) for y in range(-4, 5)
               for z in range(-4, 5) if (x, y, z) != (0, 0, 0)]
        p = dl.PointPatch(pts, [-4, -4, -4], [4, 4, 4])
        grid = np.linspace(0.3, 1.9, 25)
        n_of = {float(r): cluster_classes(p, float(r)).N for r in grid}
        rng = np.random.default_rng(7)
        for _ in range(N_CASES):
            i, j = np.sort(rng.integers(0, len(grid), size=2))
            assert n_of[float(grid[i])] <= n_of[float(grid[j])]


class TestEquivalenceRelationLaws:
    def test_thousand_symmetry_and_transitivity(self, z3_patch):
        rng = np.random.default_rng(31)
        base = dl.cluster(z3_patch, [0, 0, 0], 1.0)
        for _ in range(N_CASES // 2):
            b = transported(base, random_isometry(rng))
            c = transported(base, random_isometry(rng))
            # symmetry: a ~ b iff b ~ a, with inverse witnesses
            g_ab = cluster_isometry(base, b)
            g_ba = cluster_isometry(b, base)
            assert g_ab is not None and g_ba is not None
            comp = g_ab.compose(g_ba)
            assert np.abs(comp.apply(base.center) - base.center).max() < 1e-7
            # transitivity: witnesses compose to a witness a -> c
            g_bc = cluster_isometry(b, c)
            assert g_bc is not None
            thru = g_bc.compose(g_ab)
            assert np.abs(thru.apply(base.center) - c.center).max() < 1e-7


class TestStabilizerConjugacy:
    def test_thousand_conjugations(self, z3_patch):
        rng = np.random.default_rng(53)
        base = dl.cluster(z3_patch, [0, 0, 0], 1.0)
        base_keys = {element_key(m) for m in stabilizer(base).elements}
        for _ in range(N_CASES):
            q = random_orthogonal(rng)
            iso = Isometry(q, rng.normal(size=3) * 2.0)
            g = stabilizer(transported(base, iso))
            keys = {element_key(q.T @ m @ q) for m in g.elements}
            assert keys == base_keys


class TestObjectiveAgreement:
    def test_thousand_random_feasible_points(self):
        rng = np.random.default_rng(97)
        for _ in range(N_CASES):
            phi = rng.uniform(PHI_MIN, PHI_MAX)
            psi = rng.uniform(0.0, 2 * np.pi)
            p = Lemma1Params.from_angles(phi, psi)
            px = dl.antiprism_points(p.a, p.b)
            py = p_y_vertices(p)
            d = np.linalg.norm(px[:, None] - py[None, :], axis=2).ravel()
            d = d[d >= 0.01]
            expected = float(d.min()) if d.size else np.inf
            assert lemma1_objective(p) == pytest.approx(expected, abs=1e-12)


class TestTowerBound:
    def test_thousand_random_subgroup_closures(self):
        # the closure equals the oracle closure, and its tower height is
        # Omega(|G|) + 1, as the subgroup-lattice oracle finds
        oh = signed_permutations()
        rng = np.random.default_rng(13)
        cache = {}
        for _ in range(N_CASES):
            k = int(rng.integers(1, 4))
            gens = [oh[i] for i in rng.integers(0, len(oh), size=k)]
            elements = group_from_generators(gens).elements
            key = frozenset(element_key(m) for m in elements)
            assert len(key) == len(elements)
            if key not in cache:
                assert key == {element_key(m) for m in closure_oracle(gens)}
                cache[key] = tower_height_oracle(elements)
            g = PointGroup(np.zeros(3), tuple(elements))
            assert tower_height(g) == cache[key] == omega(len(elements)) + 1


@given(gens=st.lists(st.integers(0, 47), min_size=1, max_size=2),
       x=st.tuples(*[st.integers(0, 3)] * 3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_generated_regular_systems(gens, x, seed):
    """The orbit G x + Z^3 of a point x under a group G of signed
    permutations and the integer translations is a regular system: at
    every radius it has one cluster class, and each cluster group S_x(rho)
    holds the site group G_x = {g in G : g x - x in Z^3}.

    A function, not a method: criterion 8 runs this file again inside the
    same process, and Hypothesis rejects one test run on two instances."""
    oh = signed_permutations()
    group = closure_oracle([oh[i] for i in gens])
    x = np.array(x) / 4.0
    motif = np.unique(np.array([g @ x for g in group]) % 1.0, axis=0)
    site = [g for g in group if np.all((g @ x - x) % 1.0 == 0.0)]
    # scaled to unit packing distance: the nearest image of every
    # motif difference, or a lattice vector
    d = motif[:, None] - motif[None, :]
    d = np.linalg.norm(d - np.round(d), axis=-1)
    s = 1.0 / np.min(d[d > 0], initial=1.0)
    # the box holds the cube of half-width h about s x in every
    # rotation; that cube is trusted, with s x moved to the origin
    h = 4.0
    c = s * x
    points = _lattice_patch(s * np.eye(3), s * motif, c - h * np.sqrt(3.0),
                            c + h * np.sqrt(3.0)).points
    q = random_orthogonal(np.random.default_rng(seed))
    q *= np.linalg.det(q)
    moved = (points - c) @ q.T
    patch = dl.PointPatch(moved[np.all(np.abs(moved) <= h, axis=1)],
                          [-h] * 3, [h] * 3)
    # mid-gap radii of the center's shells, up to 3
    r = np.sort(np.linalg.norm(patch.points, axis=1))
    shells = r[np.r_[True, np.diff(r) > 1e-6]]
    mids = (shells[:-1] + shells[1:]) / 2.0
    for rho in mids[mids <= 3.0]:
        assert cluster_classes(patch, rho).N == 1
        cl = dl.cluster(patch, np.zeros(3), rho)
        sv = np.linalg.svd(cl.members, compute_uv=False)
        dim = int(np.sum(sv > 1e-6 * max(1.0, sv[0])))
        try:
            elements = np.array(stabilizer(cl).elements)
        except LowerDimensionalCluster:
            assert dim < 3
            continue
        assert dim == 3
        for g in site:
            gap = np.abs(elements - q @ g @ q.T).max(axis=(1, 2))
            assert gap.min() <= 1e-6

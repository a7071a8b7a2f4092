"""Cluster equivalence and the cluster-counting function N(rho).

Two clusters are equivalent when some isometry maps center to center and
member set onto member set.  One map search, ``_maps(a, b)``, serves
clusters of affine dimension k = 1, 2 or 3 and returns every verified map
as one stack: a's frame (k independent offsets) is matched against the
k-tuples of b's offsets with the same norms and pairwise dot products,
built level by level in lexicographic order; each tuple gives one
orthogonal map q = G F^-1 (both tuples completed to a basis), and all of
them are solved, gated, snapped and checked in one pass (``_carries``):
each moved offset is looked up in its own cell of a's cached cell index
(:attr:`Cluster.offset_index`), where an offset within match_tolerance of
it must lie.  :func:`cluster_isometry` takes the first map, and
:func:`delone_local.point_group.stabilizer` all of ``_maps(c, c)``.

:func:`cluster_classes` settles, before any ball is extracted, every
center whose profile prefix (0 and the distances to its two nearest other
points, both within rho) has no neighbour within the profile window: the
prefix is the start of the profile the profile test compares, so no
cluster can pass that test with it, and it founds its own class.  It
extracts the other clusters with one batched ball query and settles those
whose profile sum (the sum of its sorted center distances) has no
neighbour within the window of their member-count group.  It sweeps the
rest representative first: each class verifies all its candidate centers
against one linear part at a time (the identity to begin with), so that
the frame search of ``_maps`` runs only for the first center of each new
orientation.  Representatives are built on first access.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .delone_core import Cluster, PointPatch, _ball_members, _profiles, match_tolerance
from .errors import NoUsableCenters, RadiusMismatch
from .geometry import FRAME_TOL, GEOM_TOL, Isometry, _frame_map

__all__ = [
    "ClusterClassDecomposition",
    "cluster_isometry",
    "cluster_classes",
    "match_tolerance",
]

#: Moved points per block of :func:`_carries`: its temporaries stay at a
#: few MB however many maps or centers a stack holds.
CARRIES_BLOCK = 1 << 15

#: Nearest other points whose distances make a center's profile prefix in
#: :func:`_settled`.  Mutual nearest neighbours share their first
#: distance, so one settles under half the centers of a jittered cubic
#: patch at 2R; two settle 337-343 of 343, and three or four, whose sum
#: window is wider, about as many at a larger KD query.
PREFIX_NEIGHBOURS = 2


def _profile_tolerance(rho: float) -> float:
    """Max-norm distance, 4 match_tolerance(rho), within which the sorted
    center distances of two equivalent rho-clusters lie: the bound of the
    profile test, of its sum prefilter and of the frame search's norm
    filter."""
    return 4.0 * match_tolerance(rho)


def _profiles_match(profiles: np.ndarray, d: np.ndarray, rho: float):
    """Which of ``profiles`` (sorted center distances of clusters with as
    many members as ``d``; one profile or a stack of rows) lie within
    :func:`_profile_tolerance` of ``d`` in max norm: the distance test
    every pair of equivalent rho-clusters passes."""
    return (np.abs(profiles - d).max(axis=-1, initial=0.0)
            <= _profile_tolerance(rho))


def _profile_partners(profiles: np.ndarray, rho: float) -> np.ndarray:
    """Which rows of ``profiles`` (n, m), with nonnegative entries, may
    have another row that :func:`_profiles_match` accepts.

    Rows within t = _profile_tolerance(rho) in max norm have sums within
    m t, so a row whose sum has no neighbour that close in sorted order
    has no partner.  The window is widened by 4 eps (t + the largest sum)
    per entry, more than the rounding of the sums, their gaps and the
    window itself, so no pair the profile test accepts is ruled out."""
    n, m = profiles.shape
    s = profiles.sum(axis=1)
    order = np.argsort(s)
    t = _profile_tolerance(rho)
    eps = np.finfo(float).eps
    close = np.diff(s[order]) <= m * (t + 4.0 * eps * (t + s.max()))
    near = np.zeros(n, dtype=bool)
    near[order[1:]] = close
    near[order[:-1]] |= close
    return near


def _prefixes(patch: PointPatch, centers: np.ndarray) -> np.ndarray:
    """The profile prefixes (n, PREFIX_NEIGHBOURS + 1) of ``centers``
    (patch points; the patch has more than PREFIX_NEIGHBOURS points): the
    distances to the center itself and its :data:`PREFIX_NEIGHBOURS`
    nearest other points (one KD query), by :func:`_profiles`, as the
    class loop computes its profile entries."""
    _, nn = patch.tree.query(centers, k=PREFIX_NEIGHBOURS + 1)
    return _profiles(patch.points[nn] - centers[:, None])


def _settled(patch: PointPatch, centers: np.ndarray, rho: float) -> np.ndarray:
    """Which ``centers`` (patch points) found their own rho-cluster class
    whatever their balls hold: those whose :func:`_prefixes` end within
    rho and have no partner in :func:`_profile_partners` among all
    centers' prefixes.  None is settled on a patch of at most
    PREFIX_NEIGHBOURS points.

    On a cluster of at least PREFIX_NEIGHBOURS + 1 members the prefix is
    the start of the profile the profile test compares, up to a near-tie
    that the KD query and ``norm`` order differently, which the partner
    window's rounding margin covers.  Two clusters within the profile
    tolerance have prefixes within it too, so a center with no prefix
    partner can neither join a class nor be joined."""
    if len(patch) <= PREFIX_NEIGHBOURS:
        return np.zeros(len(centers), dtype=bool)
    prefix = _prefixes(patch, centers)
    return (prefix[:, -1] <= rho) & ~_profile_partners(prefix, rho)


def _carries(a: Cluster, offsets: np.ndarray, qs: np.ndarray):
    """Which rows of ``offsets @ qs`` coincide with a's offsets, point for
    point: many maps (n, 3, 3) against one offset set (m, 3), or one map
    (3, 3) against many centers' offset stacks (n, m, 3).  A row passes
    when it has len(a) points, each within tol = match_tolerance(a.radius)
    of its nearest offset, and those nearest indices are one-to-one.
    Returns the pass mask (n,) and the indices (n, m): a passing row is
    the permutation its map makes.  Rows are verified in blocks of about
    ``CARRIES_BLOCK`` points.

    Each moved point is looked up in its own cell of a's cached
    :attr:`Cluster.offset_index`, which gives the same answer as a
    nearest-neighbour query over all offsets wherever it matters: every
    offset lies at least 2 tol from every cell face, so an offset within
    tol of a moved point lies in that point's cell, and an offset in
    another cell is at least 3 tol away from a point within tol of one in
    the cell (the segment between them crosses a face).  So the mask, and
    the indices on passing rows, are those of the nearest offsets."""
    n = len(offsets) if offsets.ndim == 3 else len(qs)
    m = offsets.shape[-2]
    ok, idx = np.zeros(n, dtype=bool), np.zeros((n, m), dtype=np.intp)
    if m != len(a) or not m:  # every map carries no points onto no points
        return ok | (m == len(a)), idx
    tol, cells = match_tolerance(a.radius), a.offset_index
    step = max(1, CARRIES_BLOCK // m)
    for rows in (slice(s, s + step) for s in range(0, n, step)):
        moved = ((offsets[rows] if offsets.ndim == 3 else offsets)
                 @ (qs[rows] if qs.ndim == 3 else qs))
        i, d2 = cells.lookup(moved.reshape(-1, 3))
        i, d2 = i.reshape(-1, m), d2.reshape(-1, m)
        ranked = np.sort(i, axis=1)
        ok[rows] = ((np.sqrt(d2.max(axis=1)) <= tol)
                    & (ranked[:, 1:] != ranked[:, :-1]).all(axis=1))
        idx[rows] = i
    return ok, idx


def _maps(a: Cluster, b: Cluster):
    """Every orthogonal q with q(a.offsets) = b.offsets, stacked (n, 3, 3)
    in lexicographic order of the k-tuples of b's offsets (norms and dot
    products prefiltered, zero offset skipped) that a's frame goes to,
    and their index rows (n, m) from :func:`_carries`.

    The tuples are built level by level: a boolean mask per level holds
    the norm filter and the dot filters against the earlier images, and
    its row-major nonzeros keep the lexicographic order.  All maps are
    solved, gated, snapped onto O(3) and verified (:func:`_carries`) as
    one stack.
    """
    frame = a.frame
    if frame is None:
        return np.empty((0, 3, 3)), np.empty((0, len(a)), dtype=np.intp)
    norm_tol = _profile_tolerance(a.radius)
    dot_tol = 40.0 * max(1.0, a.radius) * match_tolerance(a.radius)
    targets = b.offsets
    tnorms = np.linalg.norm(targets, axis=1)
    gram = frame @ frame.T
    tuples = np.empty((1, 0, 3))
    for i, fn in enumerate(np.linalg.norm(frame, axis=1)):
        cands = targets[(np.abs(tnorms - fn) <= norm_tol) & (tnorms > 1e-12)]
        ok = np.ones((len(tuples), len(cands)), dtype=bool)
        for j in range(i):
            ok &= np.abs(tuples[:, j] @ cands.T - gram[j, i]) <= dot_tol
        row, col = np.nonzero(ok)
        tuples = np.concatenate([tuples[row], cands[col, None]], axis=1)
    qs = _frame_map(tuples, a.frame_inv, FRAME_TOL)
    ok, idx = _carries(a, targets, qs)
    return qs[ok], idx[ok]


def cluster_isometry(a: Cluster, b: Cluster) -> Optional[Isometry]:
    """Isometry g with g(a.center) = b.center and g(a.members) = b.members,
    or None if the clusters are not equivalent.

    Raises :class:`RadiusMismatch` if the radii differ.
    """
    if abs(a.radius - b.radius) > GEOM_TOL * max(1.0, a.radius):
        raise RadiusMismatch(f"radii {a.radius:g} and {b.radius:g} differ")
    if len(a) != len(b) or not _profiles_match(
            a.center_distances, b.center_distances, a.radius):
        return None
    if len(a) == 1:
        return Isometry.translation(b.center - a.center)
    qs, _ = _maps(a, b)
    return Isometry(qs[0], b.center - qs[0] @ a.center) if len(qs) else None


class _Representatives(Sequence):
    """The representatives of a :class:`ClusterClassDecomposition`: a
    read-only sequence of clusters, each built on first access and kept,
    so that ``reps[i] is reps[i]``.  ``build`` makes the clusters of a
    list of indices at once; iterating builds all that are left in one
    call."""

    def __init__(self, build: Callable[[List[int]], List[Cluster]],
                 built: List[Optional[Cluster]]):
        self._build, self._built = build, built

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        k = range(len(self))[k]  # IndexError out of range, as a list
        if self._built[k] is None:
            self._built[k], = self._build([k])
        return self._built[k]

    def __iter__(self):
        left = [k for k, c in enumerate(self._built) if c is None]
        if left:
            for k, c in zip(left, self._build(left)):
                self._built[k] = c
        return iter(self._built)


@dataclass(frozen=True)
class ClusterClassDecomposition:
    """Partition of all usable-center rho-clusters into equivalence classes.

    ``assignment`` maps each usable center (as a coordinate tuple) to its
    class index; ``class_representatives[i]`` is the cluster at the
    lexicographically smallest center of class i, built on first access.
    """

    rho: float
    class_representatives: Sequence[Cluster]
    assignment: Dict[Tuple[float, float, float], int]

    @property
    def N(self) -> int:
        """The cluster-counting function N(rho) on this patch."""
        return len(self.class_representatives)


def cluster_classes(patch: PointPatch, rho: float) -> ClusterClassDecomposition:
    """Partition the rho-clusters at all usable centers by equivalence.

    Raises ValueError for rho < 0, and :class:`NoUsableCenters` if the
    trusted box cannot host a single rho-ball.

    Usable centers are patch points whose ball lies in the box, so the
    center lookup and margin check of
    :func:`delone_local.delone_core.cluster` hold by construction.  First
    one KD query for each center's two nearest other points settles the
    centers of :func:`_settled`: their profile prefixes rule out every
    partner, so each founds its own class before its ball is extracted.
    On a jittered patch that is nearly every center; on a lattice, none.
    One batched ball query (``delone_core._ball_members``) over the other
    centers extracts their clusters.  They are grouped by member count,
    with their offsets stacked and their profiles (``_profiles``) sorted
    in one call per group.  A center that :func:`_profile_partners` rules
    out has no partner in its group: it founds its own class at once.
    Removing a center that no other can match changes no other center's
    class, so the settled centers leave the sweep below as they would
    have come out of it.

    A representative-first sweep over the other centers of each group
    then builds the classes: each new representative is the first
    unassigned center in lexicographic order.  Of the later unassigned
    centers of its group, those that pass the profile test of
    :func:`cluster_isometry` are verified against its identity part in
    one :func:`_carries` call.  Of those left over, the first runs the
    frame search of ``_maps``; a map found that way joins the class with
    that center and is tried on the rest at once, and a center whose
    search fails stays unassigned for a later class.  So every center
    joins the first class that has a verified map to it, as in
    :func:`cluster_isometry` against each representative in turn.  The
    class ids are the ranks of the representatives' indices, and a
    ``Cluster`` is built only for a representative or a frame search:
    here only when a candidate is left to verify, otherwise on first
    access to ``class_representatives``, which is also when a settled
    center's ball is queried (all that are left in one query when the
    representatives are iterated).
    """
    if rho < 0:
        raise ValueError("cluster radius must be non-negative")
    centers = patch.usable_centers(rho)
    if len(centers) == 0:
        raise NoUsableCenters(
            f"no center supports radius {rho:g} inside the trusted box")
    rho = float(rho)
    balls = np.full(len(centers), None, dtype=object)

    def extract(ids):  # the balls of ids not yet queried, in one query
        ids = ids[np.equal(balls[ids], None)]
        if len(ids):
            balls[ids] = _ball_members(patch, centers[ids], rho)

    def make(i):
        return Cluster(centers[i], rho, patch.points[balls[i]])

    swept = np.flatnonzero(~_settled(patch, centers, rho))
    extract(swept)
    counts = np.array([len(idx) for idx in balls[swept]])

    rep = np.arange(len(centers))  # each center's representative index
    built: Dict[int, Cluster] = {}
    for m in np.unique(counts):
        ids = swept[counts == m]
        offsets = (patch.points[np.concatenate(balls[ids])].reshape(-1, m, 3)
                   - centers[ids, None])
        profiles = _profiles(offsets)
        keep = _profile_partners(profiles, rho)
        ids, offsets, profiles = ids[keep], offsets[keep], profiles[keep]
        for p, i in enumerate(ids):
            if rep[i] != i:
                continue
            later = ids[p + 1:]
            left = p + 1 + np.flatnonzero(
                (rep[later] == later)
                & _profiles_match(profiles[p + 1:], profiles[p], rho))
            if not len(left):
                continue
            built[i] = a = make(i)
            q = np.eye(3)
            while len(left):  # q is verified against the class: try it on all
                hit, _ = _carries(a, offsets[left], q)
                rep[ids[left[hit]]] = i
                left = left[~hit]
                while len(left):  # frame search on the first leftover
                    j, left = ids[left[0]], left[1:]
                    qs, _ = _maps(a, make(j))
                    if len(qs):
                        rep[j], q = i, qs[0]
                        break
    reps = np.flatnonzero(rep == np.arange(len(centers)))

    def build(ks):  # settled representatives' balls are queried here
        extract(reps[ks])
        return [make(i) for i in reps[ks]]

    return ClusterClassDecomposition(
        rho=rho,
        class_representatives=_Representatives(
            build, [built.get(i) for i in reps.tolist()]),
        assignment=dict(zip(map(tuple, centers.tolist()),
                            np.searchsorted(reps, rep).tolist())),
    )

"""Cluster equivalence and the cluster-counting function N(rho).

Two clusters are equivalent when some isometry maps center to center and
member set onto member set.  One lazy generator, ``_maps(a, b)``, serves
clusters of affine dimension k = 1, 2 or 3: a's frame (k independent
offsets) is matched against k-tuples of b's offsets with the same norms
and pairwise dot products, in lexicographic order; each tuple gives one
orthogonal map q = G F^-1 (both tuples completed to a basis), which is
yielded once it maps b's offsets back onto a's cached KD-tree
(``_carries``).  :func:`cluster_isometry` takes its first map, and
:func:`delone_local.point_group.stabilizer` all of ``_maps(c, c)``.

:func:`cluster_classes` extracts every cluster with one batched ball query
and, per class, first tries the linear parts that have already verified
against the class (the identity to begin with), so that the frame search
of ``_maps`` runs only for the first center of each new orientation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .delone_core import Cluster, PointPatch
from .errors import NoUsableCenters, RadiusMismatch
from .geometry import GEOM_TOL, Isometry, _frame_map

__all__ = [
    "ClusterClassDecomposition",
    "cluster_isometry",
    "cluster_classes",
    "match_tolerance",
]

def match_tolerance(rho: float) -> float:
    """Point-matching tolerance for clusters of radius rho.

    Relative: frame-based isometry estimates amplify input noise at
    distance, so the tolerance scales with the cluster radius.
    """
    return 1e-7 * max(1.0, float(rho))


def _profiles_match(profiles: np.ndarray, d: np.ndarray, rho: float):
    """Which of ``profiles`` (sorted center distances of clusters with as
    many members as ``d``; one profile or a stack of rows) lie within
    4 match_tolerance(rho) of ``d`` in max norm: the distance test every
    pair of equivalent rho-clusters passes."""
    return (np.abs(profiles - d).max(axis=-1, initial=0.0)
            <= 4.0 * match_tolerance(rho))


def _carries(a: Cluster, offsets: np.ndarray, q: np.ndarray) -> bool:
    """True iff the orthogonal q maps a's offsets onto ``offsets``:
    q^T(offsets) coincides with a's cached :attr:`Cluster.offset_tree`
    within match_tolerance(a.radius), point for point."""
    tree = a.offset_tree
    if len(offsets) != tree.n:
        return False
    d, idx = tree.query(offsets @ q)
    return (float(d.max()) <= match_tolerance(a.radius)
            and len(np.unique(idx)) == tree.n)


def _maps(a: Cluster, b: Cluster) -> Iterator[np.ndarray]:
    """Lazily yield each orthogonal q with q(a.offsets) = b.offsets, in
    lexicographic order of the k-tuples of b's offsets (norms and dot
    products prefiltered, zero offset skipped) that a's frame goes to.

    Each solved q is snapped onto O(3) and verified by :func:`_carries`.
    """
    frame = a.frame
    if frame is None:
        return
    mtol = match_tolerance(a.radius)
    norm_tol = 4.0 * mtol
    dot_tol = 40.0 * max(1.0, a.radius) * mtol
    targets = b.offsets
    tnorms = np.linalg.norm(targets, axis=1)
    gram = frame @ frame.T
    cands = [targets[(np.abs(tnorms - fn) <= norm_tol) & (tnorms > 1e-12)]
             for fn in np.linalg.norm(frame, axis=1)]

    def extend(images: List[np.ndarray]) -> Iterator[np.ndarray]:
        i = len(images)
        if i == len(frame):
            q = _frame_map(images, a.frame_inv, 1e-5)
            if q is not None and _carries(a, targets, q):
                yield q
            return
        ok = cands[i]
        for j, g in enumerate(images):
            ok = ok[np.abs(ok @ g - gram[j, i]) <= dot_tol]
        for g in ok:
            yield from extend(images + [g])

    yield from extend([])


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
    q = next(_maps(a, b), None)
    return None if q is None else Isometry(q, b.center - q @ a.center)


@dataclass(frozen=True)
class ClusterClassDecomposition:
    """Partition of all usable-center rho-clusters into equivalence classes.

    ``assignment`` maps each usable center (as a coordinate tuple) to its
    class index; ``class_representatives[i]`` is the cluster at the
    lexicographically smallest center of class i.
    """

    rho: float
    class_representatives: List[Cluster]
    assignment: Dict[Tuple[float, float, float], int]

    @property
    def N(self) -> int:
        """The cluster-counting function N(rho) on this patch."""
        return len(self.class_representatives)


def cluster_classes(patch: PointPatch, rho: float) -> ClusterClassDecomposition:
    """Partition the rho-clusters at all usable centers by equivalence.

    Raises ValueError for rho < 0, and :class:`NoUsableCenters` if the
    trusted box cannot host a single rho-ball.

    One ``query_ball_point`` call over all usable centers extracts every
    cluster; usable centers are patch points whose ball lies in the box,
    so the center lookup and margin check of
    :func:`delone_local.delone_core.cluster` hold by construction.
    Centers are visited in lexicographic order and compared against the
    current class representatives only, so the representative of each
    class is its lexicographically smallest center.  The representatives'
    distance profiles are stacked by member count; one comparison against
    the stack picks the classes that pass the profile test of
    :func:`cluster_isometry`.  For each of those, in class order, the
    linear parts already verified against the class (the identity first)
    are tried before the frame search of ``_maps``, whose map, if any,
    joins them.  Every accepted map passes the same verification
    (:func:`_carries`) as in :func:`cluster_isometry`, and a ``Cluster``
    is built only for a representative or a frame search.
    """
    if rho < 0:
        raise ValueError("cluster radius must be non-negative")
    centers = patch.usable_centers(rho)
    if len(centers) == 0:
        raise NoUsableCenters(
            f"no center supports radius {rho:g} inside the trusted box")
    rho = float(rho)
    balls = patch.tree.query_ball_point(centers, rho + patch.geom_tol)
    reps: List[Cluster] = []
    parts: List[List[np.ndarray]] = []  # per class: verified linear parts
    # member count -> (class indices, their representatives' profiles)
    by_count: Dict[int, Tuple[List[int], np.ndarray]] = {}
    assignment: Dict[Tuple[float, float, float], int] = {}
    for c, idx in zip(centers, balls):
        members = patch.points[idx]
        offsets = members - c
        d = np.sort(np.linalg.norm(offsets, axis=1))
        ids, stack = by_count.get(len(d), ([], np.empty((0, len(d)))))
        found = cl = None
        for j in np.flatnonzero(_profiles_match(stack, d, rho)):
            rep, known = reps[ids[j]], parts[ids[j]]
            if any(_carries(rep, offsets, q) for q in known):
                found = ids[j]
                break
            if cl is None:
                cl = Cluster(c, rho, members)
            q = next(_maps(rep, cl), None)
            if q is not None:
                known.append(q)
                found = ids[j]
                break
        if found is None:
            found = len(reps)
            reps.append(Cluster(c, rho, members) if cl is None else cl)
            parts.append([np.eye(3)])
            by_count[len(d)] = (ids + [found], np.vstack([stack, d]))
        assignment[tuple(c)] = found
    return ClusterClassDecomposition(
        rho=rho,
        class_representatives=reps,
        assignment=assignment,
    )

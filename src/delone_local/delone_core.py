"""Finite patches of Delone sets: clusters, shells, and set parameters.

An infinite Delone set is represented by a finite :class:`PointPatch`
together with an explicit axis-aligned ``trusted_box``: the caller asserts
that the patch points are exactly the intersection of the intended
infinite set with the box.  Every cluster/shell operation enforces a
margin discipline — a ball that exits the trusted box raises
:class:`MarginViolation` rather than silently truncating the cluster.

The packing convention is the unit-distance scaling: pairwise distances
of a valid patch are >= 1 (packing radius 1/2).  ``R`` denotes the
covering radius, i.e. the radius of the largest ball empty of set points.

``scipy.spatial`` is imported inside the functions that use it:
``PointPatch`` (its KD tree) and ``_solid_circumballs`` (Qhull) here, and
``point_group._grow``.  Code that builds no patch never pays for it.

The closed-ball membership rule (:func:`_ball_members`) and the sorted
distance profile (:func:`_profiles`) each have their one home here.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    BoxTooSmall,
    CenterNotInPatch,
    MarginViolation,
    ParseError,
    TooFewPoints,
)
from .geometry import GEOM_TOL, _complete_basis, _cross, as_point, as_points

#: Slack of ``covering_radius``'s emptiness check on the joggled
#: triangulation's winner, relative to the largest box-centered coordinate
#: (at least 1): the winning ball may hold no point deeper than this.  It is
#: roundoff scale, far below the 1e-12 to which R is checked and below any
#: joggle Qhull picks, and does not depend on that joggle.
JOGGLE_TOL = 1e-13

#: Side of an offset index's cells on a unit-distance cluster: the cell
#: diagonal, sqrt(3)/2, is below the unit spacing, so no two points of a
#: valid patch share a cell.
CELL = 0.5
_AXES = np.arange(3)

#: Spacing of the grid on the cut plane whose largest distance to the set,
#: plus CUT_GRID/sqrt(2), is ``covering_radius``'s cut width.  A finer grid
#: narrows the slabs by at most that slack and costs quadratically more KD
#: queries; at 1/2 the slack is 0.35, under a third of the widths on the
#: stock patches (1.06 to 1.5), and the grid on a +-10 box has 1681 nodes.
CUT_GRID = 0.5

__all__ = [
    "PointPatch",
    "Cluster",
    "packing_diameter",
    "covering_radius",
    "cluster",
    "shell",
    "load_patch",
    "save_patch",
    "lex_sort",
]


def match_tolerance(rho: float) -> float:
    """Point-matching tolerance for clusters of radius rho.

    Relative: frame-based isometry estimates amplify input noise at
    distance, so the tolerance scales with the cluster radius.
    """
    return 1e-7 * max(1.0, float(rho))


def lex_sort(points: np.ndarray) -> np.ndarray:
    """Sort points lexicographically by (x, y, z)."""
    points = as_points(points)
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    return points[order]


class PointPatch:
    """Finite point set plus the axis-aligned box it is trusted on, which
    holds every point within geom_tol (else :class:`MarginViolation`,
    whose ``row`` is the index of the first point outside) and whose
    squared diagonal is finite (else ValueError).

    Attributes:
        points: (n, 3) array of patch points.
        box_lo, box_hi: corners of the trusted box.
        declared_R: covering radius declared by the producer of the patch,
            if any (positive and finite, else ValueError); overrides the
            patch-restricted estimate on request.
        packing_violations: list of index pairs closer than 1 - geom_tol.
            A nonempty list means the patch is not a valid unit-distance
            Delone patch; operations still run, but consumers (e.g. the
            CLI) surface the violation.
    """

    #: Distance tolerance of membership, center lookup and the box margin.
    geom_tol = GEOM_TOL

    def __init__(self, points, box_lo, box_hi, declared_R: Optional[float] = None):
        self.points = as_points(points)
        self.box_lo = as_point(box_lo)
        self.box_hi = as_point(box_hi)
        if np.any(self.box_hi <= self.box_lo):
            raise BoxTooSmall("trusted box is degenerate (hi <= lo on some axis)")
        with np.errstate(over="ignore"):  # distances in the box get squared
            diagonal2 = np.sum(np.square(self.box_hi - self.box_lo))
        if not np.isfinite(diagonal2):
            raise ValueError("trusted box is too large: its squared diagonal "
                             "is not finite")
        outside = np.flatnonzero(~self.ball_inside_box(self.points, 0.0))
        if len(outside):
            err = MarginViolation(f"point {self.points[outside[0]].tolist()} "
                                  "lies outside the box")
            err.row = int(outside[0])
            raise err
        self.declared_R = None if declared_R is None else _declared_R(declared_R)
        self._tree = None
        self.packing_violations = []
        if len(self.points):
            from scipy.spatial import cKDTree
            self._tree = cKDTree(self.points)
            self.packing_violations = sorted(self._tree.query_pairs(1.0 - self.geom_tol))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def tree(self):
        """The patch's KD tree (scipy's ``cKDTree``)."""
        if self._tree is None:
            raise TooFewPoints("patch has no points")
        return self._tree

    @property
    def packing_ok(self) -> bool:
        return not self.packing_violations

    def index_of(self, center) -> int:
        """Index of the patch point equal to ``center`` within geom_tol."""
        c = as_point(center)
        dist, idx = self.tree.query(c)
        if dist > self.geom_tol:
            raise CenterNotInPatch(
                f"no patch point within {self.geom_tol:g} of {c.tolist()}")
        return int(idx)

    def ball_inside_box(self, center, rho):
        """Whether the closed ball B(center, rho) lies in the trusted box
        (within geom_tol).  A stack of centers (n, 3) gives one answer
        per center, with ``rho`` a scalar or an (n, 1) column."""
        return _ball_inside(np.asarray(center, dtype=float), rho,
                            self.box_lo, self.box_hi, self.geom_tol)

    def usable_centers(self, rho: float) -> np.ndarray:
        """Patch points whose rho-ball stays inside the trusted box,
        sorted lexicographically."""
        return lex_sort(self.points[self.ball_inside_box(self.points, rho)])


def _declared_R(value) -> float:
    """A declared covering radius, once checked positive and finite."""
    R = float(value)
    if not (np.isfinite(R) and R > 0):
        raise ValueError(f"declared R must be positive and finite, got {R}")
    return R


def _ball_inside(c, rho, lo, hi, tol):
    """Whether B(c, rho) lies in the box [lo, hi] within tol, per center."""
    return np.all((c - rho >= lo - tol) & (c + rho <= hi + tol), axis=-1)


@dataclass(frozen=True, eq=False)
class Cluster:
    """The cluster C_x(rho): all set points within the closed rho-ball at x.

    Members are kept in lexicographic order.  A cluster caches what map
    verification against it needs: its frame, the frame's inverse, and a
    cell index of its offsets (:class:`_CellIndex`)."""

    center: np.ndarray
    radius: float
    members: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "members", lex_sort(self.members))

    def __len__(self) -> int:
        return len(self.members)

    @property
    def offsets(self) -> np.ndarray:
        """Members relative to the center (center's own offset included)."""
        return self.members - self.center

    @cached_property
    def center_distances(self) -> np.ndarray:
        """Sorted distances of members from the center (cached, read-only)."""
        d = _profiles(self.offsets)
        d.flags.writeable = False
        return d

    def affine_dimension(self) -> int:
        """Dimension of the affine hull: singular values > 1e-9 max(1, s_max)
        (cached)."""
        return self._affine_dimension

    @cached_property
    def _affine_dimension(self) -> int:
        if len(self.members) <= 1:
            return 0
        diffs = self.members - self.members[0]
        s = np.linalg.svd(diffs, compute_uv=False)
        return int(np.sum(s > 1e-9 * max(1.0, float(s[0]))))

    @cached_property
    def frame(self) -> Optional[np.ndarray]:
        """affine_dimension() independent offsets (rows), or None for a
        one-point cluster.

        Picked greedily (largest norm, then cross product, then triple
        product) among the 12 nonzero offsets nearest the center, ranked
        by distance and then lexicographically; the window doubles while
        it spans too few dimensions (None if it never does).  Cached, so a
        cluster compared many times picks its frame once.
        """
        want = self.affine_dimension()
        if want == 0:
            return None
        offs = self.offsets
        ds = np.linalg.norm(offs, axis=1)
        offs, ds = offs[ds > 1e-12], ds[ds > 1e-12]
        offs = offs[np.lexsort((offs[:, 2], offs[:, 1], offs[:, 0], np.round(ds, 9)))]
        k = 12
        while True:
            picked = _greedy_frame(offs[:k], want)
            if picked is not None or k >= len(offs):
                return picked
            k *= 2

    @cached_property
    def frame_inv(self) -> np.ndarray:
        """Inverse of the frame completed to a basis (cached; needs a frame)."""
        return np.linalg.inv(_complete_basis(self.frame[None])[0])

    @cached_property
    def frame_rows(self) -> np.ndarray:
        """Indices of the frame's offsets among the offsets (cached)."""
        return self.offset_index.lookup(self.frame)[0]

    @cached_property
    def offset_index(self) -> "_CellIndex":
        """Cell index of the offsets at match_tolerance(radius) (cached),
        the target of map verification."""
        return _CellIndex(self.offsets, match_tolerance(self.radius))


class _CellIndex:
    """Points (m, 3) in a grid of cubic cells, for finding the point
    within ``tol`` of a query point, if any, in the query's own cell.

    The cell side h starts at ``CELL`` (or half the smallest step between
    lexicographic neighbours, if less) and, while two points share a
    cell, drops to half the smallest distance between two that do; it is
    never below 4 m tol, nor so small that the points span more than 2^17
    cells per axis (so keys are exact in floats).  Per axis, the grid is
    shifted into the middle of the widest gap between the points'
    residues mod h: of m residues on a circle of length h the widest gap
    is at least h / m, so every point lies at least h / (2m) >= 2 tol
    from every cell face.  A layer of empty cells surrounds the points,
    and queries are clamped into it.  Only the points' cell keys are
    kept, sorted, with the points in that order: O(m) memory.
    """

    def __init__(self, points: np.ndarray, tol: float):
        self.points = points
        span = points.max(axis=0) - points.min(axis=0)
        least = max(4.0 * len(points) * tol, float(span.max()) / 2.0**17)
        step = points[1:] - points[:-1]  # points are in lexicographic order
        nearest = float(np.sqrt(np.einsum("ij,ij->i", step, step).min(initial=1.0)))
        h = max(least, min(CELL, nearest / 2.0))
        while True:
            residues = np.sort(np.mod(points, h), axis=0)
            gaps = np.concatenate([residues[1:], residues[:1] + h]) - residues
            shift = (residues + gaps / 2.0)[gaps.argmax(axis=0), _AXES]
            cells = np.floor((points - shift) / h)
            low = cells.min(axis=0) - 1.0  # an empty layer below the points
            cells -= low
            dims = cells.max(axis=0) + 2.0  # and one above
            self.weights = np.array([dims[1] * dims[2], dims[2], 1.0])
            keys = cells @ self.weights
            self.order = np.argsort(keys, kind="stable")
            self.keys = keys[self.order]
            shared = self.keys[1:] == self.keys[:-1]
            if not shared.any() or h <= least:
                break
            pairs = points[self.order[1:][shared]] - points[self.order[:-1][shared]]
            h = max(least, float(np.sqrt(np.einsum("ij,ij->i", pairs, pairs).min())) / 2.0)
        self.h, self.base = h, shift + h * low
        self.clamp = self.base + h / 2.0, self.base + h * (dims - 0.5)
        # the most points that share one cell
        self.depth = int((np.searchsorted(self.keys, self.keys, "right")
                          - np.arange(len(self.keys))).max())

    def lookup(self, x: np.ndarray):
        """For each query row of x (n, 3), the index of the point of its
        cell nearest to it and their squared distance.  Where the cell is
        empty, or holds fewer than ``depth`` points, points of other cells
        stand in, and they lie at least 2 tol away: every point does from
        every face of its own cell."""
        u = np.maximum(x, self.clamp[0])
        x = np.minimum(u, self.clamp[1], out=u)  # queries outside land in the empty layer
        u = x - self.base
        u /= self.h
        j = np.searchsorted(self.keys, np.floor(u, out=u) @ self.weights)
        last = len(self.keys) - 1
        idx = self.order[np.minimum(j, last, out=j)]
        d2 = _squared_distances(x, self.points, idx)
        for t in range(1, self.depth):  # the cells' further points
            other = self.order[np.minimum(j + t, last)]
            dt = _squared_distances(x, self.points, other)
            better = dt < d2
            idx, d2 = np.where(better, other, idx), np.where(better, dt, d2)
        return idx, d2


def _squared_distances(x: np.ndarray, points: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Squared distance from each row of x to its point points[idx]."""
    diff = x - points.take(idx, axis=0)
    return np.einsum("ij,ij->i", diff, diff)


def _greedy_frame(cand: np.ndarray, want: int) -> Optional[np.ndarray]:
    """The first ``want`` vectors of the greedy frame of ``cand`` (ties
    break to the first index), or None if they would be dependent."""
    picked = [cand[int(np.argmax(np.round(np.einsum("ij,ij->i", cand, cand), 9)))]]
    while len(picked) < want:
        if len(picked) == 1:
            cross = np.stack(_cross(picked[0], cand.T), axis=1)
            score = np.einsum("ij,ij->i", cross, cross)
        else:
            score = np.abs(cand @ np.array(_cross(picked[0], picked[1])))
        score = np.round(score, 9)
        i = int(np.argmax(score))
        if score[i] <= 1e-9:
            return None
        picked.append(cand[i])
    return np.array(picked)


def packing_diameter(patch: PointPatch) -> float:
    """Minimal pairwise distance of the patch (equals 2r of the patch)."""
    if len(patch) < 2:
        raise TooFewPoints("packing_diameter needs at least two points")
    d, _ = patch.tree.query(patch.points, k=2)
    return float(d[:, 1].min())


def covering_radius(patch: PointPatch) -> float:
    """Radius of the largest empty ball centered well inside the box.

    The maximizing center is sought among the circumcenters of the
    Delaunay cells of the patch whose circumball lies inside the trusted
    box: those are the Voronoi vertices (the only local maxima of the
    distance-to-set function away from the boundary), and a Delaunay
    cell's circumball is empty, so its radius is the distance from its
    center to the set.  Each center is solved in closed form from the
    patch points of the cell, taken in index order (``_circumcenters``),
    so its bits depend on the cell's vertex set alone; flat cells drop out.

    The cells come from Qhull's triangulation of the box-centered points
    under its own default joggle (``QJ`` with no size), so a lattice's
    cospherical cells are split, not merged, in one pass: a smaller joggle
    meets a precision error on an exact lattice, and Qhull rebuilds the
    hull with a larger one.  The winning ball stands if one KD query finds
    no point inside it by more than ``JOGGLE_TOL`` times the largest
    box-centered coordinate (at least 1), a roundoff-scale slack that does
    not depend on the joggle.  On a patch that is cospherical only up to
    noise the joggled cells need not be the patch's, and the check fails;
    the cells then come from Qhull's default, merging triangulation,
    checked as ``_largest_fitting_ball`` does.  Qhull's joggle is seeded,
    so R is the same in every run.

    Where the process may run on two CPUs, each route triangulates two
    overlapping slabs of the box at once, one on a short-lived second
    thread (``_slabs``): the box cut at the middle m of its longest axis,
    each half grown by the cut width w past m.  Only the cells whose
    circumball fits their own slab count, and those balls are empty in
    the whole patch.  No fitting ball is lost: a ball that fits the box
    but neither slab reaches past m - w and m + w, so it holds a ball of
    radius more than w centered on the cut plane.  w is the largest
    distance to the set over a grid of spacing ``CUT_GRID`` on the plane's
    rectangle, plus CUT_GRID/sqrt(2), and since the distance to the set is
    1-Lipschitz, no point of the plane is farther than w from the set: no
    such ball is empty.  The box is triangulated whole on one CPU, where m +- w
    leaves the box, and where Qhull finds no solid cell in a slab or no
    fitting one in either.

    Raises :class:`BoxTooSmall` where Qhull cannot triangulate the patch
    (a planar one, say) or no circumball fits the box.
    """
    if len(patch) < 2:
        raise TooFewPoints("covering_radius needs at least two points")
    pts = patch.points - 0.5 * (patch.box_lo + patch.box_hi)
    slack = JOGGLE_TOL * max(1.0, float(np.abs(pts).max()))
    slabs = _slabs(patch)
    centers, radii = _circumballs(patch, pts, slabs, "QJ")
    i = _largest_fitting(patch, centers, radii)
    if i is not None and patch.tree.query(centers[i])[0] >= radii[i] - slack:
        return float(radii[i])
    centers, radii = _circumballs(patch, pts, slabs, None)
    if len(radii) == 0:
        raise BoxTooSmall("covering_radius: Qhull cannot triangulate the "
                          "patch (flat, or too few points)")
    best = _largest_fitting_ball(patch, centers, radii)
    if best is None:
        raise BoxTooSmall("covering_radius: no Delaunay circumball fits "
                          "inside the trusted box")
    return best


def _slabs(patch: PointPatch) -> Optional[list]:
    """The two slabs ``covering_radius`` triangulates, each (indices of its
    points, box_lo, box_hi): the halves of the box along its longest axis,
    grown by the cut width (see :func:`covering_radius`).  None where the
    box is triangulated whole: on one CPU, or where m +- w leaves it."""
    if _cpus() < 2:
        return None
    lo, hi = patch.box_lo, patch.box_hi
    a = int(np.argmax(hi - lo))
    m = 0.5 * (lo[a] + hi[a])
    w = _cut_width(patch, a, m)
    if not (lo[a] < m - w and m + w < hi[a]):
        return None
    x, tol = patch.points[:, a], patch.geom_tol
    lower_hi, upper_lo = hi.copy(), lo.copy()
    lower_hi[a], upper_lo[a] = m + w, m - w
    return [(np.flatnonzero(x <= m + w + tol), lo, lower_hi),
            (np.flatnonzero(x >= m - w - tol), upper_lo, hi)]


def _cut_width(patch: PointPatch, a: int, m: float) -> float:
    """Largest distance to the set over a ``CUT_GRID`` grid on the box's
    section x_a = m, plus CUT_GRID/sqrt(2): no point of that section is
    farther from the set."""
    b, c = [k for k in range(3) if k != a]
    ub, uc = (np.linspace(patch.box_lo[k], patch.box_hi[k],
                          int(np.ceil((patch.box_hi[k] - patch.box_lo[k])
                                      / CUT_GRID)) + 1) for k in (b, c))
    grid = np.full((len(ub) * len(uc), 3), m)
    grid[:, b], grid[:, c] = np.repeat(ub, len(uc)), np.tile(uc, len(ub))
    return float(patch.tree.query(grid)[0].max()) + CUT_GRID / np.sqrt(2.0)


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_halves(fn, items) -> list:
    """``[fn(x) for x in items]``, the second half of ``items`` on one
    worker thread where this process may run on two or more CPUs.  The
    worker is joined before this returns, and an error it raises is
    raised here."""
    h = (len(items) + 1) // 2
    if h == len(items) or _cpus() < 2:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=1) as worker:
        second = worker.submit(lambda: [fn(x) for x in items[h:]])
        return [fn(x) for x in items[:h]] + second.result()


def _circumballs(patch: PointPatch, pts: np.ndarray, slabs, qhull_options):
    """Circumcenters and radii of the solid cells of Qhull's Delaunay
    triangulation of ``pts`` (the patch points moved by one vector) under
    ``qhull_options``; none where Qhull fails.

    With ``slabs``, each slab is triangulated, the second on a worker
    thread (``_map_halves``), and the cells whose ball fits their
    own slab are kept, in slab order.  Where a slab has no solid cell, or
    no cell is kept, the whole patch is triangulated instead.
    """
    if slabs is not None:
        parts = _map_halves(lambda slab: _solid_circumballs(
            patch, pts, slab[0], qhull_options), slabs)
        if all(len(radii) for _, radii in parts):
            kept = []
            for (_, lo, hi), (centers, radii) in zip(slabs, parts):
                fits = _ball_inside(centers, radii[:, None], lo, hi,
                                    patch.geom_tol)
                kept.append((centers[fits], radii[fits]))
            centers, radii = (np.concatenate(k) for k in zip(*kept))
            if len(radii):
                return centers, radii
    return _solid_circumballs(patch, pts, np.arange(len(pts)), qhull_options)


def _solid_circumballs(patch: PointPatch, pts: np.ndarray, idx: np.ndarray,
                       qhull_options):
    """Circumcenters and radii of the solid cells of Qhull's triangulation
    of ``pts[idx]``, each cell's vertices in index order; none where Qhull
    fails."""
    from scipy.spatial import Delaunay, QhullError
    try:
        simplices = Delaunay(pts[idx], qhull_options=qhull_options).simplices
    except (QhullError, ValueError):
        simplices = np.empty((0, 4), dtype=np.intp)
    simplices = np.sort(idx[simplices], axis=1)
    centers, radii = _circumcenters(patch.points, simplices)
    solid = np.isfinite(radii)
    return centers[solid], radii[solid]


def _circumcenters(points: np.ndarray, simplices: np.ndarray):
    """Circumcenters and circumradii of the tetrahedra ``points[simplices]``.

    With the edges u, v, w from the first vertex p, the center is
    p + (|u|^2 v x w + |v|^2 w x u + |w|^2 u x v) / (2 u . v x w).  A flat
    tetrahedron (zero determinant) gets a radius that is not finite.
    Vectors are triples of coordinate arrays, one entry per tetrahedron.
    """
    coords = points.T.copy()
    p = [c[simplices[:, 0]] for c in coords]
    u, v, w = ([c[simplices[:, k]] - pc for c, pc in zip(coords, p)]
               for k in (1, 2, 3))
    vw, wu, uv = _cross(v, w), _cross(w, u), _cross(u, v)
    su, sv, sw = _dot(u, u), _dot(v, v), _dot(w, w)
    det2 = 2.0 * _dot(u, vw)
    with np.errstate(divide="ignore", invalid="ignore"):
        offsets = [(su * a + sv * b + sw * c) / det2
                   for a, b, c in zip(vw, wu, uv)]
    centers = np.stack([pc + o for pc, o in zip(p, offsets)], axis=1)
    return centers, np.sqrt(_dot(offsets, offsets))


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _largest_fitting(patch: PointPatch, centers: np.ndarray,
                     radii: np.ndarray) -> Optional[int]:
    """Index of the largest ball B(centers[i], radii[i]) that lies in the
    trusted box, or None if none does."""
    inside = np.flatnonzero(patch.ball_inside_box(centers, radii[:, None]))
    return inside[np.argmax(radii[inside])] if len(inside) else None


def _largest_fitting_ball(patch: PointPatch, centers: np.ndarray,
                          radii: np.ndarray) -> Optional[float]:
    """Largest radius among the balls B(centers[i], radii[i]) that lie in
    the trusted box, or None if none does.

    One KD query checks that the winning ball is empty.  If a patch point
    lies closer than its radius less geom_tol, the radii are not those of
    empty balls, and every center is scored by its distance to the set
    instead.
    """
    i = _largest_fitting(patch, centers, radii)
    if i is None:
        return None
    if patch.tree.query(centers[i])[0] >= radii[i] - patch.geom_tol:
        return float(radii[i])
    return _largest_fitting_ball(patch, centers, patch.tree.query(centers)[0])


def cluster(patch: PointPatch, center, rho: float) -> Cluster:
    """The cluster C_center(rho) of the patch (closed ball membership):
    the points within rho + geom_tol of the patch point at ``center``,
    whose rho-ball must lie in the trusted box."""
    c = patch.points[patch.index_of(center)]
    if rho < 0:
        raise ValueError("cluster radius must be non-negative")
    if not patch.ball_inside_box(c, rho):
        raise MarginViolation(
            f"ball of radius {rho:g} at {c.tolist()} exits the trusted box")
    return Cluster(center=c, radius=float(rho),
                   members=patch.points[_ball_members(patch, c, rho)])


def _ball_members(patch: PointPatch, centers: np.ndarray, rho: float):
    """Indices of the patch points in the closed rho-ball at ``centers``
    (within geom_tol), in no set order: the membership rule of every
    cluster.  One center (3,) gives a list; a stack (n, 3) gives an object
    array of n lists, from one KD query."""
    return patch.tree.query_ball_point(centers, rho + patch.geom_tol,
                                       return_sorted=False)


def _profiles(offsets: np.ndarray) -> np.ndarray:
    """Sorted distances from the center of each offset set: the profile
    that two equivalent clusters share, of one set (m, 3) or a stack
    (n, m, 3)."""
    return np.sort(np.linalg.norm(offsets, axis=-1), axis=-1)


def shell(patch: PointPatch, center, rho: float) -> np.ndarray:
    """The rho-shell: the members of ``cluster(patch, center, rho)`` at
    distance rho within geom_tol, in lexicographic order.  It holds the
    center only where rho <= geom_tol, and then (in a valid patch) alone."""
    if rho < 0:
        raise ValueError("shell radius must be non-negative")
    c = cluster(patch, center, rho)
    d = np.linalg.norm(c.offsets, axis=1)
    return c.members[np.abs(d - rho) <= patch.geom_tol]


# --- point-set file I/O -----------------------------------------------------
#
# Format: UTF-8 text, LF newlines; one point per line "x y z"
# (whitespace-separated decimals); '#' starts a comment.  Recognized header
# comments: "# box lo_x lo_y lo_z hi_x hi_y hi_z" and "# R <value>".

def save_patch(patch: PointPatch, path) -> None:
    """Write a patch in the point-set file format."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        lo, hi = patch.box_lo, patch.box_hi
        f.write("# box %.10g %.10g %.10g %.10g %.10g %.10g\n"
                % (lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]))
        if patch.declared_R is not None:
            f.write("# R %.10g\n" % patch.declared_R)
        if len(patch) >= 2:
            f.write("# min_dist %.10g\n" % packing_diameter(patch))
        for p in patch.points:
            f.write("%.10g %.10g %.10g\n" % (p[0], p[1], p[2]))


def load_patch(path) -> PointPatch:
    """Read a patch from the point-set file format.

    If no "# box" header is present, the bounding box of the points
    (padded by nothing) is used as the trusted box.  A non-finite number,
    an "# R" header that is not positive, or a point outside the box (see
    :class:`PointPatch`) raises :class:`ParseError` with its line.
    """
    rows = []  # (line number, data line)
    box = None
    declared_R = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if fields[:1] == ["box"]:
                    vals = _header_numbers(fields, 6, lineno)
                    if not np.all(np.isfinite(vals)):
                        raise ParseError(f"line {lineno}: non-finite box header")
                    box = (vals[:3], vals[3:])
                elif fields[:1] == ["R"]:
                    (R,) = _header_numbers(fields, 1, lineno)
                    try:
                        declared_R = _declared_R(R)
                    except ValueError:
                        raise ParseError(f"line {lineno}: R header must be "
                                         "positive and finite") from None
                continue
            rows.append((lineno, line))
    if not rows:
        raise ParseError("no points in file")
    try:
        points = np.loadtxt([line for _, line in rows], comments=None, ndmin=2)
    except ValueError:
        points = None
    if points is None or points.shape[1] != 3:
        for lineno, line in rows:  # the first bad line, by the same parser
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(f"line {lineno}: expected 3 coordinates, got {len(fields)}")
            try:
                np.loadtxt(fields, comments=None)
            except ValueError:
                raise ParseError(f"line {lineno}: bad coordinate") from None
    finite = np.all(np.isfinite(points), axis=1)
    if not finite.all():
        raise ParseError(f"line {rows[np.argmin(finite)][0]}: non-finite coordinate")
    if box is None:
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        # guard against a degenerate box for planar/collinear files
        span = hi - lo
        pad = np.where(span <= 0, 0.5, 0.0)
        box = (lo - pad, hi + pad)
    try:
        return PointPatch(points, box[0], box[1], declared_R=declared_R)
    except MarginViolation as e:
        raise ParseError(f"line {rows[e.row][0]}: {e}") from None


def _header_numbers(fields, count: int, lineno: int) -> list:
    """The ``count`` numbers of the header ``fields`` on line ``lineno``."""
    if len(fields) != count + 1:
        raise ParseError(f"line {lineno}: {fields[0]} header needs {count} "
                         f"number{'s' if count > 1 else ''}")
    try:
        return [float(v) for v in fields[1:]]
    except ValueError:
        raise ParseError(f"line {lineno}: bad {fields[0]} header") from None

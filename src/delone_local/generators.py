"""Constructors for the concrete point sets used throughout the package.

All generators return a :class:`~delone_local.delone_core.PointPatch`
whose points are exactly the intersection of the intended infinite set
with the requested closed box (boundary points included), ordered
lexicographically by (z, y, x).  Regenerating with a larger box and
clipping therefore reproduces the smaller patch bit-exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Tuple

import numpy as np

from .delone_core import PointPatch
from .errors import BoxTooSmall, DegenerateAntiprism, InvalidShift
from .geometry import GEOM_TOL, as_point

#: Most lattice points ``_lattice_patch`` enumerates for one box: the
#: index bounds it solves for, each widened by one, times the motif.  A
#: box that needs more is refused before any array is built; at the cap
#: the index and point arrays take about 1 GB.
MAX_LATTICE_POINTS = 10**7

__all__ = [
    "HexLatticeSpec",
    "BiLatticeSpec",
    "cubic_lattice",
    "hex_lattice",
    "hex_bilattice",
    "c4v_example",
    "antiprism_points",
    "antiprism_patch",
]


@dataclass(frozen=True)
class HexLatticeSpec:
    """Hexagonal layer lattice with Gram matrix
    [[lam, lam/2, 0], [lam/2, lam, 0], [0, 0, mu]].

    The realized basis is one Cholesky-style factorization of that Gram
    matrix: a1 = (sqrt(lam), 0, 0), a2 = (sqrt(lam)/2, sqrt(3 lam)/2, 0),
    a3 = (0, 0, sqrt(mu)).
    """

    lam: float = 1.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.lam < np.inf and 0 < self.mu < np.inf):
            raise ValueError("lam and mu must be positive and finite")

    @property
    def basis(self) -> np.ndarray:
        """Rows are the three basis vectors."""
        sl = np.sqrt(self.lam)
        return np.array([
            [sl, 0.0, 0.0],
            [sl / 2.0, np.sqrt(3.0 * self.lam) / 2.0, 0.0],
            [0.0, 0.0, np.sqrt(self.mu)],
        ])

    @property
    def min_distance(self) -> float:
        """Minimal interpoint distance of the infinite lattice."""
        return float(np.sqrt(min(self.lam, self.mu)))


@dataclass(frozen=True)
class BiLatticeSpec:
    """Union of a hexagonal lattice and one vertical translate of it.

    The shift t must be orthogonal to the layer plane (so t = (0, 0, t_z))
    with 0 < |t_z| < sqrt(mu) (in particular t is not a lattice vector),
    each by more than GEOM_TOL.
    """

    hex: HexLatticeSpec
    t: Tuple[float, float, float]

    def __post_init__(self) -> None:
        t = as_point(self.t)
        object.__setattr__(self, "t", (float(t[0]), float(t[1]), float(t[2])))
        if abs(t[0]) > GEOM_TOL or abs(t[1]) > GEOM_TOL:
            raise InvalidShift("shift must be orthogonal to the layer plane")
        mu, t_z = float(self.hex.mu), self.t[2]
        top = float(np.sqrt(mu)) - GEOM_TOL
        if not (GEOM_TOL < abs(t_z) < top):
            rule = (f"strictly between {GEOM_TOL!r} and "
                    f"sqrt(mu) - {GEOM_TOL!r} = {top!r}")
            if top <= GEOM_TOL:
                raise InvalidShift(f"no t_z fits mu = {mu!r}: "
                                   f"|t_z| must lie {rule}")
            raise InvalidShift(f"|t_z| = {abs(t_z)!r} must lie {rule}")


def _order_zyx(points: np.ndarray) -> np.ndarray:
    return points[np.lexsort(points.T)]  # the last key, z, sorts first


def _lattice_patch(basis, motif, box_lo, box_hi,
                   declared_R: float | None = None) -> PointPatch:
    """The points n @ basis + m (n integer, m a row of ``motif``) in the
    closed box, within GEOM_TOL, as a patch ordered by (z, y, x).  Raises
    ValueError where that takes more than ``MAX_LATTICE_POINTS``."""
    lo, hi = as_point(box_lo), as_point(box_hi)
    if np.any(hi <= lo):
        raise BoxTooSmall("box is degenerate (hi <= lo on some axis)")
    basis, motif = np.asarray(basis, dtype=float), np.asarray(motif, dtype=float)
    corners = np.array(list(product(*zip(lo, hi))))
    with np.errstate(all="ignore"):  # an overflow gives a count refused below
        # solves n @ basis = corner - m for every corner and motif point
        frac = (corners[None] - motif[:, None]).reshape(-1, 3) @ np.linalg.inv(basis)
        first, last = np.floor(frac.min(axis=0)) - 1, np.ceil(frac.max(axis=0)) + 1
        count = len(motif) * np.prod(last - first + 1)
    if not count <= MAX_LATTICE_POINTS:  # NaN too
        raise ValueError(f"the box spans {count:.3g} lattice points, more "
                         f"than MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}")
    ranges = [np.arange(a, b + 1) for a, b in zip(first.astype(int), last.astype(int))]
    idx = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = ((idx.astype(float) @ basis)[None] + motif[:, None]).reshape(-1, 3)
    inside = (np.all(pts >= lo - GEOM_TOL, axis=1)
              & np.all(pts <= hi + GEOM_TOL, axis=1))
    return PointPatch(_order_zyx(pts[inside]), lo, hi, declared_R=declared_R)


def cubic_lattice(box_lo, box_hi) -> PointPatch:
    """All integer points in the closed box."""
    return _lattice_patch(np.eye(3), [(0, 0, 0)], box_lo, box_hi)


def hex_lattice(spec: HexLatticeSpec, box_lo, box_hi) -> PointPatch:
    """Hexagonal lattice patch for the given Gram parameters."""
    return _lattice_patch(spec.basis, [(0, 0, 0)], box_lo, box_hi)


def hex_bilattice(spec: BiLatticeSpec, box_lo, box_hi) -> PointPatch:
    """Bi-lattice patch: the hexagonal lattice union its shift by t."""
    return _lattice_patch(spec.hex.basis, [(0, 0, 0), spec.t], box_lo, box_hi)


def c4v_example(box_lo, box_hi) -> PointPatch:
    """The layered cubic example {(x, y, z) in Z^3 : z % 3 != 0}: the
    lattice diag(1, 1, 3) with motif (0, 0, 1) and (0, 0, 2).

    A regular system whose 2R-cluster group is C4v; its covering radius
    is sqrt(3/2) (deep hole at half-integer x, y on a removed layer).
    """
    return _lattice_patch(np.diag([1.0, 1.0, 3.0]), [(0, 0, 1), (0, 0, 2)],
                          box_lo, box_hi, declared_R=float(np.sqrt(1.5)))


def antiprism_points(a: float, b: float) -> np.ndarray:
    """The 8 vertices of the square antiprism used in the exclusion
    argument for 8-fold rotoreflection symmetry:

        (+-a, 0, b), (0, +-a, b), (+-a/sqrt2, +-a/sqrt2, -b).

    All vertices lie at distance sqrt(a^2 + b^2) from the origin, whose
    square must be finite.
    """
    a = float(a)
    b = float(b)
    if a <= 0:
        raise ValueError("antiprism needs a > 0")
    if b == 0:
        raise DegenerateAntiprism("b = 0 collapses the two bases into a plane")
    if not np.isfinite(a * a + b * b):
        raise ValueError(f"antiprism needs a finite a^2 + b^2, got a = {a:g}, b = {b:g}")
    s = a / np.sqrt(2.0)
    return np.array([
        [a, 0.0, b], [-a, 0.0, b], [0.0, a, b], [0.0, -a, b],
        [s, s, -b], [s, -s, -b], [-s, s, -b], [-s, -s, -b],
    ])


def antiprism_patch(a: float, b: float) -> PointPatch:
    """Patch holding the origin plus the 8 antiprism vertices.

    Note: this is a bounded configuration, not a Delone patch; it exists
    so the CLI can write the configuration to a point-set file.
    """
    verts = antiprism_points(a, b)
    pts = np.vstack([np.zeros(3), verts])
    lo = pts.min(axis=0) - 0.5
    hi = pts.max(axis=0) + 0.5
    return PointPatch(_order_zyx(pts), lo, hi)

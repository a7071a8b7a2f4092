"""Tolerance-aware linear algebra for 3D isometries.

Provides the building blocks used everywhere else in the package:
orthogonal-matrix hygiene (orthogonality checks, nearest-orthogonal
projection), classification of a single orthogonal map into its symmetry
element kind (identity, inversion, rotation, reflection, rotoreflection),
and recovery of the unique isometry mapping one non-degenerate point
frame onto another.

Conventions:
    * Points and vectors are numpy arrays of shape (3,), dtype float64.
    * Lengths are dimensionless; the unit is the minimal interpoint
      distance of the ambient point set (so the packing radius is 1/2).
    * Isometries act as p -> Q p + t with Q orthogonal.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .errors import DegenerateFrame, NonOrthogonal

__all__ = [
    "ToleranceContext",
    "DEFAULT_CTX",
    "Isometry",
    "ElementKind",
    "as_point",
    "as_points",
    "nearest_orthogonal",
    "check_orthogonal",
    "is_orthogonal",
    "rotation_matrix",
    "rotoreflection_matrix",
    "reflection_matrix",
    "canonical_axis",
    "classify_element",
    "frame_isometry",
]

#: Default absolute tolerance for distance comparisons on unit-scale data.
GEOM_TOL = 1e-9
#: Default angular tolerance in radians.
ANGLE_TOL = 1e-9
#: Largest rotation order the element classifier will report exactly.
MAX_ROTATION_ORDER = 24


@dataclass(frozen=True)
class ToleranceContext:
    """Bundle of the numerical tolerances threaded through the package.

    Attributes:
        geom_tol: absolute tolerance for distance comparisons.
        angle_tol: tolerance (radians) for angle comparisons.
        max_rotation_order: largest exact rotation order to detect; larger
            (or incommensurate) angles classify as generic rotations.
    """

    geom_tol: float = GEOM_TOL
    angle_tol: float = ANGLE_TOL
    max_rotation_order: int = MAX_ROTATION_ORDER

    def __post_init__(self) -> None:
        if not (self.geom_tol > 0 and self.angle_tol > 0):
            raise ValueError("tolerances must be strictly positive")
        if self.max_rotation_order < 2:
            raise ValueError("max_rotation_order must be >= 2")


DEFAULT_CTX = ToleranceContext()


def as_point(p) -> np.ndarray:
    """Convert to a finite float64 array of shape (3,)."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("point has non-finite components")
    return a


def as_points(pts) -> np.ndarray:
    """Convert to a finite float64 array of shape (n, 3)."""
    a = np.asarray(pts, dtype=float)
    if a.ndim == 1 and a.size == 0:
        return a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("points have non-finite components")
    return a


def nearest_orthogonal(q: np.ndarray) -> np.ndarray:
    """Project a near-orthogonal matrix onto O(3) (polar factor via SVD).

    Used to stabilize long composition chains during group closure.
    """
    u, _, vt = np.linalg.svd(np.asarray(q, dtype=float))
    return u @ vt


def is_orthogonal(q: np.ndarray, tol: float = GEOM_TOL) -> bool:
    """True iff ``||Q^T Q - I||_max <= tol``."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3) or not np.all(np.isfinite(q)):
        return False
    return float(np.abs(q.T @ q - np.eye(3)).max()) <= tol


def check_orthogonal(q: np.ndarray, tol: float = GEOM_TOL) -> np.ndarray:
    """Validate orthogonality; returns the matrix as float64 or raises."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3):
        raise NonOrthogonal(f"expected a 3x3 matrix, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise NonOrthogonal("matrix has non-finite entries")
    resid = float(np.abs(q.T @ q - np.eye(3)).max())
    if resid > tol:
        raise NonOrthogonal(f"orthogonality residual {resid:.3e} exceeds tol {tol:.3e}")
    return q


@dataclass(frozen=True)
class Isometry:
    """Affine isometry p -> Q p + t of R^3."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "t", as_point(self.t))

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(np.eye(3), np.zeros(3))

    @staticmethod
    def translation(t) -> "Isometry":
        return Isometry(np.eye(3), t)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        """Apply to a single point (3,) or a stack of points (n, 3)."""
        pts = np.asarray(pts, dtype=float)
        return pts @ self.q.T + self.t

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self o other)(p) = self(other(p))."""
        return Isometry(self.q @ other.q, self.q @ other.t + self.t)

    def inverse(self) -> "Isometry":
        qi = self.q.T
        return Isometry(qi, -(qi @ self.t))


@dataclass(frozen=True)
class ElementKind:
    """Classified symmetry element of an orthogonal map.

    ``kind`` is one of ``identity``, ``inversion``, ``rotation``,
    ``reflection``, ``rotoreflection``, ``generic_rotation``,
    ``generic_rotoreflection``.  For rotations and rotoreflections
    ``order`` is the element order (rotoreflections use the even
    representation, so S_n here always has even n >= 4).  ``axis`` is the
    rotation axis or mirror normal with a deterministic sign; ``angle`` is
    the absolute rotation angle in [0, pi].
    """

    kind: str
    order: Optional[int] = None
    axis: Optional[np.ndarray] = None
    angle: Optional[float] = None


def canonical_axis(v: np.ndarray, tol: float = GEOM_TOL) -> np.ndarray:
    """Unit vector with the sign fixed so the first component larger than
    ``tol`` in absolute value is positive."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("zero vector has no axis")
    v = v / n
    for comp in v:
        if abs(comp) > tol:
            if comp < 0:
                v = -v
            break
    # squash -0.0 for printable determinism
    return v + 0.0


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rotation by ``angle`` (radians, counterclockwise seen from +axis)."""
    k = as_point(axis)
    k = k / np.linalg.norm(k)
    kx, ky, kz = k
    K = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def reflection_matrix(normal) -> np.ndarray:
    """Reflection in the plane through the origin with the given normal."""
    n = as_point(normal)
    n = n / np.linalg.norm(n)
    return np.eye(3) - 2.0 * np.outer(n, n)


def rotoreflection_matrix(axis, angle: float) -> np.ndarray:
    """Rotation about ``axis`` composed with reflection in the plane
    orthogonal to it."""
    return reflection_matrix(axis) @ rotation_matrix(axis, angle)


def _rotation_order(theta: float, max_order: int, angle_tol: float) -> Optional[int]:
    """Smallest n <= max_order with theta = 2 pi k / n, gcd(k, n) = 1."""
    two_pi = 2.0 * np.pi
    for n in range(2, max_order + 1):
        k = int(round(theta * n / two_pi))
        if k < 1 or k > n // 2:
            continue
        if abs(theta - two_pi * k / n) <= angle_tol and gcd(k, n) == 1:
            return n
    return None


def _rotoreflection_order(theta: float, max_order: int, angle_tol: float) -> Optional[int]:
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


def classify_element(q: np.ndarray, ctx: ToleranceContext = DEFAULT_CTX) -> ElementKind:
    """Classify an orthogonal map as a symmetry element.

    The matrix is re-orthonormalized before classification so that long
    composition chains do not accumulate drift.  Raises
    :class:`NonOrthogonal` if the input is not orthogonal within
    ``ctx.geom_tol`` scaled up to a loose sanity threshold.
    """
    q = check_orthogonal(q, max(ctx.geom_tol, 1e-7))
    q = nearest_orthogonal(q)
    det = float(np.linalg.det(q))
    proper = det > 0.0

    if proper:
        theta = _rotation_angle(q)
        if theta <= ctx.angle_tol:
            return ElementKind("identity")
        # axis = eigenvector of q for eigenvalue +1
        axis = _fixed_axis(q, +1.0)
        if abs(theta - np.pi) <= ctx.angle_tol:
            return ElementKind("rotation", order=2, axis=axis, angle=np.pi)
        n = _rotation_order(theta, ctx.max_rotation_order, ctx.angle_tol)
        if n is None:
            return ElementKind("generic_rotation", axis=axis, angle=theta)
        return ElementKind("rotation", order=n, axis=axis, angle=theta)

    # improper: q = (rotation by phi about axis) o (reflection in the plane
    # orthogonal to the axis), with axis the -1 eigenvector.  -q is the
    # proper rotation by pi - phi about the same axis, so phi is recovered
    # from it without the arccos conditioning loss near phi = 0 or pi.
    axis = _fixed_axis(q, -1.0)
    phi = float(np.pi) - _rotation_angle(-q)
    if phi <= ctx.angle_tol:
        return ElementKind("reflection", axis=axis, angle=0.0)
    if abs(phi - np.pi) <= ctx.angle_tol:
        return ElementKind("inversion")
    n = _rotoreflection_order(phi, 2 * ctx.max_rotation_order, ctx.angle_tol)
    if n is None:
        return ElementKind("generic_rotoreflection", axis=axis, angle=phi)
    return ElementKind("rotoreflection", order=n, axis=axis, angle=phi)


def _rotation_angle(r: np.ndarray) -> float:
    """Rotation angle in [0, pi] of a proper orthogonal map.

    Uses atan2 of (sin, cos) extracted from the antisymmetric part and the
    trace; well-conditioned at both endpoints, unlike plain arccos of the
    trace (which loses half the digits near 0 and pi).
    """
    c = (float(np.trace(r)) - 1.0) / 2.0
    s = float(np.linalg.norm(r - r.T)) / (2.0 * np.sqrt(2.0))
    return float(np.arctan2(s, c))


def _fixed_axis(q: np.ndarray, eigenvalue: float) -> np.ndarray:
    """Unit eigenvector of an orthogonal map for eigenvalue +1 or -1."""
    w, v = np.linalg.eig(q)
    idx = int(np.argmin(np.abs(w - eigenvalue)))
    axis = np.real(v[:, idx])
    return canonical_axis(axis)


def _complete_basis(vectors) -> np.ndarray:
    """Columns: the k = 1, 2 or 3 independent ``vectors`` completed to a
    basis (k = 1: add a perpendicular of the same length; k <= 2: add the
    cross product of the first two), so congruent k-tuples complete to
    congruent bases."""
    cols = list(vectors)
    if len(cols) == 1:
        v = cols[0]
        p = np.cross(v, np.eye(3)[int(np.argmin(np.abs(v)))])
        cols.append(p * (np.linalg.norm(v) / np.linalg.norm(p)))
    if len(cols) == 2:
        cols.append(np.cross(cols[0], cols[1]))
    return np.column_stack(cols)


def _frame_map(images, frame_inv: np.ndarray, gate: float) -> Optional[np.ndarray]:
    """q = G F^-1 for the completed ``images`` G and the inverse of a
    completed frame F, snapped onto O(3); None unless q is orthogonal
    within ``gate`` (i.e. the tuples are congruent)."""
    q = _complete_basis(images) @ frame_inv
    if float(np.abs(q.T @ q - np.eye(3)).max()) > gate:
        return None
    return nearest_orthogonal(q)


def frame_isometry(src, dst, tol: float = 1e-9) -> Optional[Isometry]:
    """Unique isometry mapping one point quadruple onto another.

    ``src`` and ``dst`` are sequences of four points; the first point of
    each is the distinguished center.  The three difference vectors of
    ``src`` must span R^3 (otherwise :class:`DegenerateFrame`).  Returns
    the isometry g with g(src[i]) = dst[i] for all i if the quadruples are
    congruent within ``tol``; returns None otherwise.
    """
    s = as_points(src)
    d = as_points(dst)
    if s.shape != (4, 3) or d.shape != (4, 3):
        raise ValueError("frames must consist of exactly 4 points")
    A = _complete_basis(s[1:] - s[0])  # columns: difference vectors of src
    if abs(np.linalg.det(A)) <= tol:
        raise DegenerateFrame("source frame difference vectors do not span R^3")
    q = _frame_map(d[1:] - d[0], np.linalg.inv(A), max(tol * 1e3, 1e-7))
    if q is None:
        return None
    t = d[0] - q @ s[0]
    iso = Isometry(q, t)
    if float(np.abs(iso.apply(s) - d).max()) > max(tol * 10.0, 1e-8):
        return None
    return iso

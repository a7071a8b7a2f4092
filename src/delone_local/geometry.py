"""Tolerance-aware linear algebra for 3D isometries.

Provides the building blocks used everywhere else in the package:
orthogonal-matrix hygiene (orthogonality checks, nearest-orthogonal
projection), the symmetry element kind of an orthogonal map (identity,
inversion, rotation, reflection, rotoreflection) read off its order, the
sign of its determinant and a closed-form axis, and recovery of the unique
isometry mapping one non-degenerate point frame onto another.

Conventions:
    * Points and vectors are numpy arrays of shape (3,), dtype float64.
    * Lengths are dimensionless; the unit is the minimal interpoint
      distance of the ambient point set (so the packing radius is 1/2).
    * Isometries act as p -> Q p + t with Q orthogonal.
    * Two orthogonal maps are the same element iff their max-norm
      difference is at most ``ELEMENT_TOL``.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    "element_kind",
    "classify_element",
    "frame_isometry",
]

#: Default absolute tolerance for distance comparisons on unit-scale data.
GEOM_TOL = 1e-9
#: Two orthogonal maps are the same group element iff their max-norm
#: difference is below this (far below the minimal separation of distinct
#: elements in groups of order <= 120).
ELEMENT_TOL = 1e-6
#: Largest rotation order the single-matrix classifier will report exactly.
MAX_ROTATION_ORDER = 24


@dataclass(frozen=True)
class ToleranceContext:
    """Bundle of the numerical tolerances threaded through the package.

    Attributes:
        geom_tol: absolute tolerance for distance comparisons.
        max_rotation_order: largest rotation order ``classify_element``
            detects in a single matrix; maps of larger (or infinite) order
            classify as generic rotations.
    """

    geom_tol: float = GEOM_TOL
    max_rotation_order: int = MAX_ROTATION_ORDER

    def __post_init__(self) -> None:
        if not self.geom_tol > 0:
            raise ValueError("geom_tol must be strictly positive")
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
    ``generic_rotoreflection``; it follows from the element's order and
    the sign of its determinant (see :func:`element_kind`).  For rotations
    and rotoreflections ``order`` is the element order (the smallest k
    with q^k = I; an improper element has even order, so S_n here always
    has even n >= 4).  ``axis`` is the rotation axis or mirror normal with
    a deterministic sign.
    """

    kind: str
    order: Optional[int] = None
    axis: Optional[np.ndarray] = None


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


def _axis(r: np.ndarray, half_turn: bool) -> np.ndarray:
    """Unit axis of a proper rotation r other than I, in closed form.

    Rotation by theta about a: the antisymmetric part of r is
    2 sin(theta) a; for a half-turn (sin = 0) r + I = 2 a a^T instead, so
    its largest column is parallel to a.
    """
    if half_turn:
        s = r + np.eye(3)
        v = s[:, int(np.argmax((s * s).sum(axis=0)))]
    else:
        v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return canonical_axis(v)


def element_kind(q: np.ndarray, order: Optional[int]) -> ElementKind:
    """Symmetry element of an orthogonal map of known ``order`` (None: no
    finite order found).

    Proper or improper is the sign of the determinant.  A proper map of
    order 1 is the identity, any other a rotation about the axis of q.  An
    improper map of order 2 has trace -3 (the inversion) or +1 (a
    reflection); any other is a rotoreflection.  An improper q is -1 times
    a proper rotation about the same axis, so its axis is that of -q.
    """
    q = np.asarray(q, dtype=float)
    if np.linalg.det(q) > 0.0:
        if order == 1:
            return ElementKind("identity")
        kind = "rotation" if order else "generic_rotation"
        return ElementKind(kind, order, _axis(q, order == 2))
    if order == 2:
        if np.trace(q) < -1.0:
            return ElementKind("inversion")
        return ElementKind("reflection", axis=_axis(-q, True))
    kind = "rotoreflection" if order else "generic_rotoreflection"
    return ElementKind(kind, order, _axis(-q, False))


def classify_element(q: np.ndarray, ctx: ToleranceContext = DEFAULT_CTX) -> ElementKind:
    """Classify a single orthogonal map as a symmetry element.

    The order is the smallest k with q^k within ``ELEMENT_TOL`` of I,
    searched up to ``ctx.max_rotation_order`` (twice that for improper
    maps, whose orders are even).  Raises :class:`NonOrthogonal` if the
    input is not orthogonal within ``ctx.geom_tol`` scaled up to a loose
    sanity threshold.
    """
    q = check_orthogonal(q, max(ctx.geom_tol, 1e-7))
    cap = ctx.max_rotation_order * (1 if np.linalg.det(q) > 0.0 else 2)
    p = q
    for k in range(1, cap + 1):
        if float(np.abs(p - np.eye(3)).max()) <= ELEMENT_TOL:
            return element_kind(q, k)
        p = p @ q
    return element_kind(q, None)


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

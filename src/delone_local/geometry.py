"""Tolerance-aware linear algebra for 3D isometries.

Provides the building blocks used everywhere else in the package:
orthogonal-matrix hygiene (orthogonality checks, nearest-orthogonal
projection), the symmetry element kind of an orthogonal map (identity,
inversion, rotation, reflection, rotoreflection) read off its order, the
sign of its determinant and a closed-form axis (a whole stack of maps in
one pass), and the orthogonal maps that carry a frame onto a stack of
congruent k-tuples.

Conventions:
    * Points and vectors are numpy arrays of shape (3,), dtype float64.
    * Lengths are dimensionless; the unit is the minimal interpoint
      distance of the ambient point set (so the packing radius is 1/2).
    * Isometries act as p -> Q p + t with Q orthogonal.

Tolerances are fixed constants, not parameters:
    * ``GEOM_TOL`` = 1e-9: absolute distance tolerance on unit-scale data
      (patch membership, center lookup, the box margin, packing checks,
      the generators' box clipping, a file's points against its box).
    * ``FRAME_TOL`` = 1e-5: the orthogonality residual a solved frame map
      q = G F^-1 may have (:func:`_frame_map`): congruent tuples pass.
    * ``ORTHO_TOL`` = 1e-7: the orthogonality residual
      :func:`check_orthogonal` accepts (so :func:`classify_element`).
    * ``antiprism_opt.FEAS_TOL`` = 1e-9: the constraint residual the
      antiprism objectives accept.
    * ``delone_core.JOGGLE_TOL`` = 1e-13: how deep a point may lie inside
      the winning ball of ``covering_radius``'s joggled triangulation,
      relative to the largest box-centered coordinate (at least 1); Qhull
      picks its joggle itself.
    * Cluster matching uses ``delone_core.match_tolerance(rho)`` =
      1e-7 max(1, rho), which also bounds the cells of a cluster's offset
      index from below; the profile test on sorted center distances
      uses ``equivalence._profile_tolerance(rho)`` = 4 match_tolerance(rho).
      Two maps are the same group element iff they move a fixed motif
      (norms 0.03 to 0.043) within match_tolerance(1) of the same points.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import GroupTooLarge, NonOrthogonal

__all__ = [
    "GEOM_TOL",
    "FRAME_TOL",
    "ORTHO_TOL",
    "Isometry",
    "ElementKind",
    "as_point",
    "as_points",
    "nearest_orthogonal",
    "check_orthogonal",
    "rotation_matrix",
    "reflection_matrix",
    "canonical_axis",
    "element_kinds",
    "classify_element",
]

#: Absolute tolerance for distance comparisons on unit-scale data.
GEOM_TOL = 1e-9
#: Orthogonality residual within which a solved frame map is taken for an
#: orthogonal one (its tuples congruent) and snapped onto O(3).
FRAME_TOL = 1e-5
#: Orthogonality residual accepted by :func:`check_orthogonal`.
ORTHO_TOL = 1e-7


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
    """Project a near-orthogonal matrix onto O(3) (polar factor via SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(q, dtype=float))
    return u @ vt


def check_orthogonal(q: np.ndarray) -> np.ndarray:
    """Validate orthogonality within ``ORTHO_TOL``; returns the matrix as
    float64 or raises :class:`NonOrthogonal`."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3, 3):
        raise NonOrthogonal(f"expected a 3x3 matrix, got shape {q.shape}")
    if not np.all(np.isfinite(q)):
        raise NonOrthogonal("matrix has non-finite entries")
    resid = float(np.abs(q.T @ q - np.eye(3)).max())
    if resid > ORTHO_TOL:
        raise NonOrthogonal(
            f"orthogonality residual {resid:.3e} exceeds tol {ORTHO_TOL:.3e}")
    return q


@dataclass(frozen=True, eq=False)
class Isometry:
    """Affine isometry p -> Q p + t of R^3."""

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "t", as_point(self.t))

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


@dataclass(frozen=True, eq=False)
class ElementKind:
    """Classified symmetry element of an orthogonal map.

    ``kind`` is one of ``identity``, ``inversion``, ``rotation``,
    ``reflection``, ``rotoreflection``, ``generic_rotation``,
    ``generic_rotoreflection``; it follows from the element's order and
    the sign of its determinant (see :func:`element_kinds`).  For rotations
    and rotoreflections ``order`` is the element order (the smallest k
    with q^k = I; an improper element has even order, so S_n here always
    has even n >= 4).  ``axis`` is the rotation axis or mirror normal with
    a deterministic sign.
    """

    kind: str
    order: Optional[int] = None
    axis: Optional[np.ndarray] = None


def canonical_axis(v: np.ndarray) -> np.ndarray:
    """Unit vector with the sign fixed so the first component larger than
    ``GEOM_TOL`` in absolute value is positive; a stack of vectors (n, 3)
    gives one axis per row."""
    v = np.asarray(v, dtype=float)
    n = np.sqrt(np.vecdot(v, v))[..., None]
    if (n == 0.0).any():
        raise ValueError("zero vector has no axis")
    v = v / n
    first = np.argmax(np.abs(v) > GEOM_TOL, axis=-1)[..., None]
    # squash -0.0 for printable determinism
    return np.where(np.take_along_axis(v, first, -1) < 0, -v, v) + 0.0


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


def _axis(r: np.ndarray, half_turn: np.ndarray) -> np.ndarray:
    """Unit axes of a stack of proper rotations r (n, 3, 3) other than I,
    in closed form.

    Rotation by theta about a: the antisymmetric part of r is
    2 sin(theta) a; for a half-turn (sin = 0) r + I = 2 a a^T instead, so
    its largest column is parallel to a.
    """
    s = r + np.eye(3)
    col = np.argmax((s * s).sum(axis=1), axis=1)
    v = np.stack([r[:, 2, 1] - r[:, 1, 2], r[:, 0, 2] - r[:, 2, 0],
                  r[:, 1, 0] - r[:, 0, 1]], axis=1)
    v[half_turn] = s[np.arange(len(s)), :, col][half_turn]
    return canonical_axis(v)


def _proper_and_inversion(qs: np.ndarray, order: np.ndarray):
    """Masks of the proper maps of a stack (n, 3, 3) of known orders (the
    sign of the determinant) and of the inversion (improper, of order 2,
    trace -3 rather than a reflection's +1)."""
    proper = np.linalg.det(qs) > 0.0
    return proper, ~proper & (order == 2) & (np.trace(qs, axis1=1, axis2=2) < -1.0)


def element_kinds(qs: np.ndarray, orders) -> List[ElementKind]:
    """Symmetry elements of a stack of orthogonal maps (n, 3, 3) of known
    ``orders`` (None: no finite order found), read in one pass, each with
    its axis in closed form.  ``point_group`` counts a group's label off
    the orders and :func:`_proper_and_inversion` alone, and calls this only
    when a group's ``kinds`` are accessed.

    Proper or improper is the sign of the determinant.  A proper map of
    order 1 is the identity, any other a rotation about the axis of q.  An
    improper map of order 2 has trace -3 (the inversion) or +1 (a
    reflection); any other is a rotoreflection.  An improper q is -1 times
    a proper rotation about the same axis, so its axis is that of -q.
    """
    qs = np.asarray(qs, dtype=float).reshape(-1, 3, 3)
    order = np.array([k or 0 for k in orders], dtype=int)
    proper, inversion = _proper_and_inversion(qs, order)
    axial = ~(proper & (order == 1)) & ~inversion
    axes = np.zeros((len(qs), 3))
    axes[axial] = _axis(np.where(proper[:, None, None], qs, -qs)[axial],
                        order[axial] == 2)
    kinds = []
    for p, k, inv, ax in zip(proper, order.tolist(), inversion, axes):
        if p and k == 1:
            kinds.append(ElementKind("identity"))
        elif inv:
            kinds.append(ElementKind("inversion"))
        elif not p and k == 2:
            kinds.append(ElementKind("reflection", axis=ax))
        else:
            name = "rotation" if p else "rotoreflection"
            kinds.append(ElementKind(name if k else "generic_" + name, k or None, ax))
    return kinds


def classify_element(q: np.ndarray) -> ElementKind:
    """Classify a single orthogonal map as a symmetry element: its order is
    that of its cyclic group, closed as every group given as matrices is
    (``point_group._closure``; none beyond 240 elements), and its kind the
    stack-of-one case of :func:`element_kinds`.  Raises
    :class:`NonOrthogonal` if it is not orthogonal within ``ORTHO_TOL``."""
    from .point_group import _closure  # point_group imports this module
    q = check_orthogonal(q)
    try:
        order = len(_closure([q])[1])
    except GroupTooLarge:
        order = None
    return element_kinds(q, [order])[0]


def _cross(a, b):
    """The cross products a x b of vectors given as component triples
    (a[0], a[1], a[2]) of numbers or broadcasting arrays, as such a triple:
    the products and differences ``np.cross`` takes, in its order, so its
    result bit for bit, without its axis moves."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _complete_basis(vectors) -> np.ndarray:
    """Bases (n, 3, 3) whose columns are the k = 1, 2 or 3 independent
    vectors of each tuple of a stack (n, k, 3), completed (k = 1: add a
    perpendicular of the same length; k <= 2: add the cross product of
    the first two), so congruent k-tuples complete to congruent bases."""
    v = np.asarray(vectors, dtype=float)
    if v.shape[1] == 1:
        u = v[:, 0]
        p = np.stack(_cross(u.T, np.eye(3)[np.argmin(np.abs(u), axis=1)].T), axis=1)
        p *= (np.sqrt(np.vecdot(u, u)) / np.sqrt(np.vecdot(p, p)))[:, None]
        v = np.concatenate([v, p[:, None]], axis=1)
    if v.shape[1] == 2:
        v = np.concatenate([v, np.stack(_cross(v[:, 0].T, v[:, 1].T), axis=1)[:, None]],
                           axis=1)
    return np.swapaxes(v, 1, 2)


def _frame_map(images, frame_inv: np.ndarray, gate: float) -> np.ndarray:
    """The maps q = G F^-1 (m, 3, 3) for a stack of k-tuples ``images``
    (n, k, 3), each completed to a basis G, and the inverse of a completed
    frame F, snapped onto O(3): those orthogonal within ``gate`` (i.e. the
    congruent tuples), in stack order."""
    q = _complete_basis(images) @ frame_inv
    resid = np.abs(np.swapaxes(q, 1, 2) @ q - np.eye(3)).max(axis=(1, 2))
    return nearest_orthogonal(q[resid <= gate])

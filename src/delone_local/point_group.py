"""Cluster stabilizers, Schoenflies classification, and tower heights.

The stabilizer S_x(rho) of a cluster is the finite group of orthogonal
maps about the center that map the member set onto itself: every map the
verified-map generator of cluster equivalence yields from the cluster to
itself.  A :class:`PointGroup` is checked once, when it is built: the
product table of its elements must be a group's, and the Schoenflies
label is read off that table: each element's order is its cycle length
in the table, proper or improper is the sign of its determinant, and its
axis comes in closed form (see ``geometry.element_kind``).  No angle is
compared against a tolerance.

Group elements are compared in one way only: stacked as 9-vectors in a
KD-tree and matched within ``geometry.ELEMENT_TOL`` (max-norm).

Order-theoretic helpers: ``omega`` (prime factors with multiplicity) and
``tower_height`` (longest chain of strictly nested subgroups), which for
every finite subgroup of O(3) equals ``omega(|G|) + 1``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .delone_core import Cluster
from .equivalence import _maps
from .errors import (
    GroupTooLarge,
    LowerDimensionalCluster,
    NotAGroup,
    UnrecognizedGroup,
)
from .geometry import ELEMENT_TOL, ElementKind, element_kind, nearest_orthogonal

__all__ = [
    "SchoenfliesLabel",
    "PointGroup",
    "stabilizer",
    "schoenflies",
    "schoenflies_from_matrices",
    "group_from_generators",
    "omega",
    "tower_height",
    "tower_height_from_matrices",
    "max_rotation_order",
]

#: Largest group order the group check accepts (Ih, the largest polyhedral
#: group, has order 120).
MAX_GROUP_ORDER = 120


@dataclass(frozen=True)
class SchoenfliesLabel:
    """Schoenflies label: axial families carry the axis order n."""

    family: str  # one of C, S, Ch, Cv, D, Dh, Dd, T, Td, Th, O, Oh, I, Ih
    n: Optional[int] = None

    _AXIAL = {"C", "S", "Ch", "Cv", "D", "Dh", "Dd"}
    _POLYHEDRAL_ORDERS = {"T": 12, "Td": 24, "Th": 24, "O": 24, "Oh": 48,
                          "I": 60, "Ih": 120}

    def __post_init__(self) -> None:
        if self.family in self._AXIAL:
            if self.n is None or self.n < 1:
                raise ValueError(f"family {self.family} needs n >= 1")
        elif self.family in self._POLYHEDRAL_ORDERS:
            if self.n is not None:
                raise ValueError(f"family {self.family} takes no n")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def order(self) -> int:
        """Group order implied by the label."""
        if self.family in self._POLYHEDRAL_ORDERS:
            return self._POLYHEDRAL_ORDERS[self.family]
        n = self.n
        if self.family == "C":
            return n
        if self.family == "S":
            return n if n % 2 == 0 else 2 * n
        if self.family in ("Ch", "Cv", "D"):
            return 2 * n
        return 4 * n  # Dh, Dd

    def __str__(self) -> str:
        if self.family in self._POLYHEDRAL_ORDERS:
            return self.family
        if self.family in ("C", "S", "D"):
            return f"{self.family}{self.n}"
        return f"{self.family[0]}{self.n}{self.family[1].lower()}"


@dataclass(frozen=True)
class PointGroup:
    """Finite group of orthogonal maps acting about a center point, checked
    once, when built (:class:`NotAGroup`, :class:`GroupTooLarge`); the
    element ``kinds`` and the ``label`` are read off that check's table."""

    center: np.ndarray
    elements: Tuple[np.ndarray, ...]
    kinds: Tuple[ElementKind, ...] = field(init=False, repr=False)
    label: SchoenfliesLabel = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(_element_kinds(self.elements)))
        object.__setattr__(self, "label", _label(self.kinds))

    @property
    def order(self) -> int:
        return len(self.elements)


def _match(elements, queries) -> np.ndarray:
    """Index of the element within ELEMENT_TOL (max-norm) of each query
    matrix, or -1 where there is none."""
    tree = cKDTree(np.asarray(elements, dtype=float).reshape(-1, 9))
    d, idx = tree.query(np.asarray(queries, dtype=float).reshape(-1, 9),
                        p=np.inf, distance_upper_bound=ELEMENT_TOL)
    return np.where(np.isfinite(d), idx, -1)


def _closure_matrices(mats: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Close a set of orthogonal maps under products (finite-group closure).

    Each round multiplies the new elements on the right by every element
    known so far, in one batch.  The generators are known from the first
    round on, so the result is closed under right multiplication by them
    and, being finite, is the whole group they generate.
    """
    elems = np.eye(3)[None]
    batch = np.asarray(mats, dtype=float).reshape(-1, 3, 3)
    while len(batch):
        new = batch[_match(elems, batch) < 0]
        if len(new):
            twins = cKDTree(new.reshape(-1, 9)).query_pairs(
                ELEMENT_TOL, p=np.inf, output_type="ndarray")
            new = np.delete(new, twins[:, 1], axis=0)
        elems = np.concatenate([elems, new])
        if len(elems) > 2 * MAX_GROUP_ORDER:
            raise GroupTooLarge(
                f"closure exceeded {2 * MAX_GROUP_ORDER} elements")
        batch = nearest_orthogonal(
            np.einsum("iab,jbc->ijac", new, elems).reshape(-1, 3, 3))
    return list(elems)


def group_from_generators(generators: Sequence[np.ndarray],
                          center=(0.0, 0.0, 0.0)) -> PointGroup:
    """Build a PointGroup as the closure of generator matrices."""
    return PointGroup(center=np.asarray(center, dtype=float),
                      elements=tuple(_closure_matrices(generators)))


def _check_group(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Product table of ``mats`` (entry i, j: the index of m_i m_j);
    raises unless ``mats`` is a group.

    A finite set of maps that holds the identity, is closed under
    products and whose table rows and columns are permutations (the
    cancellation laws) is a group; inverses need no separate check.  A
    row or column that is not a permutation also catches an element
    listed twice.
    """
    m = np.asarray(mats, dtype=float).reshape(-1, 3, 3)
    n = len(m)
    if n > MAX_GROUP_ORDER:
        raise GroupTooLarge(f"order {n} exceeds the ceiling {MAX_GROUP_ORDER}")
    if _match(m, np.eye(3))[0] < 0:
        raise NotAGroup("identity missing")
    table = _match(m, np.einsum("iab,jbc->ijac", m, m)).reshape(n, n)
    if (table < 0).any():
        raise NotAGroup("not closed under products")
    perm = np.arange(n)
    if not ((np.sort(table, axis=1) == perm).all()
            and (np.sort(table, axis=0) == perm[:, None]).all()):
        raise NotAGroup("duplicate elements: product table is not a Latin square")
    return table


def _orders(table: np.ndarray) -> np.ndarray:
    """Order of each element of a group: the length of its cycle
    g, g^2, ... in the product table (g^(k+1) = g iff g^k = e)."""
    g = np.arange(len(table))
    order = np.zeros(len(table), dtype=int)
    p, k = g, 1
    while not order.all():
        p, k = table[p, g], k + 1  # p = g^k
        order[(p == g) & (order == 0)] = k - 1
    return order


def _element_kinds(elements: Sequence[np.ndarray]) -> List[ElementKind]:
    """Kind of each element, with its order read off the product table;
    raises unless the elements form a group."""
    m = np.asarray(elements, dtype=float).reshape(-1, 3, 3)
    return [element_kind(q, int(n)) for q, n in zip(m, _orders(_check_group(m)))]


def stabilizer(c: Cluster) -> PointGroup:
    """The cluster group S_x(rho): all orthogonal maps about the center
    mapping the member set to itself.

    Raises :class:`LowerDimensionalCluster` for clusters whose affine
    hull has dimension < 3 (their stabilizer is infinite), and
    :class:`NotAGroup` if the verified maps fail the group check.
    """
    if c.affine_dimension() < 3:
        raise LowerDimensionalCluster(
            "cluster is not full-dimensional; its stabilizer is infinite")
    # The frame is non-degenerate, so distinct frame images give distinct
    # maps, and the frame's own image gives the identity.
    return PointGroup(center=c.center.copy(), elements=tuple(_maps(c, c)))


# --- Schoenflies classification --------------------------------------------

#: Two unit axes are parallel iff |cos| of their angle is within this of 1.
_ANG_TOL = 1e-6


def _parallel(u: np.ndarray, v: np.ndarray) -> bool:
    return abs(abs(float(np.dot(u, v))) - 1.0) <= _ANG_TOL


def _perpendicular(u: np.ndarray, v: np.ndarray) -> bool:
    return abs(float(np.dot(u, v))) <= _ANG_TOL


def schoenflies(g: PointGroup) -> SchoenfliesLabel:
    """Schoenflies label of a point group, read off when it was built."""
    return g.label


def schoenflies_from_matrices(elements: Sequence[np.ndarray]) -> SchoenfliesLabel:
    """Schoenflies label of a finite subgroup of O(3) given its elements,
    checked to form a group (:class:`NotAGroup`, :class:`GroupTooLarge`)."""
    return _label(_element_kinds(elements))


def _label(kinds: Sequence[ElementKind]) -> SchoenfliesLabel:
    """Schoenflies label of a group from the kinds of its elements.

    Decision tree: two or more rotation axes of order >= 3 send us to the
    polyhedral branch (T/Td/Th/O/Oh/I/Ih by order, inversion, and
    mirrors); otherwise each axis of maximal rotation order is tried as
    the principal axis and the first axial label whose order formula
    matches the group order wins (this resolves the principal-axis
    ambiguity of D2-like groups).  Aliased labels are canonicalized:
    Cs = C1h -> S1, Ci -> S2, Cnh with odd n -> Sn.
    """
    order = len(kinds)

    has_inversion = any(k.kind == "inversion" for k in kinds)
    reflections = [k for k in kinds if k.kind == "reflection"]
    rotations = [k for k in kinds if k.kind == "rotation"]
    rotoreflections = [k for k in kinds if k.kind == "rotoreflection"]

    # distinct rotation axes, in order of first appearance (each rotation
    # joins the first known axis it is parallel to), with their maximal order
    axes: List[np.ndarray] = []
    axis_orders: List[int] = []
    for k in rotations:
        i = next((i for i, v in enumerate(axes) if _parallel(v, k.axis)), None)
        if i is None:
            axes.append(k.axis)
            axis_orders.append(k.order)
        else:
            axis_orders[i] = max(axis_orders[i], k.order)

    n_max = max(axis_orders, default=1)
    high_axes = [n for n in axis_orders if n >= 3]

    if len(high_axes) >= 2:
        return _polyhedral_label(order, has_inversion, bool(reflections))

    if n_max == 1:
        if order == 1:
            return SchoenfliesLabel("C", 1)
        if order == 2 and has_inversion:
            return SchoenfliesLabel("S", 2)  # Ci
        if order == 2 and reflections:
            return SchoenfliesLabel("S", 1)  # Cs = C1h
        raise UnrecognizedGroup(f"no rotation axis, order {order}")

    for axis, n in zip(axes, axis_orders):
        if n != n_max:
            continue
        label = _axial_label(axis, n_max, axes, axis_orders,
                             reflections, rotoreflections)
        if label is not None and label.order == order:
            return label
    raise UnrecognizedGroup(
        f"axial decision tree exhausted at order {order}, n_max {n_max}")


def _polyhedral_label(order: int, has_inversion: bool,
                      has_reflections: bool) -> SchoenfliesLabel:
    if order == 12:
        return SchoenfliesLabel("T")
    if order == 24:
        if has_inversion:
            return SchoenfliesLabel("Th")
        if has_reflections:
            return SchoenfliesLabel("Td")
        return SchoenfliesLabel("O")
    if order == 48:
        return SchoenfliesLabel("Oh")
    if order == 60:
        return SchoenfliesLabel("I")
    if order == 120:
        return SchoenfliesLabel("Ih")
    raise UnrecognizedGroup(f"polyhedral branch with order {order}")


def _axial_label(axis: np.ndarray, n: int, axes: List[np.ndarray],
                 axis_orders: List[int],
                 reflections: List[ElementKind],
                 rotoreflections: List[ElementKind]) -> Optional[SchoenfliesLabel]:
    perp_c2 = sum(1 for v, o in zip(axes, axis_orders)
                  if o == 2 and _perpendicular(v, axis))
    sigma_h = any(_parallel(r.axis, axis) for r in reflections)
    sigma_v = sum(1 for r in reflections if _perpendicular(r.axis, axis))
    s2n = any(_parallel(s.axis, axis) and s.order == 2 * n for s in rotoreflections)

    if perp_c2 >= n and n >= 2:
        if sigma_h:
            return SchoenfliesLabel("Dh", n)
        if sigma_v >= n:
            return SchoenfliesLabel("Dd", n)
        return SchoenfliesLabel("D", n)
    if sigma_h:
        # Cnh and Sn coincide for odd n; canonicalize to the S spelling
        # (the spelling the bounds table keys on).
        if n % 2 == 1:
            return SchoenfliesLabel("S", n)
        return SchoenfliesLabel("Ch", n)
    if sigma_v >= n:
        return SchoenfliesLabel("Cv", n)
    if s2n:
        return SchoenfliesLabel("S", 2 * n)
    return SchoenfliesLabel("C", n)


# --- order arithmetic -------------------------------------------------------

def omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity; omega(1) = 0."""
    n = int(n)
    if n < 1:
        raise ValueError("omega requires n >= 1")
    count = 0
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    if n > 1:
        count += 1
    return count


def tower_height_from_matrices(elements: Sequence[np.ndarray]) -> int:
    """Maximal length of a chain of strictly nested subgroups from the
    group down to the trivial group, both ends included.

    The element set is checked to be a group of order at most
    MAX_GROUP_ORDER; the height is then omega(|G|) + 1:

    - Upper bound: each strict step H > K of a chain has index
      [H : K] >= 2, and the indices of the steps multiply to |G|, so a
      chain has at most omega(|G|) steps.
    - Every solvable group attains it through a composition series,
      whose factors have prime order.  That covers every finite subgroup
      of O(3) except I and Ih.
    - I = A5 attains it through A5 > A4 > V4 > C2 > 1 (omega(60) = 4).
    - Ih = I x C2 attains it through Ih > I followed by the chain of I
      (omega(120) = 5).
    """
    _check_group(elements)
    return omega(len(elements)) + 1


def tower_height(g: PointGroup) -> int:
    """Tower height omega(|G|) + 1; see tower_height_from_matrices."""
    return omega(g.order) + 1


def max_rotation_order(c: Cluster) -> int:
    """Maximal order of a (proper) rotation in the cluster's stabilizer;
    1 if the stabilizer contains no nontrivial rotation."""
    return max((k.order for k in stabilizer(c).kinds if k.kind == "rotation"),
               default=1)

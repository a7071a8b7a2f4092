"""Cluster stabilizers, Schoenflies classification, and tower heights.

A :class:`PointGroup` is checked once, when it is built, by its product
table, composed in integers from the permutation each element makes of a
cluster's offsets (``equivalence._carries``, through the cluster's cell
index, which also finds the frame offsets whose images key an element):
no element is compared as a matrix.  The stabilizer S_x(rho) permutes its
cluster, by the maps the map search of cluster equivalence finds from the
cluster to itself; a group given as matrices permutes the orbit of
``_MOTIF`` under it, whose points are the same iff within
``equivalence.match_tolerance(1)``.

The Schoenflies label follows from integers alone, counted in one pass
over the elements stacked once: each element's order (its cycle length
in the table), whether it is proper (the sign of its determinant) and
whether it is the inversion.  By the classification of the finite
subgroups of O(3), with p = |G+| proper elements, n the largest rotation
order and m reflections, the first rule that fits is

* p = n (G+ = Cn): Cn if all elements are proper; else Sn (n odd) or Cnh
  (n even) if m = 1, Cnv if m = n, S2n if m = 0;
* p = 2n (G+ = Dn): Dn if all are proper; else Dnh if m = n + 1, Dnd if
  m = n;
* (p, n) = (12, 3), (24, 4), (60, 5): T, O, I if all are proper; else Th
  (inversion present) or Td (absent), Oh, Ih;

and any other count raises :class:`UnrecognizedGroup`.  No axis is read
and no angle is compared against a tolerance.  The element kinds, with
their axes in closed form (``geometry.element_kinds``), are built only
when a group's ``kinds`` are accessed, from the orders the label was
counted with.

Order-theoretic helpers: ``omega`` (prime factors with multiplicity) and
``tower_height`` (longest chain of strictly nested subgroups), which for
every finite subgroup of O(3) equals ``omega(|G|) + 1``.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .delone_core import Cluster
from .equivalence import _carries, _maps, match_tolerance
from .errors import (
    GroupTooLarge,
    LowerDimensionalCluster,
    NotAGroup,
    UnrecognizedGroup,
)
from .geometry import (
    FRAME_TOL,
    ElementKind,
    _frame_map,
    _proper_and_inversion,
    element_kinds,
)

__all__ = [
    "SchoenfliesLabel",
    "PointGroup",
    "stabilizer",
    "schoenflies_from_matrices",
    "group_from_generators",
    "omega",
    "tower_height",
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
    once, when built (:class:`NotAGroup`, :class:`GroupTooLarge`).  The
    ``label`` is counted off that check's table and the stacked elements
    (a caller that composed a table for its elements passes it as
    ``_table``); the element ``kinds`` are built on first access, from the
    element orders kept with the group."""

    center: np.ndarray
    elements: Tuple[np.ndarray, ...]
    label: SchoenfliesLabel = field(init=False)
    _element_orders: np.ndarray = field(init=False, repr=False)
    _: KW_ONLY
    _table: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, _table) -> None:
        m = np.asarray(self.elements, dtype=float).reshape(-1, 3, 3)
        orders = _orders(_matrix_table(m) if _table is None else _table)
        object.__setattr__(self, "_element_orders", orders)
        object.__setattr__(self, "label", _counted_label(m, orders))

    @cached_property
    def kinds(self) -> Tuple[ElementKind, ...]:
        """Kind of each element, built on first access."""
        return tuple(_element_kinds(self.elements, self._element_orders))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        """Equal element sets, centers aside: equal orders, and the group
        both sets generate is no larger."""
        if not isinstance(other, PointGroup):
            return NotImplemented
        try:
            return self.order == other.order == len(
                _closure(self.elements + other.elements)[1])
        except (GroupTooLarge, NotAGroup):
            return False

    def __hash__(self) -> int:
        return hash(self.order)


#: The origin and three non-coplanar points of distinct norms.
_MOTIF = np.array([[0, 0, 0], [0.6, 0, 0], [0.2, 0.7, 0], [0.1, 0.3, 0.8]]) / 20.0


def _grow(pts: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The distinct points ``pts`` followed by ``images``, less each image
    within match_tolerance(1) of a point or of an earlier image."""
    images = images[cKDTree(pts).query(images)[0] > match_tolerance(1.0)]
    twins = cKDTree(images).query_pairs(match_tolerance(1.0), output_type="ndarray")
    return np.concatenate([pts, np.delete(images, twins[:, 1], axis=0)])


def _closure(generators: Sequence[np.ndarray]) -> Tuple[Cluster, np.ndarray]:
    """The orbit of ``_MOTIF`` under the group the matrices generate,
    closed in floats (each point moved once), as a cluster; and the group's
    index rows, identity first, closed in integers and keyed by their frame
    images.  Raises GroupTooLarge beyond 240 elements (3 * 240 + 1 points)."""
    cap = 2 * MAX_GROUP_ORDER
    gens = np.asarray(generators, dtype=float).reshape(-1, 3, 3)
    pts, n = _MOTIF, 0
    while n < len(pts) <= 3 * cap + 1:  # move the points found since n
        pts, n = _grow(pts, (pts[n:] @ gens).reshape(-1, 3)), len(pts)
    if len(pts) > 3 * cap + 1:
        raise GroupTooLarge(f"orbit exceeded {3 * cap + 1} points")
    c = Cluster(np.zeros(3), 1.0, pts)
    ok, steps = _carries(c, c.offsets, gens)
    if not ok.all():
        raise NotAGroup("a generator does not permute its orbit")
    f, rows, n = c.frame_rows, np.arange(len(c))[None], 0
    while n < len(rows) <= cap:  # o rows_i q_j = o_steps[j, rows[i]]
        grown = np.concatenate([rows, steps[:, rows[n:]].reshape(-1, len(c))])
        first = np.unique(grown[:, f] @ len(c) ** np.arange(3), return_index=True)[1]
        rows, n = grown[np.sort(first)], len(rows)
    if len(rows) > cap:
        raise GroupTooLarge(f"closure exceeded {cap} elements")
    return c, rows


def group_from_generators(generators: Sequence[np.ndarray]) -> PointGroup:
    """The PointGroup about the origin that the generator matrices
    generate, each element read off its images of its orbit's frame."""
    c, rows = _closure(generators)
    images = c.offsets[rows[:, c.frame_rows]]
    qs = _frame_map(images, c.frame_inv, FRAME_TOL)
    if len(qs) < len(rows):
        raise NotAGroup("an element's frame images are not congruent to the frame")
    # the rows move row vectors, o -> o q: _frame_map solves for q^T
    return PointGroup(np.zeros(3), tuple(np.swapaxes(qs, 1, 2)),
                      _table=_composed_table(c, rows))


def _check_table(table: np.ndarray, has_identity: bool) -> np.ndarray:
    """``table`` (entry i, j: the index of g_i g_j, or -1 where that
    product is no element) if it is a group's; raises otherwise.  A finite
    set of maps that holds the identity, is closed under products and whose
    table rows and columns are permutations (the cancellation laws, which
    also catch an element listed twice) is a group."""
    n = len(table)
    if n > MAX_GROUP_ORDER:
        raise GroupTooLarge(f"order {n} exceeds the ceiling {MAX_GROUP_ORDER}")
    if not has_identity:
        raise NotAGroup("identity missing")
    if (table < 0).any():
        raise NotAGroup("not closed under products")
    perm = np.arange(n)
    if not ((np.sort(table, axis=1) == perm).all()
            and (np.sort(table, axis=0) == perm[:, None]).all()):
        raise NotAGroup("duplicate elements: product table is not a Latin square")
    return table


def _matrix_table(m: np.ndarray) -> np.ndarray:
    """Product table of the matrices m (n, 3, 3), from their index rows on
    the motif's images under them all (not closed); raises as
    :func:`_check_table`, "not closed" if one leaves those points."""
    c = Cluster(np.zeros(3), 1.0, _grow(_MOTIF[:1], (_MOTIF[1:] @ m).reshape(-1, 3)))
    ok, rows = _carries(c, c.offsets, m)
    if not ok.all():  # no table: raise as the first failed check would
        _check_table(np.full((len(m), len(m)), -1),
                     (ok & (rows == np.arange(len(c))).all(axis=1)).any())
    return _composed_table(c, rows)


def _composed_table(c: Cluster, rows: np.ndarray) -> np.ndarray:
    """Product table of maps q_i of the full-dimensional cluster c given by
    their index rows (``equivalence._carries``: o_k q_i = o_rows[i, k]),
    composed in integers; raises unless the maps form a group.  The frame
    offsets f span R^3, so a map is keyed by rows[i, f] in base len(c)."""
    f = c.frame_rows
    base = len(c) ** np.arange(len(f))
    key = rows[:, f] @ base
    prods = base @ rows.T[rows[:, f]]  # [i, j]: key of q_i q_j: o q_i, then q_j
    order = np.argsort(key)
    at = order[np.minimum(np.searchsorted(key[order], prods), len(key) - 1)]
    return _check_table(np.where(key[at] == prods, at, -1), (key == f @ base).any())


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


def _element_kinds(elements: Sequence[np.ndarray], orders=None) -> List[ElementKind]:
    """Kind of each element, read in one pass with its order (by default
    off the matrices' own product table, checked to be a group's)."""
    m = np.asarray(elements, dtype=float).reshape(-1, 3, 3)
    return element_kinds(m, _orders(_matrix_table(m)) if orders is None else orders)


def stabilizer(c: Cluster) -> PointGroup:
    """The cluster group S_x(rho): all orthogonal maps about the center
    mapping the member set to itself, its table composed from their index
    rows.  Raises :class:`LowerDimensionalCluster` for clusters whose
    affine hull has dimension < 3 (their stabilizer is infinite), and
    :class:`NotAGroup` if the verified maps fail the group check."""
    if c.affine_dimension() < 3:
        raise LowerDimensionalCluster(
            "cluster is not full-dimensional; its stabilizer is infinite")
    qs, rows = _maps(c, c)
    return PointGroup(c.center.copy(), tuple(qs), _table=_composed_table(c, rows))


# --- Schoenflies classification --------------------------------------------

def schoenflies_from_matrices(elements: Sequence[np.ndarray]) -> SchoenfliesLabel:
    """Schoenflies label of a finite subgroup of O(3) given its elements,
    checked to form a group (:class:`NotAGroup`, :class:`GroupTooLarge`)."""
    return PointGroup(np.zeros(3), tuple(elements)).label


def _counted_label(m: np.ndarray, orders: np.ndarray) -> SchoenfliesLabel:
    """Schoenflies label of the group of matrices m (n, 3, 3) with element
    ``orders``, from its counts: the proper elements, their largest order,
    the improper elements of order 2 other than the inversion (the
    reflections), and whether the inversion is one of them."""
    proper, inversion = _proper_and_inversion(m, orders)
    return _schoenflies(len(m), int(proper.sum()), int(orders[proper].max(initial=1)),
                        int((~proper & (orders == 2) & ~inversion).sum()),
                        bool(inversion.any()))


def _label(kinds: Sequence[ElementKind]) -> SchoenfliesLabel:
    """Schoenflies label from the element kinds, by the same counts."""
    return _schoenflies(
        len(kinds), sum(k.kind in ("identity", "rotation") for k in kinds),
        max((k.order for k in kinds if k.kind == "rotation"), default=1),
        sum(k.kind == "reflection" for k in kinds),
        any(k.kind == "inversion" for k in kinds))


def _schoenflies(order: int, p: int, n: int, m: int, inversion: bool) -> SchoenfliesLabel:
    """Schoenflies label of a group of ``order`` elements, p of them proper,
    n the largest rotation order, m reflections, by the module docstring's
    rule, spelled as the bounds table keys it (Cs = S1, Ci = S2, odd Cnh = Sn)."""
    improper = p < order
    if p == n:  # G+ = Cn
        if not improper:
            return SchoenfliesLabel("C", n)
        if m == 1:
            return SchoenfliesLabel("S" if n % 2 else "Ch", n)
        if m == n:
            return SchoenfliesLabel("Cv", n)
        if m == 0:
            return SchoenfliesLabel("S", 2 * n)
    elif p == 2 * n:  # G+ = Dn
        if not improper:
            return SchoenfliesLabel("D", n)
        if m == n + 1:
            return SchoenfliesLabel("Dh", n)
        if m == n:
            return SchoenfliesLabel("Dd", n)
    elif (p, n) in ((12, 3), (24, 4), (60, 5)):  # G+ = T, O, I
        if not improper:
            return SchoenfliesLabel("TOI"[n - 3])
        if n > 3 or inversion:
            return SchoenfliesLabel("TOI"[n - 3] + "h")
        return SchoenfliesLabel("Td")
    raise UnrecognizedGroup(f"no finite subgroup of O(3) has order {order}, "
                            f"|G+| = {p}, rotation order {n}, {m} reflections")


# --- order arithmetic -------------------------------------------------------

def omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity; omega(1) = 0."""
    n = int(n)
    if n < 1:
        raise ValueError("omega requires n >= 1")
    count, d = 0, 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count + (n > 1)


def tower_height(g: PointGroup) -> int:
    """Maximal length of a chain of strictly nested subgroups from the
    group down to the trivial group, both ends included.

    ``g`` was checked to be a group of order at most MAX_GROUP_ORDER when
    it was built; the height is omega(|G|) + 1:

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
    return omega(g.order) + 1

"""Cluster stabilizers, Schoenflies classification, and tower heights.

The stabilizer S_x(rho) of a cluster is the finite group of orthogonal
maps about the center that map the member set onto itself: the stack of
verified maps that the map search of cluster equivalence returns from the
cluster to itself.  A :class:`PointGroup` is checked once, when it is
built: the product table of its elements must be a group's, and the kinds
of all its elements are read off it in one pass (order = cycle length in
the table, proper or improper = sign of the determinant, axis in closed
form: ``geometry.element_kinds``).

The Schoenflies label follows from integers alone, by the classification
of the finite subgroups of O(3): with p = |G+| proper elements, n the
largest rotation order and m reflections, the first rule that fits is

* p = n (G+ = Cn): Cn if all elements are proper; else Sn (n odd) or Cnh
  (n even) if m = 1, Cnv if m = n, S2n if m = 0;
* p = 2n (G+ = Dn): Dn if all are proper; else Dnh if m = n + 1, Dnd if
  m = n;
* (p, n) = (12, 3), (24, 4), (60, 5): T, O, I if all are proper; else Th
  (inversion present) or Td (absent), Oh, Ih;

and any other count raises :class:`UnrecognizedGroup`.  No axis is read
and no angle is compared against a tolerance.

Group elements are compared in one way only: stacked as 9-vectors in a
KD-tree and matched within ``geometry.ELEMENT_TOL`` (max-norm), by
``geometry._match``, which also drives ``geometry._closure_matrices``.

Order-theoretic helpers: ``omega`` (prime factors with multiplicity) and
``tower_height`` (longest chain of strictly nested subgroups), which for
every finite subgroup of O(3) equals ``omega(|G|) + 1``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .delone_core import Cluster
from .equivalence import _maps
from .errors import (
    GroupTooLarge,
    LowerDimensionalCluster,
    NotAGroup,
    UnrecognizedGroup,
)
from .geometry import (MAX_GROUP_ORDER, ElementKind, _closure_matrices,
                       _match, element_kinds)

__all__ = [
    "SchoenfliesLabel",
    "PointGroup",
    "stabilizer",
    "schoenflies_from_matrices",
    "group_from_generators",
    "omega",
    "tower_height",
]

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

    def __eq__(self, other) -> bool:
        """Equal element sets, centers aside: checked groups list no element
        twice, so equal orders and each element of self in other suffice."""
        if not isinstance(other, PointGroup):
            return NotImplemented
        return (self.order == other.order
                and bool((_match(other.elements, self.elements) >= 0).all()))

    def __hash__(self) -> int:
        return hash(self.order)


def group_from_generators(generators: Sequence[np.ndarray]) -> PointGroup:
    """Build a PointGroup about the origin as the closure of generator
    matrices."""
    return PointGroup(center=np.zeros(3),
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
    """Kind of each element, read in one pass with its order off the
    product table; raises unless the elements form a group."""
    m = np.asarray(elements, dtype=float).reshape(-1, 3, 3)
    return element_kinds(m, _orders(_check_group(m)))


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

def schoenflies_from_matrices(elements: Sequence[np.ndarray]) -> SchoenfliesLabel:
    """Schoenflies label of a finite subgroup of O(3) given its elements,
    checked to form a group (:class:`NotAGroup`, :class:`GroupTooLarge`)."""
    return _label(_element_kinds(elements))


def _label(kinds: Sequence[ElementKind]) -> SchoenfliesLabel:
    """Schoenflies label from the element kinds by the module docstring's
    rule, spelled as the bounds table keys it (Cs = S1, Ci = S2, odd Cnh = Sn)."""
    p = sum(k.kind in ("identity", "rotation") for k in kinds)
    n = max((k.order for k in kinds if k.kind == "rotation"), default=1)
    m = sum(k.kind == "reflection" for k in kinds)
    improper = p < len(kinds)
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
        if n > 3 or any(k.kind == "inversion" for k in kinds):
            return SchoenfliesLabel("TOI"[n - 3] + "h")
        return SchoenfliesLabel("Td")
    raise UnrecognizedGroup(f"no finite subgroup of O(3) has order {len(kinds)}, "
                            f"|G+| = {p}, rotation order {n}, {m} reflections")


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

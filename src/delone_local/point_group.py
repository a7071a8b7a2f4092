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

A stabilizer's elements are compared as integers only: each is the
permutation of its cluster's offsets that map verification found, keyed
by the images of the frame offsets, and its table is composed from those.
A group given as bare matrices (from generators, or built directly) is
matched as 9-vectors within ``geometry.ELEMENT_TOL`` by ``geometry._match``.

Order-theoretic helpers: ``omega`` (prime factors with multiplicity) and
``tower_height`` (longest chain of strictly nested subgroups), which for
every finite subgroup of O(3) equals ``omega(|G|) + 1``.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass, field
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
    element ``kinds`` and the ``label`` are read off that check's table
    (the stabilizer passes its own checked table as ``_table``)."""

    center: np.ndarray
    elements: Tuple[np.ndarray, ...]
    kinds: Tuple[ElementKind, ...] = field(init=False, repr=False)
    label: SchoenfliesLabel = field(init=False)
    _: KW_ONLY
    _table: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, _table) -> None:
        object.__setattr__(self, "kinds", tuple(_element_kinds(self.elements, _table)))
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
    """The PointGroup about the origin that the generator matrices close to."""
    return PointGroup(np.zeros(3), tuple(_closure_matrices(generators)))


def _check_table(table: np.ndarray, has_identity: bool) -> np.ndarray:
    """``table`` (entry i, j: the index of g_i g_j, or -1 where that
    product is no element) if it is a group's; raises otherwise.  A finite
    set of maps that holds the identity, is closed under products and
    whose table rows and columns are permutations (the cancellation laws)
    is a group; inverses need no separate check.  A row or column that is
    not a permutation also catches an element listed twice."""
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


def _check_group(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Product table of the matrices ``mats``, each product matched as a
    9-vector within ELEMENT_TOL; raises unless they form a group."""
    m = np.asarray(mats, dtype=float).reshape(-1, 3, 3)
    if len(m) > MAX_GROUP_ORDER:  # before the n^2 products
        raise GroupTooLarge(f"order {len(m)} exceeds the ceiling {MAX_GROUP_ORDER}")
    table = _match(m, np.einsum("iab,jbc->ijac", m, m)).reshape(len(m), len(m))
    return _check_table(table, _match(m, np.eye(3))[0] >= 0)


def _composed_table(c: Cluster, rows: np.ndarray) -> np.ndarray:
    """Product table of maps q_i of the full-dimensional cluster c given by
    their index rows (``equivalence._carries``: o_k q_i = o_rows[i, k]),
    composed in integers; raises unless the maps form a group.  The frame
    offsets f span R^3, so a map is keyed by rows[i, f] in base len(c)."""
    f = c.offset_tree.query(c.frame)[1]
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


def _element_kinds(elements: Sequence[np.ndarray], table=None) -> List[ElementKind]:
    """Kind of each element, read in one pass with its order off ``table``
    (by default the matrices' own, checked to be a group's)."""
    m = np.asarray(elements, dtype=float).reshape(-1, 3, 3)
    return element_kinds(m, _orders(_check_group(m) if table is None else table))


def stabilizer(c: Cluster) -> PointGroup:
    """The cluster group S_x(rho): all orthogonal maps about the center
    mapping the member set to itself, with the product table composed
    from the index rows of their verification (:func:`_composed_table`).

    Raises :class:`LowerDimensionalCluster` for clusters whose affine
    hull has dimension < 3 (their stabilizer is infinite), and
    :class:`NotAGroup` if the verified maps fail the group check.
    """
    if c.affine_dimension() < 3:
        raise LowerDimensionalCluster(
            "cluster is not full-dimensional; its stabilizer is infinite")
    qs, rows = _maps(c, c)
    return PointGroup(c.center.copy(), tuple(qs), _table=_composed_table(c, rows))


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

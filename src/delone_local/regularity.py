"""Regularity criteria and the per-group regularity-radius bounds table.

Implements the local criterion (single 2R-extension test: N(rho0 + 2R) = 1
and S_x0(rho0) = S_x0(rho0 + 2R) imply regularity; the equality is one
verification of S_x0(rho0) on the larger cluster), the tower bound
2(Omega + 2) R derived from subgroup-chain heights, the step bound
2 sin(pi/n) that forbids rotation orders above 6, and the published table
mapping each admissible 2R-cluster group to its best known bound.

The table is embedded verbatim from its source, including its aliasing
quirks (rows like C1h that are spellings of S-family groups) and one row
whose printed bound disagrees with the formula of the mechanism it cites
(S10; see :func:`tower_formula_mismatches`).  We reproduce, not repair.
"""
from __future__ import annotations

import io
import csv
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .delone_core import PointPatch, cluster
from .equivalence import _carries, cluster_classes
from .errors import MarginViolation, NoUsableCenters, UnknownLabel
from .point_group import PointGroup, _composed_table, omega, stabilizer

__all__ = [
    "CriterionVerdict",
    "BoundTableRow",
    "ScenarioReport",
    "local_criterion",
    "tower_bound_radius",
    "bound_lookup",
    "shtogrin_step_bound",
    "classify_scenario",
    "table_rows",
    "table_to_csv",
    "table_from_csv",
    "tower_formula_mismatches",
]

IMPOSSIBLE = "Impossible"

REF_TOWER = "Tower bound"
REF_ROTATION = "Rotation-order bound"
REF_ANTIPODAL = "Locally antipodal criterion"
REF_ANTIPRISM = "Antiprism exclusion"
REF_TETRAHEDRON = "Tetrahedral criterion"
REF_CUBE = "Cubic criterion"
REF_ICOSAHEDRON = "Icosahedral exclusion"


@dataclass(frozen=True)
class BoundTableRow:
    """One row of the bounds table.

    ``bound_radius`` is the bound as an integer multiple of R, or None for
    groups that cannot occur as 2R-cluster groups at all.
    """

    label: str
    order: int
    bound_radius: Optional[int]
    reference: str

    @property
    def impossible(self) -> bool:
        return self.bound_radius is None

    @property
    def bound(self) -> str:
        return IMPOSSIBLE if self.bound_radius is None else f"{self.bound_radius}R"


def _row(label: str, order: int, bound: Optional[int], ref: str) -> BoundTableRow:
    return BoundTableRow(label, order, bound, ref)


#: The bounds table, verbatim (52 rows).
TABLE: List[BoundTableRow] = [
    _row("C1", 1, 4, REF_TOWER),
    _row("C2", 2, 6, REF_TOWER),
    _row("C3", 3, 6, REF_TOWER),
    _row("C4", 4, 8, REF_TOWER),
    _row("C5", 5, 6, REF_TOWER),
    _row("C6", 6, 2, REF_ROTATION),

    _row("S1", 2, 6, REF_TOWER),
    _row("S2", 2, 2, REF_ANTIPODAL),
    _row("S3", 6, 8, REF_TOWER),
    _row("S4", 4, 8, REF_TOWER),
    _row("S5", 10, 8, REF_TOWER),
    _row("S6", 6, 2, REF_ANTIPODAL),
    _row("S8", 8, None, REF_ANTIPRISM),
    _row("S10", 10, 2, REF_TOWER),
    _row("S12", 12, 2, REF_ROTATION),

    _row("C1h", 2, 6, "This is the group S1."),
    _row("C2h", 4, 2, REF_ANTIPODAL),
    _row("C3h", 6, 8, "This is the group S3."),
    _row("C4h", 8, 2, REF_ANTIPODAL),
    _row("C5h", 10, 8, "This is the group S5."),
    _row("C6h", 12, 2, REF_ANTIPODAL),

    _row("C1v", 2, 6, REF_TOWER),
    _row("C2v", 4, 8, REF_TOWER),
    _row("C3v", 6, 8, REF_TOWER),
    _row("C4v", 8, 10, REF_TOWER),
    _row("C5v", 10, 8, REF_TOWER),
    _row("C6v", 12, 2, REF_ROTATION),

    _row("D1", 2, 6, REF_TOWER),
    _row("D2", 4, 8, REF_TOWER),
    _row("D3", 6, 8, REF_TOWER),
    _row("D4", 8, 10, REF_TOWER),
    _row("D5", 10, 8, REF_TOWER),
    _row("D6", 12, 2, REF_ROTATION),

    _row("D1h", 4, 8, REF_TOWER),
    _row("D2h", 8, 2, REF_ANTIPODAL),
    _row("D3h", 12, 10, REF_TOWER),
    _row("D4h", 16, 2, REF_ANTIPODAL),
    _row("D5h", 20, 10, REF_TOWER),
    _row("D6h", 24, 2, REF_ANTIPODAL),

    _row("D1d", 4, 2, REF_ANTIPODAL),
    _row("D2d", 8, 10, REF_TOWER),
    _row("D3d", 12, 2, REF_ANTIPODAL),
    _row("D4d", 16, None, REF_ANTIPRISM),
    _row("D5d", 20, 2, REF_ANTIPODAL),
    _row("D6d", 24, 2, REF_ROTATION),

    _row("T", 12, None, REF_TETRAHEDRON),
    _row("Td", 24, 2, REF_TETRAHEDRON),
    _row("Th", 48, 2, REF_ANTIPODAL),
    _row("O", 24, None, REF_CUBE),
    _row("Oh", 48, 2, REF_ANTIPODAL),
    _row("I", 60, None, REF_ICOSAHEDRON),
    _row("Ih", 120, None, REF_ICOSAHEDRON),
]

_TABLE_BY_LABEL = {r.label: r for r in TABLE}


def table_rows() -> List[BoundTableRow]:
    """All table rows in print order."""
    return list(TABLE)


def bound_lookup(label: str) -> BoundTableRow:
    """Row for the given Schoenflies spelling; raises UnknownLabel."""
    try:
        return _TABLE_BY_LABEL[str(label)]
    except KeyError:
        raise UnknownLabel(f"no table row for label {label!r}") from None


def tower_formula_mismatches() -> List[BoundTableRow]:
    """Rows citing the tower bound whose printed radius differs from the
    tower formula 2(Omega + 2) applied to the printed order.

    The table contains exactly one such row (S10: printed 2R, formula 8R);
    we surface it rather than silently correcting it.
    """
    return [r for r in TABLE if r.reference == REF_TOWER and not r.impossible
            and r.bound_radius != tower_bound_radius(r.order)]


def table_to_csv() -> str:
    """The table as CSV text: header group,order,bound,reference."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["group", "order", "bound", "reference"])
    for r in TABLE:
        w.writerow([r.label, r.order, r.bound, r.reference])
    return buf.getvalue()


def table_from_csv(text: str) -> List[BoundTableRow]:
    """Parse table CSV produced by :func:`table_to_csv` (round-trip)."""
    rows = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["group", "order", "bound", "reference"]:
        raise ValueError(f"unexpected CSV header {header}")
    for rec in reader:
        if not rec:
            continue
        label, order, bound, ref = rec
        radius = None if bound == IMPOSSIBLE else int(bound.rstrip("R"))
        rows.append(BoundTableRow(label, int(order), radius, ref))
    return rows


def tower_bound_radius(group_order: int) -> int:
    """Tower-bound radius 2 (Omega(|G|) + 2), as a multiple of R."""
    if group_order < 1:
        raise ValueError("group order must be >= 1")
    return 2 * (omega(group_order) + 2)


def shtogrin_step_bound(n: int) -> float:
    """Contraction factor 2 sin(pi/n) of the regular n-gon side relative
    to its circumradius.

    Strictly decreasing in n; >= 1 for n <= 6 and < 0.87 for n >= 7 —
    the dichotomy behind the exclusion of rotation orders above 6.
    """
    n = int(n)
    if n < 2:
        raise ValueError("step bound needs n >= 2")
    return 2.0 * np.sin(np.pi / n)


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of the local criterion at rho0 on a patch.

    regular is True iff n_classes = 1 and the rho0- and (rho0 + 2R)-
    stabilizers at the reference center coincide.  group is S_x0(rho0),
    or None when N(rho0 + 2R) > 1 (no center is singled out then).
    """

    regular: bool
    rho0: float
    n_classes: int
    groups_equal: bool
    witness: Optional[str] = None
    group: Optional[PointGroup] = field(default=None, compare=False, repr=False)


def local_criterion(patch: PointPatch, rho0: float, R: float) -> CriterionVerdict:
    """Evaluate the local criterion: N(rho0 + 2R) = 1 and
    S_x0(rho0) = S_x0(rho0 + 2R) at the lexicographically smallest usable
    center x0.

    Only S_x0(rho0) takes a frame search.  S_x0(rho0 + 2R) is the subgroup
    of its elements that also map the (rho0 + 2R)-cluster onto itself,
    verified at that radius's match tolerance.  This is exact: for
    rho' > rho, C_x(rho) = C_x(rho') ∩ B(x, rho), and an isometry fixing x
    preserves every ball about x, so S_x(rho') ⊆ S_x(rho): the groups are
    equal iff every element of S_x0(rho0) passes.  S_x0(rho0 + 2R) is
    built as a group only for the witness, when some element fails, with
    its table composed from that verification's index rows.

    The verdict certifies the criterion's hypotheses on the patch; margin
    violations (box too small for rho0 + 2R) raise rather than truncate.
    Raises ValueError for R < 0, where rho0 + 2R < rho0 and the passing
    elements would no longer give S_x0(rho0 + 2R), and for R < r = 1/2,
    which no covering radius is (a closest pair's midpoint lies r away),
    and then for rho0 < 0, before any cluster is built.
    """
    if R < 0:
        raise ValueError("covering radius must be non-negative")
    if R < 0.5:
        raise ValueError(f"covering radius {R:g} is below the packing "
                         "radius 1/2")
    if rho0 < 0:
        raise ValueError(f"rho0 must be non-negative, got {rho0:g}")
    rho_big = float(rho0) + 2.0 * float(R)
    dec = cluster_classes(patch, rho_big)
    if dec.N != 1:
        return CriterionVerdict(
            regular=False, rho0=float(rho0), n_classes=dec.N,
            groups_equal=False,
            witness=f"N({rho_big:g}) = {dec.N} > 1; clusters not all equivalent")
    big = dec.class_representatives[0]
    x0 = big.center
    g_small = stabilizer(cluster(patch, x0, rho0))
    elements = np.array(g_small.elements)
    keep, rows = _carries(big, big.offsets, elements)
    equal = bool(keep.all())
    witness = None
    if not equal:
        g_big = PointGroup(x0.copy(), tuple(elements[keep]),
                           _table=_composed_table(big, rows[keep]))
        witness = (f"stabilizer at rho0 = {rho0:g} has order {g_small.order} "
                   f"({g_small.label}) but at rho0 + 2R = {rho_big:g} "
                   f"order {g_big.order} ({g_big.label}) at center "
                   f"{x0.tolist()}")
    return CriterionVerdict(regular=equal, rho0=float(rho0), n_classes=1,
                            groups_equal=equal, witness=witness, group=g_small)


@dataclass(frozen=True)
class ScenarioReport:
    """Summary of a patch at rho = 2R: class count, cluster-group label,
    table bound, and (when the box allows it) the local-criterion verdict
    at rho0 = 2R."""

    R: float
    n_classes: int
    label: Optional[str]
    order: Optional[int]
    bound_row: Optional[BoundTableRow]
    verdict: Optional[CriterionVerdict]
    note: Optional[str] = None


def classify_scenario(patch: PointPatch, R: float) -> ScenarioReport:
    """Compute N(2R), the 2R-cluster group label when N(2R) = 1, its table
    bound, and the local criterion at rho0 = 2R if the box margin allows.

    When N(2R) = 1 all 2R-clusters are equivalent and their groups
    conjugate, so the label is read off the criterion's S_x0(2R); the
    representative's stabilizer is computed only when the criterion
    yields no group.
    """
    rho = 2.0 * float(R)
    dec = cluster_classes(patch, rho)
    verdict = margin_note = None
    try:
        verdict = local_criterion(patch, rho, R)
    except (MarginViolation, NoUsableCenters):
        margin_note = f"box too small for the criterion at rho0 = {rho:g}"
    label = order = bound_row = note = None
    if dec.N == 1:
        g = verdict.group if verdict is not None else None
        if g is None:
            g = stabilizer(dec.class_representatives[0])
        label = str(g.label)
        order = g.order
        try:
            bound_row = bound_lookup(label)
        except UnknownLabel:
            note = f"label {label} not in the bounds table"
    else:
        note = "clusters not mutually equivalent"
    if margin_note is not None:
        note = margin_note if note is None else f"{note}; {margin_note}"
    return ScenarioReport(R=float(R), n_classes=dec.N, label=label,
                          order=order, bound_row=bound_row,
                          verdict=verdict, note=note)

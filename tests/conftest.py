"""Shared fixtures and independent oracle helpers for the test suite.

Oracles here deliberately avoid the library's own machinery: signed
permutation matrices are enumerated directly, brute-force distance scans
use plain numpy, and group element sets are generated from explicit
matrices so that stabilizer/classification results can be checked against
something the implementation does not share code with.
"""
import itertools
from math import gcd

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial import QhullError, Voronoi, cKDTree

import delone_local as dl
from delone_local.errors import BoxTooSmall, UnrecognizedGroup
from delone_local.equivalence import match_tolerance
from delone_local.geometry import (
    GEOM_TOL,
    ElementKind,
    canonical_axis,
    check_orthogonal,
    nearest_orthogonal,
    reflection_matrix,
    rotation_matrix,
)
from delone_local.point_group import SchoenfliesLabel, _check_table, _orders

SQRT3 = np.sqrt(3.0)


@pytest.fixture(scope="session")
def z3_patch():
    return dl.cubic_lattice([-4, -4, -4], [4, 4, 4])


@pytest.fixture(scope="session")
def z3_patch_small():
    return dl.cubic_lattice([-3, -3, -3], [3, 3, 3])


@pytest.fixture(scope="session")
def hex_patch():
    return dl.hex_lattice(dl.HexLatticeSpec(1.0, 1.0), [-4, -4, -4], [4, 4, 4])


@pytest.fixture(scope="session")
def c4v_patch():
    return dl.c4v_example([-4, -4, -4], [4, 4, 4])


@pytest.fixture(scope="session")
def layered_square_patch():
    """Unit square layers 2.5 apart: the 12 nearest neighbours of a point
    lie in its own layer."""
    pts = [[x, y, 2.5 * k] for x in range(-4, 5) for y in range(-4, 5)
           for k in range(-3, 4)]
    return dl.PointPatch(pts, [-4, -4, -7.5], [4, 4, 7.5])


_BILATTICE = dl.BiLatticeSpec(dl.HexLatticeSpec(1.0, 6.25), (0.0, 0.0, 1.2))

#: Lattice builders (box_lo, box_hi) -> PointPatch with their covering
#: radii: the kinds of the stock patches ``delone analyze`` is timed on.
LATTICES = {
    "z3": (dl.cubic_lattice, SQRT3 / 2),
    "hex": (lambda lo, hi: dl.hex_lattice(dl.HexLatticeSpec(1.0, 1.0), lo, hi),
            np.sqrt(1 / 3 + 0.25)),
    "c4v": (dl.c4v_example, np.sqrt(1.5)),
    "hex_bilattice": (lambda lo, hi: dl.hex_bilattice(_BILATTICE, lo, hi),
                      np.sqrt(1 / 3 + 0.65 ** 2)),
}

#: The five stock patches of the ``analyze_regular`` benchmark workload:
#: (lattice, half-width of the cubic box).
STOCK_PATCHES = (("c4v", 6), ("z3", 4), ("hex", 4), ("hex_bilattice", 4),
                 ("hex_bilattice", 5))


def _box(h):
    return [str(-h)] * 3 + [str(h)] * 3


#: ``delone generate`` flags of the same five stock patches, as files.
STOCK = {
    "c4v6": ("--kind", "c4v", "--box", *_box(6)),
    "cubic4": ("--kind", "cubic", "--box", *_box(4)),
    "hex4": ("--kind", "hex", "--lambda", "1", "--mu", "1", "--box", *_box(4)),
    "hex_bilattice4": ("--kind", "hex_bilattice", "--mu", "6.25",
                       "--t-z", "1.2", "--box", *_box(4)),
    "hex_bilattice5": ("--kind", "hex_bilattice", "--mu", "6.25",
                       "--t-z", "1.2", "--box", *_box(5)),
}


def rotated_lattice(name, seed, h):
    """The ``LATTICES`` set ``name`` under a seeded random rotation, cut to
    the cube of half-width ``h``: every center still has translated
    copies, but no longer along the box axes."""
    build, _ = LATTICES[name]
    rng = np.random.default_rng([seed, len(name)])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = build([-2 * h] * 3, [2 * h] * 3).points @ q.T
    keep = np.all(np.abs(moved) <= h, axis=1)
    return dl.PointPatch(moved[keep], [-h] * 3, [h] * 3)


def jittered_cubic(m, seed, spacing=1.6, amplitude=0.15):
    """Cubic sites |k| <= m at ``spacing``, each moved by seeded uniform
    per-axis jitter of at most ``amplitude``, trusted on the box of
    half-width (m + 1/4) spacings, which no jittered site leaves."""
    sites = dl.cubic_lattice((-m,) * 3, (m,) * 3).points
    rng = np.random.default_rng(seed)
    pts = spacing * sites + rng.uniform(-amplitude, amplitude, size=sites.shape)
    h = (m + 0.25) * spacing
    return dl.PointPatch(pts, (-h,) * 3, (h,) * 3)


def z3_missing_site():
    """Z^3 on the sites -3..3 without (2, 1, 0), trusted on the box +-3.5:
    the hole lies inside the (1.5 + sqrt3)-ball at the origin but outside
    its 1.5-ball."""
    pts = [[x, y, z] for x in range(-3, 4) for y in range(-3, 4)
           for z in range(-3, 4) if (x, y, z) != (2, 1, 0)]
    return dl.PointPatch(pts, [-3.5] * 3, [3.5] * 3)


def z2_layers():
    """Unit square layers |x|, |y| <= 4, stacked with the gaps 1, 1.2, 1,
    1.3 repeating (13 layers): not regular, and its covering radius is
    sqrt(1/2 + 0.65^2) = 0.9605, a deep hole in the 1.3 gap."""
    zs = np.cumsum([0.0, *[1.0, 1.2, 1.0, 1.3] * 3]) - 6.5
    pts = [[x, y, z] for x in range(-4, 5) for y in range(-4, 5) for z in zs]
    return dl.PointPatch(pts, [-4, -4, zs[0]], [4, 4, zs[-1]])


def cluster_classes_oracle(patch, rho):
    """The class loop as it was before extraction was batched: one
    ``cluster`` call per usable center in lexicographic order, compared
    by ``cluster_isometry`` against each representative in class order.
    Returns (assignment, representative centers as tuples)."""
    reps, assignment = [], {}
    for c in patch.usable_centers(rho):
        cl = dl.cluster(patch, c, rho)
        found = next((i for i, rep in enumerate(reps)
                      if dl.cluster_isometry(rep, cl) is not None), None)
        if found is None:
            found = len(reps)
            reps.append(cl)
        assignment[tuple(c)] = found
    return assignment, [tuple(rep.center) for rep in reps]


# --- verified-map oracles -----------------------------------------------------
# The map search and the element reader as they were before they ran on
# stacks: a recursive generator over frame images that solves, gates, snaps
# and verifies one map at a time, and a classifier called once per group
# element.  Kept unchanged, with their own single-map frame solver and axis
# code, as the reference the stacked ``_maps`` and ``PointGroup.kinds``
# must reproduce bit for bit and in order.


def _complete_basis_oracle(vectors):
    cols = list(vectors)
    if len(cols) == 1:
        v = cols[0]
        p = np.cross(v, np.eye(3)[int(np.argmin(np.abs(v)))])
        cols.append(p * (np.linalg.norm(v) / np.linalg.norm(p)))
    if len(cols) == 2:
        cols.append(np.cross(cols[0], cols[1]))
    return np.column_stack(cols)


def _frame_map_oracle(images, frame_inv, gate):
    q = _complete_basis_oracle(images) @ frame_inv
    if float(np.abs(q.T @ q - np.eye(3)).max()) > gate:
        return None
    return nearest_orthogonal(q)


def _carries_oracle(a, offsets, qs, tree=None):
    """``equivalence._carries`` as one KD query over the whole stack
    ``offsets @ qs`` against a tree of a's offsets (built here unless
    given): the pass mask (n,) and the nearest indices (n, m)."""
    moved = offsets @ qs
    n, m = moved.shape[:2]
    tree = cKDTree(a.offsets) if tree is None else tree
    d, idx = tree.query(moved.reshape(-1, 3))
    d, idx = d.reshape(n, m), idx.reshape(n, m)
    return ((m == len(a)) & (d.max(axis=1, initial=0.0) <= match_tolerance(a.radius))
            & (np.diff(np.sort(idx, axis=1), axis=1) > 0).all(axis=1)), idx


def maps_oracle(a, b):
    """Each orthogonal q with q(a.offsets) = b.offsets, as a list in
    lexicographic order of the k-tuples of b's offsets that a's frame
    goes to, found by recursion over the tuples."""
    frame = a.frame
    if frame is None:
        return []
    frame_inv = np.linalg.inv(_complete_basis_oracle(frame))
    mtol = match_tolerance(a.radius)
    norm_tol = 4.0 * mtol
    dot_tol = 40.0 * max(1.0, a.radius) * mtol
    targets = b.offsets
    tree = cKDTree(a.offsets)
    tnorms = np.linalg.norm(targets, axis=1)
    gram = frame @ frame.T
    cands = [targets[(np.abs(tnorms - fn) <= norm_tol) & (tnorms > 1e-12)]
             for fn in np.linalg.norm(frame, axis=1)]

    def extend(images):
        i = len(images)
        if i == len(frame):
            q = _frame_map_oracle(images, frame_inv, 1e-5)
            if q is not None and _carries_oracle(a, targets, q[None], tree)[0][0]:
                yield q
            return
        ok = cands[i]
        for j, g in enumerate(images):
            ok = ok[np.abs(ok @ g - gram[j, i]) <= dot_tol]
        for g in ok:
            yield from extend(images + [g])

    return list(extend([]))


def greedy_frame_oracle(cand, want):
    """``delone_core._greedy_frame`` as it was with ``np.cross``: the first
    ``want`` vectors of the greedy frame of ``cand``, or None."""
    picked = [cand[int(np.argmax(np.round(np.einsum("ij,ij->i", cand, cand), 9)))]]
    while len(picked) < want:
        if len(picked) == 1:
            cross = np.cross(picked[0], cand)
            score = np.einsum("ij,ij->i", cross, cross)
        else:
            score = np.abs(cand @ np.cross(picked[0], picked[1]))
        score = np.round(score, 9)
        i = int(np.argmax(score))
        if score[i] <= 1e-9:
            return None
        picked.append(cand[i])
    return np.array(picked)


def _canonical_axis_oracle(v):
    v = np.asarray(v, dtype=float)
    v = v / float(np.linalg.norm(v))
    for comp in v:
        if abs(comp) > GEOM_TOL:
            if comp < 0:
                v = -v
            break
    return v + 0.0


def _axis_oracle(r, half_turn):
    if half_turn:
        s = r + np.eye(3)
        v = s[:, int(np.argmax((s * s).sum(axis=0)))]
    else:
        v = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return _canonical_axis_oracle(v)


def element_kind_oracle(q, order):
    """Kind of one orthogonal map of known order (None: no finite order)."""
    q = np.asarray(q, dtype=float)
    if np.linalg.det(q) > 0.0:
        if order == 1:
            return ElementKind("identity")
        kind = "rotation" if order else "generic_rotation"
        return ElementKind(kind, order, _axis_oracle(q, order == 2))
    if order == 2:
        if np.trace(q) < -1.0:
            return ElementKind("inversion")
        return ElementKind("reflection", axis=_axis_oracle(-q, True))
    kind = "rotoreflection" if order else "generic_rotoreflection"
    return ElementKind(kind, order, _axis_oracle(-q, False))


def _check_group(mats):
    """Product table of the matrices ``mats``, each product matched as a
    9-vector within 1e-6 in max norm; raises unless they form a group.
    The matrix table that the library's integer tables (composed from the
    permutations its maps make) replaced, kept as their oracle."""
    m = np.asarray(mats, dtype=float).reshape(-1, 3, 3)
    tree = cKDTree(m.reshape(-1, 9))

    def match(queries):
        d, idx = tree.query(queries.reshape(-1, 9), p=np.inf,
                            distance_upper_bound=1e-6)
        return np.where(np.isfinite(d), idx, -1)

    table = match(np.einsum("iab,jbc->ijac", m, m)).reshape(len(m), len(m))
    return _check_table(table, match(np.eye(3))[0] >= 0)


def element_kinds_oracle(elements):
    """Kind of each group element, one classifier call per element, with
    the orders read off the library's product table."""
    m = np.asarray(elements, dtype=float).reshape(-1, 3, 3)
    orders = _orders(_check_group(m))
    return [element_kind_oracle(q, int(n)) for q, n in zip(m, orders)]


def same_kinds(got, want):
    """Whether two kind sequences agree exactly: kind, order and the axis
    bits (both None, or array_equal)."""
    return len(got) == len(want) and all(
        g.kind == w.kind and g.order == w.order
        and (g.axis is None) == (w.axis is None)
        and (g.axis is None or np.array_equal(g.axis, w.axis))
        for g, w in zip(got, want))


def covering_radius_oracle(patch):
    """The covering radius as it was computed before the Delaunay
    circumballs: one Voronoi diagram of the patch, every vertex scored by
    its KD distance to the set, the largest score whose ball fits the
    trusted box.  Raises BoxTooSmall, as the library does, when Qhull
    fails or no vertex fits."""
    try:
        verts = Voronoi(patch.points).vertices
    except (QhullError, ValueError):
        raise BoxTooSmall("Qhull cannot build the Voronoi diagram") from None
    d, _ = patch.tree.query(verts)
    inside = patch.ball_inside_box(verts, d[:, None])
    if not np.any(inside):
        raise BoxTooSmall("no empty-ball center fits inside the trusted box")
    return float(d[inside].max())


def signed_permutations():
    """All 48 signed permutation matrices (oracle for the Z^3 stabilizer)."""
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product([1.0, -1.0], repeat=3):
            m = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            mats.append(m)
    return mats


def element_key(m):
    """Rounded key of a group element, for comparing element sets that
    are far from the rounding boundaries (signed permutations, closures of
    the named generators, their conjugates)."""
    return tuple((np.round(np.asarray(m, dtype=float), 6) + 0.0).ravel())


def closure_oracle(generators, limit=200):
    """Independent closure of matrices under products (rounded keys)."""
    elems = {element_key(np.eye(3)): np.eye(3)}
    frontier = [np.eye(3)] + [np.asarray(g, float) for g in generators]
    for g in frontier[1:]:
        elems.setdefault(element_key(g), g)
    changed = True
    while changed:
        changed = False
        current = list(elems.values())
        for a in current:
            for b in current:
                p = a @ b
                k = element_key(p)
                if k not in elems:
                    elems[k] = p
                    changed = True
                    assert len(elems) <= limit
    return list(elems.values())


def tower_height_oracle(elements):
    """Tower height by enumerating the subgroup lattice: the longest chain
    of strictly nested subgroups, both ends included.

    Subgroups are the closures of joins of cyclic subgroups, found through
    an integer multiplication table with rounded keys; each subgroup's
    height is one more than the largest height among its proper subgroups.
    """
    elements = sorted(elements, key=lambda m: float(np.abs(m - np.eye(3)).max()))
    index = {element_key(m): i for i, m in enumerate(elements)}
    assert element_key(elements[0]) == element_key(np.eye(3))
    table = [[index[element_key(a @ b)] for b in elements] for a in elements]

    def close(gens):
        s = set(gens) | {0}
        frontier = list(s)
        while frontier:
            new = []
            members = list(s)
            for f in frontier:
                for g in members:
                    for k in (table[f][g], table[g][f]):
                        if k not in s:
                            s.add(k)
                            new.append(k)
            frontier = new
        return frozenset(s)

    cyclics = {close({i}) for i in range(len(elements))}
    subs = {frozenset({0})} | cyclics | {frozenset(range(len(elements)))}
    changed = True
    while changed:
        changed = False
        for h in list(subs):
            for c in cyclics:
                if not c <= h:
                    j = close(h | c)
                    if j not in subs:
                        subs.add(j)
                        changed = True
    height = {}
    for s in sorted(subs, key=len):  # proper subgroups come first
        height[s] = 1 + max((height[t] for t in height if t < s), default=0)
    return height[max(subs, key=len)]


def _rotation_order(theta, max_order, angle_tol):
    """Smallest n <= max_order with theta = 2 pi k / n, gcd(k, n) = 1."""
    two_pi = 2.0 * np.pi
    for n in range(2, max_order + 1):
        k = int(round(theta * n / two_pi))
        if k < 1 or k > n // 2:
            continue
        if abs(theta - two_pi * k / n) <= angle_tol and gcd(k, n) == 1:
            return n
    return None


def _rotoreflection_order(theta, max_order, angle_tol):
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


def _rotation_angle(r):
    """Rotation angle in [0, pi] of a proper orthogonal map (atan2 of the
    sine from the antisymmetric part and the cosine from the trace)."""
    c = (float(np.trace(r)) - 1.0) / 2.0
    s = float(np.linalg.norm(r - r.T)) / (2.0 * np.sqrt(2.0))
    return float(np.arctan2(s, c))


def _fixed_axis(q, eigenvalue):
    """Unit eigenvector of an orthogonal map for eigenvalue +1 or -1."""
    w, v = np.linalg.eig(q)
    idx = int(np.argmin(np.abs(w - eigenvalue)))
    axis = np.real(v[:, idx])
    return canonical_axis(axis)


def classify_element_oracle(q, angle_tol=1e-9, max_rotation_order=24):
    """Angle-based element classifier (oracle for the product-table one).

    Snaps q onto O(3), reads the rotation angle and matches it against
    2 pi k / n within ``angle_tol``; the axis is an eigenvector from
    ``np.linalg.eig``.  Shares no order or axis code with the library.
    """
    q = check_orthogonal(q)
    q = nearest_orthogonal(q)
    det = float(np.linalg.det(q))
    proper = det > 0.0

    if proper:
        theta = _rotation_angle(q)
        if theta <= angle_tol:
            return ElementKind("identity")
        # axis = eigenvector of q for eigenvalue +1
        axis = _fixed_axis(q, +1.0)
        if abs(theta - np.pi) <= angle_tol:
            return ElementKind("rotation", order=2, axis=axis)
        n = _rotation_order(theta, max_rotation_order, angle_tol)
        if n is None:
            return ElementKind("generic_rotation", axis=axis)
        return ElementKind("rotation", order=n, axis=axis)

    # improper: q = (rotation by phi about axis) o (reflection in the plane
    # orthogonal to the axis), with axis the -1 eigenvector.  -q is the
    # proper rotation by pi - phi about the same axis, so phi is recovered
    # from it without the arccos conditioning loss near phi = 0 or pi.
    axis = _fixed_axis(q, -1.0)
    phi = float(np.pi) - _rotation_angle(-q)
    if phi <= angle_tol:
        return ElementKind("reflection", axis=axis)
    if abs(phi - np.pi) <= angle_tol:
        return ElementKind("inversion")
    n = _rotoreflection_order(phi, 2 * max_rotation_order, angle_tol)
    if n is None:
        return ElementKind("generic_rotoreflection", axis=axis)
    return ElementKind("rotoreflection", order=n, axis=axis)


# --- Schoenflies label oracle -------------------------------------------------
# The geometric decision tree the library labelled groups with before it
# read the label off integer counts: distinct rotation axes found by
# comparing |cos| of axes against _ANG_TOL, then the principal axis, its
# perpendicular C2 axes and its horizontal, vertical and S2n elements.
# Kept unchanged as the reference the counting label must reproduce.

#: Two unit axes are parallel iff |cos| of their angle is within this of 1.
_ANG_TOL = 1e-6


def _parallel(u, v):
    return abs(abs(float(np.dot(u, v))) - 1.0) <= _ANG_TOL


def _perpendicular(u, v):
    return abs(float(np.dot(u, v))) <= _ANG_TOL


def label_oracle(kinds):
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
    axes = []
    axis_orders = []
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


def _polyhedral_label(order, has_inversion, has_reflections):
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


def _axial_label(axis, n, axes, axis_orders, reflections, rotoreflections):
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


# Standard generator matrices (z principal axis) for building named groups.
def cn_gen(n):
    return rotation_matrix([0, 0, 1], 2 * np.pi / n)


def sn_gen(n):
    return np.diag([1.0, 1.0, -1.0]) @ rotation_matrix([0, 0, 1], 2 * np.pi / n)


def rotoreflection_matrix(axis, angle):
    """Rotation about ``axis`` composed with reflection in the plane
    orthogonal to it."""
    return reflection_matrix(axis) @ rotation_matrix(axis, angle)


SIGMA_H = np.diag([1.0, 1.0, -1.0])
SIGMA_V = np.diag([1.0, -1.0, 1.0])
C2_X = np.diag([1.0, -1.0, -1.0])
SIGMA_D = reflection_matrix([np.sin(np.pi / 4), -np.cos(np.pi / 4), 0.0])


def named_group_generators():
    """Map of Schoenflies label -> generator matrices, for n = 1..6 axial
    families plus S8/S10/S12 and the polyhedral groups."""
    gens = {}
    for n in range(2, 7):
        gens[f"C{n}"] = [cn_gen(n)]
        gens[f"C{n}v"] = [cn_gen(n), SIGMA_V]
        gens[f"D{n}"] = [cn_gen(n), C2_X]
        gens[f"D{n}h"] = [cn_gen(n), C2_X, SIGMA_H]
        # Dnd: vertical mirror bisecting adjacent C2 axes
        gens[f"D{n}d"] = [cn_gen(n), C2_X,
                          reflection_matrix([np.sin(np.pi / (2 * n)),
                                             -np.cos(np.pi / (2 * n)), 0.0])]
    for n in (4, 6):  # even n: Cnh stays Cnh
        gens[f"C{n}h"] = [cn_gen(n), SIGMA_H]
    gens["C2h"] = [cn_gen(2), SIGMA_H]
    for n in (3, 5):  # odd n: Cnh = Sn (paper aliasing)
        gens[f"S{n}"] = [cn_gen(n), SIGMA_H]
    for n in (2, 4, 6, 8, 10, 12):
        gens[f"S{n}"] = [sn_gen(n)]
    gens["S1"] = [SIGMA_H]
    gens["C1"] = []

    # polyhedral: tetrahedron inscribed in the cube with vertices
    # (1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1)
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    all_sp = signed_permutations()

    def preserves(m, pts):
        moved = pts @ m.T
        return all(any(np.allclose(v, w, atol=1e-9) for w in pts) for v in moved)

    td = [m for m in all_sp if preserves(m, tetra)]
    t = [m for m in td if np.linalg.det(m) > 0]
    gens["T"] = t
    gens["Td"] = td
    gens["Th"] = t + [-m for m in t]
    gens["O"] = [m for m in all_sp if np.linalg.det(m) > 0]
    gens["Oh"] = all_sp
    # icosahedral rotations: order-5 axis through (phi, 1, 0), order-3
    # axis through (1, 1, 1)
    phi = (1 + np.sqrt(5)) / 2
    r5 = rotation_matrix([phi, 1.0, 0.0], 2 * np.pi / 5)
    r3 = rotation_matrix([1.0, 1.0, 1.0], 2 * np.pi / 3)
    gens["I"] = [r5, r3]
    gens["Ih"] = [r5, r3, -np.eye(3)]
    return gens


# --- antiprism optimizer oracle ---------------------------------------------
# The broadcasting lemma-1 kernel the optimizers used before the
# component-form builder: P_y from stacked (..., 8, 3) arrays, P_x stacked
# inline, and the pair distances from one einsum over a (..., 8, 8, 3)
# difference tensor.  Kept unchanged as the reference the array kernel,
# which serves both the grid and the Nelder-Mead refinement, and the
# float objective ``lemma1_objective`` must reproduce bit for bit.
_ORACLE_SQRT2 = np.sqrt(2.0)


def py_vertices_oracle(a, b, x, y, z):
    """Vertices of P_y for broadcastable parameter arrays; returns an
    array of shape broadcast(...) + (8, 3)."""
    a, b, x, y, z = np.broadcast_arrays(*map(np.asarray, (a, b, x, y, z)))
    shape = a.shape + (8, 3)
    out = np.empty(shape, dtype=float)
    zero = np.zeros_like(a)
    vz = np.stack([a + x, y, b + z], axis=-1)
    t = vz / 2.0
    cross = np.stack([b * y, a * z - b * x, -a * y], axis=-1)
    half = cross / (2.0 * b)[..., None]
    out[..., 0, :] = np.stack([zero, zero, zero], axis=-1)  # x itself
    out[..., 1, :] = vz
    out[..., 2, :] = t + half
    out[..., 3, :] = t - half
    other = np.stack([(3.0 * a - x) / 2.0, -y / 2.0, (3.0 * b - z) / 2.0],
                     axis=-1)
    e1 = vz / (2.0 * _ORACLE_SQRT2)
    e2 = half / _ORACLE_SQRT2
    out[..., 4, :] = other + e1 + e2
    out[..., 5, :] = other + e1 - e2
    out[..., 6, :] = other - e1 + e2
    out[..., 7, :] = other - e1 - e2
    return out


def _min_filtered_distance_oracle(px, py, pair_filter):
    diff = px[..., :, None, :] - py[..., None, :, :]
    d = np.sqrt(np.einsum("...k,...k->...", diff, diff))
    d = np.where(d >= pair_filter, d, np.inf)
    return d.min(axis=(-1, -2))


def lemma1_values_oracle(phi, psi, pair_filter=0.01):
    """The lemma-1 objective over broadcastable angle arrays (or scalars,
    which give a 0-d array)."""
    phi, psi = np.broadcast_arrays(np.asarray(phi, float), np.asarray(psi, float))
    a = np.cos(phi)
    b = np.sin(phi)
    c = a * a - b * b
    r = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    x = c * a - r * np.cos(psi) * b
    y = r * np.sin(psi)
    z = c * b + r * np.cos(psi) * a
    py = py_vertices_oracle(a, b, x, y, z)
    s = a / _ORACLE_SQRT2
    zero = np.zeros_like(a)
    px = np.stack([
        np.stack([a, zero, b], axis=-1),
        np.stack([-a, zero, b], axis=-1),
        np.stack([zero, a, b], axis=-1),
        np.stack([zero, -a, b], axis=-1),
        np.stack([s, s, -b], axis=-1),
        np.stack([s, -s, -b], axis=-1),
        np.stack([-s, s, -b], axis=-1),
        np.stack([-s, -s, -b], axis=-1),
    ], axis=-2)
    return _min_filtered_distance_oracle(px, py, pair_filter)


# --- Nelder-Mead oracle -------------------------------------------------------
# The refinement loop the optimizers ran before the lockstep solver: one
# scipy ``minimize(method="Nelder-Mead")`` per start, on a scalar wrapper
# of the array objective.  Kept as the reference ``_nelder_mead`` must
# match start by start: the same x, fun and success.


def nelder_mead_oracle(f, x0, maxiter, xatol=1e-10, fatol=1e-12):
    """scipy's Nelder-Mead on each row of ``x0`` separately; ``f`` maps an
    (m, N) array to m values.  Returns a list of OptimizeResult."""
    return [minimize(lambda v: f(v[None])[0], row, method="Nelder-Mead",
                     options={"maxiter": maxiter, "xatol": xatol,
                              "fatol": fatol})
            for row in x0]

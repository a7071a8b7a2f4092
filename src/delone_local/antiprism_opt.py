"""Constrained optimizations over pairs of unit-circumradius square
antiprisms.

Two optimization problems arise in the proof that 8-fold rotoreflection
symmetry cannot occur in a 2R-cluster group:

* Problem 1 ("lemma1"): place a second antiprism P_y so that it shares the
  vertex x = (0,0,0) with the first antiprism's center configuration, and
  maximize the minimal distance between vertices of P_x and P_y that are
  at least ``pair_filter`` (default 0.01) apart.
* Problem 2 ("lemma2"): maximize |z u1| + |z u2| - 1 - sqrt(a^2 + b^2)
  over the admissible positions of a base-vertex pair u1, u2 relative to
  the off-axis point z = (a, 0, b).

Both feasible sets are low-dimensional manifolds; the optimizers seed a
deterministic uniform grid over an explicit parameterization of the
manifold and refine the best seeds with Nelder-Mead (parameters clamped
onto the feasible region, strict inequalities shrunk by ``LEMMA2_EPS``).
Everything is deterministic: identical reports across runs.

Problem 1's P_x and P_y come from one builder, ``_vertex_pairs``, whose
stacked arithmetic reads the same on floats and on arrays: one kernel,
``_lemma1_kernel``, serves the seed search, the refinement and
``lemma1_objective``, and ``p_y_vertices`` runs the builder on floats, so
they agree bit for bit.  The seeds are found by bound and prune
(``_lemma1_seeds``).  The kernel over a subset of the 64 vertex pairs,
each pair's squared distance built as over all of them, bounds the
objective from above at every point, bit for bit: a minimum over fewer of
the same values is no smaller.  The full kernel then runs only on the
points of largest bound and on those whose bound reaches the worst of
their values; every other point lies below that value, so it cannot be a
seed, and the seeds and their values are those of the whole grid.  The
bound runs in blocks of whole phi rows, the second half of them on a
worker thread where the process may run on two CPUs (numpy's loops
release the GIL; the values do not depend on the split).  Problem 2's
grid runs on broadcast axes.  The seeds are chosen without copying
either grid whole.  The refinement runs all starts in lockstep
(``_nelder_mead``), one objective call per iteration on every start's
four candidate points, each start ending where scipy's Nelder-Mead, the
oracle, ends.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .delone_core import _map_halves
from .errors import BudgetExhausted, InfeasibleParams

__all__ = [
    "Lemma1Params",
    "Lemma2Params",
    "OptBudget",
    "OptimizationReport",
    "p_y_vertices",
    "lemma1_objective",
    "lemma2_objective",
    "optimize_lemma1",
    "optimize_lemma2",
    "PHI_MIN",
    "PHI_MAX",
    "LEMMA2_B_MIN",
]

_SQRT2 = math.sqrt(2.0)
#: Feasibility tolerance for the equality/inequality constraints.
FEAS_TOL = 1e-9
#: Number of best grid seeds that Nelder-Mead refines.
REFINE_TOP = 24
#: Nelder-Mead iteration cap per start.
NM_MAXITER = 400
#: Margin by which problem 2's strict inequalities are shrunk.
LEMMA2_EPS = 1e-6
#: Grid points per kernel call, in whole rows (at least one): a lemma-1
#: point holds up to 4 x 64 doubles of pair temporaries, so 1000 points
#: amortize numpy's per-call overhead; a lemma-2 point holds about 8, and
#: at 4096 points a block's temporaries fit in cache and reuse the heap's
#: pages (a 48^2 row is 2304 points).
LEMMA1_BLOCK, LEMMA2_BLOCK = 1000, 4096
#: Seed selection reads its threshold off every SEED_STRIDE-th grid value.
SEED_STRIDE = 16
#: Lemma 1's seed bound takes the vertex pairs that attain the minimum on
#: a sub-grid of at most PAIR_SAMPLE x PAIR_SAMPLE points, every
#: ceil(n / PAIR_SAMPLE)-th row and column: it covers both angles on any
#: grid shape, where a stride over the flat grid can fall on a few psi
#: columns.  Exactness does not depend on it.  A larger sample finds more
#: pairs and makes every bound dearer: on grids from 1 x 80 to 300 x 300 at
#: filters from 1e-300 to 0.999, 24 x 24 cost less in all than 32 x 32 or
#: 48 x 48, and 16 x 16 missed pairs that left thousands of points in.
PAIR_SAMPLE = 24
#: The most grid points a budget admits, counted before any array is
#: built: a lemma-1 search peaks at about 18 bytes a point (its bounds,
#: twice while their blocks are joined), so 10^7 points take about 0.2 GB.
MAX_GRID_POINTS = 10 ** 7

# Feasible (a, b) = (cos phi, sin phi) with a, b > 0: a^2 >= b^2 gives
# phi <= pi/4, and a^2 (1 - sqrt2) + 3 b^2 >= 0 gives
# tan^2 phi >= (sqrt2 - 1) / 3.
PHI_MIN = float(np.arctan(np.sqrt((_SQRT2 - 1.0) / 3.0)))
PHI_MAX = float(np.pi / 4.0)

#: Smallest feasible b in problem 2: a^2 + b^2 > 1 with
#: a^2 <= 3 (sqrt2 + 1) b^2 forces b^2 (3 sqrt2 + 4) > 1.
LEMMA2_B_MIN = float(1.0 / np.sqrt(3.0 * _SQRT2 + 4.0))


@dataclass(frozen=True)
class Lemma1Params:
    """Parameters of problem 1: y = (a, 0, b) and the unit vector
    (x, y, z) from y to the opposite in-base vertex z of P_y."""

    a: float
    b: float
    x: float
    y: float
    z: float

    def feasibility_residual(self) -> float:
        a, b, x, y, z = self.a, self.b, self.x, self.y, self.z
        res = [
            abs(a * a + b * b - 1.0),
            abs(x * x + y * y + z * z - 1.0),
            abs(a * x + b * z - (a * a - b * b)),
            max(0.0, b * b - a * a),
            max(0.0, -(a * a * (1.0 - _SQRT2) + 3.0 * b * b)),
            max(0.0, -a),                      # P_x needs a > 0
        ]
        return max(res)

    @staticmethod
    def from_angles(phi: float, psi: float) -> "Lemma1Params":
        """Exact parameterization of the feasible manifold (_angle_params)."""
        return Lemma1Params(*map(float, _angle_params(phi, psi)))


@dataclass(frozen=True)
class Lemma2Params:
    """Parameters of problem 2: z = (a, 0, b), u1 = (x, y, 1 - b)."""

    a: float
    b: float
    x: float
    y: float

    def feasibility_residual(self) -> float:
        a, b, x, y = self.a, self.b, self.x, self.y
        res = [
            max(0.0, 1.0 - (a * a + b * b)),   # strict: a^2 + b^2 > 1
            max(0.0, -a),
            max(0.0, -b),                      # strict: b > 0
            max(0.0, b - 0.5),                 # strict: b < 1/2
            max(0.0, b * b - a * a),
            max(0.0, -(a * a * (1.0 - _SQRT2) + 3.0 * b * b)),
            abs(x * x + y * y - a * a),
            max(0.0, -x),
            max(0.0, -y),
        ]
        return max(res)


@dataclass(frozen=True)
class OptBudget:
    """Deterministic search budget for the antiprism optimizers; the
    other settings are ``REFINE_TOP``, ``NM_MAXITER`` and ``LEMMA2_EPS``."""

    grid_phi: int = 200
    grid_psi: int = 200
    grid_lemma2: int = 48
    pair_filter: float = 0.01

    def __post_init__(self) -> None:
        for name in ("grid_phi", "grid_psi", "grid_lemma2"):
            if getattr(self, name) < 1:
                raise ValueError(f"budget needs {name} positive, got "
                                 f"{getattr(self, name)}")
        for name, points in (("grid_phi * grid_psi",
                              int(self.grid_phi) * int(self.grid_psi)),
                             ("grid_lemma2^3", int(self.grid_lemma2) ** 3)):
            if points > MAX_GRID_POINTS:
                raise ValueError(f"budget needs {name} at most "
                                 f"{MAX_GRID_POINTS} grid points, got {points}")
        if not 0 < self.pair_filter < np.inf:
            raise ValueError("budget needs pair_filter positive and finite, "
                             f"got {self.pair_filter}")
        if self.pair_filter >= 1:
            raise ValueError(
                f"pair_filter must be below 1, got {self.pair_filter}: every "
                "P_x vertex lies at distance 1 from the shared vertex x, so "
                "such a filter drops pairs that are not coincident")


@dataclass(frozen=True)
class OptimizationReport:
    """Result of a deterministic multi-start maximization."""

    best_value: float
    argmax: object
    starts: int
    converged_starts: int
    constraint_residual: float


def _angle_params(phi, psi):
    """The feasible problem-1 point (a, b, x, y, z) at angles (phi, psi),
    on floats or on equal-shape arrays.

    (a, b) = (cos phi, sin phi); (x, y, z) runs over the circle cut out of
    the unit sphere by the plane a x + b z = a^2 - b^2, with angle psi
    measured from the in-plane direction (-b, 0, a).
    """
    a = np.cos(phi)
    b = np.sin(phi)
    c = a * a - b * b
    r = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    rc = r * np.cos(psi)
    return a, b, c * a - rc * b, r * np.sin(psi), c * b + rc * a


#: P_x's vertices as indices into the values (a, -a, s, -s, b, -b, 0).
_PX_INDEX = np.array([(0, 6, 4), (1, 6, 4), (6, 0, 4), (6, 1, 4),
                      (2, 2, 5), (2, 3, 5), (3, 2, 5), (3, 3, 5)])


def _vertex_pairs(a, b, x, y, z):
    """P_x and P_y as (8, 3, ...) stacks of vertices.

    P_x is ``generators.antiprism_points(a, b)``.  P_y has the base
    through x = (0,0,0): x, the opposite vertex Z = (a+x, y, b+z), and the
    two endpoints T +- H of +-(yx cross yz)/(2b) placed at the base center
    T = Z/2; the other base is (O +- E) +- F, from the quoted closed-form
    expression.  Each component takes only + - * /, in the same order on
    floats and on arrays: a and b broadcast against x, y and z, which
    share one shape (b = 0 divides by zero).
    """
    s = a / _SQRT2
    px = np.array([a, -a, s, -s, b, -b, np.zeros_like(a)])[_PX_INDEX]
    Z = np.array([a + x, y, b + z])
    T = Z / 2.0
    H = np.array([b * y, a * z - b * x, -a * y]) / (2.0 * b)
    O = np.array([3.0 * a - x, -y, 3.0 * b - z]) / 2.0
    E, F = Z / (2.0 * _SQRT2), H / _SQRT2
    OpE, OmE = O + E, O - E
    py = np.array([np.zeros_like(Z), Z, T + H, T - H,
                   OpE + F, OpE - F, OmE + F, OmE - F])
    return px, py


def _check(p: Lemma1Params) -> None:
    if p.b == 0.0:
        raise ZeroDivisionError("b = 0: antiprism bases coincide")
    if p.feasibility_residual() > FEAS_TOL:
        raise InfeasibleParams(
            f"constraint residual {p.feasibility_residual():.3e} > {FEAS_TOL:g}")


def p_y_vertices(p: Lemma1Params) -> np.ndarray:
    """The 8 vertices of the antiprism P_y determined by feasible
    problem-1 parameters, as an (8, 3) array (see ``_vertex_pairs``).

    Raises InfeasibleParams for infeasible p and ZeroDivisionError when
    b = 0.
    """
    _check(p)
    return _vertex_pairs(p.a, p.b, p.x, p.y, p.z)[1]


def lemma1_objective(p: Lemma1Params, pair_filter: float = 0.01) -> float:
    """Minimal distance between vertices of P_x and P_y at least
    ``pair_filter`` apart (the problem-1 objective)."""
    _check(p)
    return float(_lemma1_values(p.a, p.b, p.x, p.y, p.z, pair_filter))


def _squared_threshold(pair_filter: float) -> float:
    """The smallest double t >= 0 with sqrt(t) >= ``pair_filter``: sqrt
    is correctly rounded and monotone, so sqrt(q) < pair_filter iff q < t
    (never, for a NaN or non-positive filter)."""
    t = pair_filter * pair_filter if pair_filter > 0.0 else 0.0
    while math.sqrt(t) < pair_filter:
        t = math.nextafter(t, math.inf)
    while t > 0.0 and math.sqrt(math.nextafter(t, 0.0)) >= pair_filter:
        t = math.nextafter(t, 0.0)
    return t


def _lemma1_values(a, b, x, y, z, pair_filter: float) -> np.ndarray:
    """The problem-1 objective over floats or equal-shape arrays."""
    return _lemma1_kernel(a, b, x, y, z, _squared_threshold(pair_filter))


def _pair_squares(a, b, x, y, z, t: float, pairs=None) -> np.ndarray:
    """The squared distances of the vertex pairs ``pairs`` (indices
    8 i + j of P_x vertex i and P_y vertex j; all 64 by default), as a
    (pair, ...) stack: each P_x vertex minus the P_y vertex, squared and
    summed as (dx^2 + dz^2) + dy^2, and inf where it falls below t.  A
    pair's value does not depend on which others are taken."""
    px, py = _vertex_pairs(a, b, x, y, z)
    if pairs is None:
        d = px[:, None] - py[None]  # (P_x vertex, P_y vertex, component, ...)
        d = d.reshape(64, *d.shape[2:])
    else:
        d = py[pairs % 8]  # one copy, which takes the differences
        np.subtract(px[pairs // 8], d, out=d)
    d *= d
    q = d[:, 0] + d[:, 2]
    q += d[:, 1]
    q[q < t] = np.inf
    return q


def _lemma1_kernel(a, b, x, y, z, t: float, pairs=None) -> np.ndarray:
    """``_lemma1_values`` with the filter as its ``_squared_threshold``
    t: the ``_pair_squares`` of all 64 vertex pairs at once, then one sqrt
    of each point's minimum (inf where no pair passes; ``fmin`` skips a
    NaN).  Over a subset ``pairs`` it is a bound: a minimum over fewer
    of the same values is no smaller, bit for bit."""
    q = _pair_squares(a, b, x, y, z, t, pairs)
    return np.sqrt(np.fmin.reduce(q, axis=0, initial=np.inf))


#: The points c1 xbar - c2 worst a Nelder-Mead iteration evaluates, as
#: (c1, c2): the reflection, the expansion, the outside and the inside
#: contraction at scipy's default coefficients.  Each product is exact
#: or rounded as scipy's, so the points agree bit for bit.
_NM_STEPS = np.array([(2.0, 1.0), (3.0, 2.0), (1.5, 0.5), (0.5, -0.5)])


def _nelder_mead(f, x0: np.ndarray, maxiter: int, xatol: float,
                 fatol: float):
    """scipy's Nelder-Mead (default coefficients, ``maxiter`` only) on
    every row of ``x0`` in lockstep, ``f`` mapping (m, N) arrays to m
    values: each row's x, fun and success equal ``minimize``'s on that
    row alone.  An iteration calls ``f`` once, on all four
    ``_NM_STEPS`` points of every running row, and each row takes the
    one scipy's branches pick (f is pointwise, so the values scipy never
    asks for change nothing); the rows that shrink take one more call on
    their vertices.  Sorts use numpy's default ``argsort``, as scipy's,
    so ties agree.  The simplices of the rows still running stay
    compacted in ``s`` and ``fs`` (``run`` holds their rows); a row is
    written out once, when it converges or the iterations run out."""
    m, n = x0.shape
    s = np.repeat(x0[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    s[:, k + 1, k] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fs = f(s.reshape(-1, n)).reshape(m, n + 1)
    s, fs = _sort_simplices(s, fs)
    xs, funs = np.empty((m, n)), np.empty(m)
    success = np.zeros(m, dtype=bool)
    run = np.arange(m)
    for _ in range(1, maxiter):
        done = ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol)
                & (np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= fatol))
        if done.any():
            success[run[done]] = True
            xs[run[done]], funs[run[done]] = s[done, 0], fs[done].min(axis=1)
            run, s, fs = run[~done], s[~done], fs[~done]
            if len(run) == 0:
                break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        x = (_NM_STEPS[:, :1, None] * xbar
             - _NM_STEPS[:, 1:, None] * s[:, -1])  # (step, row, N)
        fx = f(x.reshape(-1, n)).reshape(4, -1)
        fr, fe, fo, fi = fx
        # scipy's branches: where the reflection beats the best vertex,
        # the expansion (step 1) if it beats the reflection, else the
        # reflection (0); the reflection where it beats the second worst;
        # else the outside contraction (2) where the reflection beats the
        # worst, the inside one (3) otherwise, kept only if no worse than
        # the reflection or better than the worst: the rest shrink
        step = np.where(fr < fs[:, 0], fe < fr,
                        np.where(fr < fs[:, -2], 0,
                                 np.where(fr < fs[:, -1], 2, 3)))
        keep = (step < 2) | np.where(step == 2, fo <= fr, fi < fs[:, -1])
        rows = np.arange(len(run))
        s[keep, -1] = x[step, rows][keep]
        fs[keep, -1] = fx[step, rows][keep]
        if not keep.all():
            shrink = ~keep
            best = s[shrink, :1]
            s[shrink, 1:] = best + 0.5 * (s[shrink, 1:] - best)
            fs[shrink, 1:] = f(s[shrink, 1:].reshape(-1, n)).reshape(-1, n)
        s, fs = _sort_simplices(s, fs)
    xs[run], funs[run] = s[:, 0], fs.min(axis=1)
    return xs, funs, success


def _sort_simplices(s: np.ndarray, fs: np.ndarray):
    """Each simplex's vertices and values in order of increasing value."""
    order = np.argsort(fs, axis=1)
    rows = np.arange(len(fs))[:, None]
    return s[rows, order], fs[rows, order]


def _best(vals: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-vals, kind="stable")[:k]`` for a flat ``vals``
    without copying it whole: only the values not below the k-th largest
    of every ``SEED_STRIDE``-th value, and the NaNs, are sorted.  At
    least k values reach that threshold, so the k largest are among
    them.  Where fewer than k values are sampled, every value is sorted."""
    sample = -vals[::SEED_STRIDE]
    if len(sample) < k:
        return np.argsort(-vals, kind="stable")[:k]
    cand = np.flatnonzero(~(vals < -np.partition(sample, k - 1)[k - 1]))
    return cand[np.argsort(-vals[cand], kind="stable")[:k]]


def _row_blocks(rows: int, *grids):
    """The ``grids`` in blocks of ``rows`` (at least one) leading rows."""
    k = max(1, rows)
    return [[g[i:i + k] for g in grids] for i in range(0, len(grids[0]), k)]


def _refine(f, clamp, vals, grids, params) -> OptimizationReport:
    """``_refine_seeds`` on the ``REFINE_TOP`` best points of the grid
    ``vals``, whose coordinates are the ``grids``."""
    flat = vals.ravel()
    top = _best(flat, REFINE_TOP)
    seeds = np.stack([g[np.unravel_index(top, vals.shape)] for g in grids],
                     axis=1)
    return _refine_seeds(f, clamp, seeds, flat[top], params)


def _refine_seeds(f, clamp, seeds, seed_vals, params) -> OptimizationReport:
    """Refine the rows of ``seeds``, best first by their values
    ``seed_vals``, with lockstep Nelder-Mead on ``-f`` (``f`` maps (m, N)
    arrays of raw coordinates to m values), scan the starts in seed order
    and report the best point found, clamped and mapped to its parameters
    by ``params``."""
    best_val = float(seed_vals[0])
    best = tuple(map(float, seeds[0]))
    xs, funs, success = _nelder_mead(lambda v: -f(v), seeds, NM_MAXITER,
                                     1e-10, 1e-12)
    for x, fun in zip(xs, funs):
        val = -float(fun)
        if val > best_val + 1e-15:
            best_val = val
            best = tuple(map(float, clamp(x)))
    converged = int(success.sum())
    if converged == 0:
        raise BudgetExhausted("no Nelder-Mead start converged")
    argmax = params(*best)
    return OptimizationReport(
        best_value=best_val,
        argmax=argmax,
        starts=int(len(seeds)),
        converged_starts=converged,
        constraint_residual=argmax.feasibility_residual(),
    )


def _bound_pairs(phis, psis, t: float) -> np.ndarray:
    """The vertex pairs (as ``_pair_squares`` indexes them) that attain
    the minimum somewhere on the ``PAIR_SAMPLE`` sub-grid of the grid
    ``phis`` x ``psis``, in increasing order."""
    def sample(axis):  # every ceil(n / PAIR_SAMPLE)-th value
        return axis[::-(-len(axis) // PAIR_SAMPLE)]

    q = _pair_squares(*_angle_params(sample(phis)[:, None], sample(psis)), t)
    return np.unique(np.argmin(q, axis=0))


def _lemma1_seeds(phis, psis, t: float):
    """The ``REFINE_TOP`` best points of the grid ``phis`` x ``psis``, as
    rows (phi, psi), and their kernel values, in the order
    ``np.argsort(-vals, kind="stable")`` gives over the values ``vals``
    of the whole grid in row-major order, bit for bit.

    Pass 1 bounds every point by the kernel over the ``_bound_pairs``:
    U >= f.  Pass 2 takes the exact values f of the ``REFINE_TOP`` points
    of largest U, whose worst, T, is at most the grid's ``REFINE_TOP``-th
    best value, and then of every point with U >= T.  Any other point has
    f <= U < T, so it is not among the best.  Pass 1 runs on blocks of
    whole phi rows broadcast against the psi axis, pass 2 on blocks of
    ``LEMMA1_BLOCK`` points, both through ``_map_halves``.
    """
    def kernel(pairs, blocks):
        return np.concatenate(_map_halves(
            lambda block: _lemma1_kernel(*_angle_params(*block), t,
                                         pairs).ravel(), blocks))

    def points(idx):  # the grid points of flat indices idx, as (phi, psi)
        return phis[idx // len(psis)], psis[idx % len(psis)]

    rows = _row_blocks(LEMMA1_BLOCK // len(psis), phis[:, None])
    bound = kernel(_bound_pairs(phis, psis, t), [(r, psis) for r, in rows])
    first = _best(bound, REFINE_TOP)
    worst = kernel(None, _row_blocks(LEMMA1_BLOCK, *points(first))).min()
    cand = np.flatnonzero(bound >= worst)
    vals = kernel(None, _row_blocks(LEMMA1_BLOCK, *points(cand)))
    order = np.argsort(-vals, kind="stable")[:REFINE_TOP]
    return np.stack(points(cand[order]), axis=1), vals[order]


def optimize_lemma1(budget: OptBudget = OptBudget()) -> OptimizationReport:
    """Deterministic multi-start maximization of the problem-1 objective.

    Seeds a grid over (phi, psi) — phi parameterizing (a, b) on the unit
    circle inside its inequality window, psi the feasible circle of
    (x, y, z) — then refines the top seeds with Nelder-Mead.  The seeds
    are picked by bound and prune (``_lemma1_seeds``): the full kernel
    runs only where a seed can be, and the seeds and their values are,
    bit for bit, the best of the kernel over the whole grid.
    """
    lo, hi = PHI_MIN, PHI_MAX
    phis = np.linspace(lo, hi, budget.grid_phi)
    psis = np.linspace(0.0, 2.0 * np.pi, budget.grid_psi, endpoint=False)
    t = _squared_threshold(budget.pair_filter)

    def clamp(v):
        return np.minimum(np.maximum(v[..., 0], lo), hi), v[..., 1]

    def f(v):
        return _lemma1_kernel(*_angle_params(*clamp(v)), t)

    return _refine_seeds(f, clamp, *_lemma1_seeds(phis, psis, t),
                         Lemma1Params.from_angles)


def lemma2_objective(p: Lemma2Params) -> float:
    """The problem-2 objective |z u1| + |z u2| - 1 - sqrt(a^2 + b^2)."""
    if p.feasibility_residual() > FEAS_TOL:
        raise InfeasibleParams(
            f"constraint residual {p.feasibility_residual():.3e} > {FEAS_TOL:g}")
    return float(_lemma2_value(p.a, p.b, p.x, p.y))


def _lemma2_value(a, b, x, y):
    """The problem-2 objective on floats or equal-shape arrays."""
    h = 1.0 - 2.0 * b  # z-offset from z=(a,0,b) to the base plane z = 1-b
    ax, ay = a - x, a - y
    d1 = np.sqrt(ax * ax + y * y + h * h)
    d2 = np.sqrt(ay * ay + x * x + h * h)
    return d1 + d2 - 1.0 - np.sqrt(a * a + b * b)


def _lemma2_clamp(v: np.ndarray):
    """Project raw optimizer coordinates (a, b, u), the last axis of
    ``v``, onto the feasible region shrunk by ``LEMMA2_EPS`` (u
    parameterizes x = a cos u, y = a sin u)."""
    eps = LEMMA2_EPS
    b = np.minimum(np.maximum(v[..., 1], LEMMA2_B_MIN + eps), 0.5 - eps)
    a_lo = np.sqrt(np.maximum(1.0 - b * b, b * b)) + eps
    a_hi = math.sqrt(3.0 * (_SQRT2 + 1.0)) * b
    a = np.minimum(np.maximum(v[..., 0], a_lo), a_hi)  # a_hi if a_lo > a_hi
    u = np.minimum(np.maximum(v[..., 2], 0.0), np.pi / 2.0)
    return a, b, u


def optimize_lemma2(budget: OptBudget = OptBudget()) -> OptimizationReport:
    """Deterministic multi-start maximization of the problem-2 objective.

    Grid over (b, a, u) with x = a cos u, y = a sin u; the strict
    inequalities (a^2 + b^2 > 1, 0 < b < 1/2) are shrunk by ``LEMMA2_EPS``
    so the seeds stay interior; Nelder-Mead refinement clamps onto the
    shrunk region.  The supremum sits on the boundary corner (a^2 + b^2 -> 1,
    b at its lower limit, u = 0), which the report's argmax makes visible.
    """
    eps = LEMMA2_EPS
    n = budget.grid_lemma2
    bs = np.linspace(LEMMA2_B_MIN + eps, 0.5 - eps, n)
    fracs = np.linspace(0.0, 1.0, n)
    us = np.linspace(0.0, np.pi / 2.0, n)

    a_lo = np.sqrt(np.maximum(1.0 - bs ** 2, bs ** 2)) + eps
    a_hi = np.sqrt(3.0 * (_SQRT2 + 1.0)) * bs
    a_hi = np.maximum(a_hi, a_lo)
    A = a_lo[:, None] + (a_hi - a_lo)[:, None] * fracs[None, :]  # (nb, na)

    a, b = A[:, :, None], bs[:, None, None]
    c, s = np.cos(us), np.sin(us)  # u takes n values: n trig calls
    vals = np.empty((n, n, n))  # in place: joining blocks held it twice
    for ak, bk, out in _row_blocks(LEMMA2_BLOCK // (n * n), a, b, vals):
        out[...] = _lemma2_value(ak, bk, ak * c, ak * s)

    def f(v):
        a, b, u = _lemma2_clamp(v)
        return _lemma2_value(a, b, a * np.cos(u), a * np.sin(u))

    def params(a, b, u):
        return Lemma2Params(a, b, float(a * np.cos(u)), float(a * np.sin(u)))

    grids = [np.broadcast_to(g, vals.shape) for g in (a, b, us)]
    return _refine(f, _lemma2_clamp, vals, grids, params)

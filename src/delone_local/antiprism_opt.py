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
onto the feasible region, strict inequalities shrunk by ``eps``).
Everything is deterministic: identical reports across runs.

Problem 1's P_x and P_y come from one builder, ``_vertex_pairs``, whose
arithmetic reads the same on floats and on arrays: the grid folds its 64
vertex pairs into a running minimum over whole angle arrays, and the
Nelder-Mead objective and ``lemma1_objective`` run it on floats with the
same (dx^2 + dz^2) + dy^2 sum, so all three agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import minimize

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
    """Deterministic search budget for the antiprism optimizers."""

    grid_phi: int = 200
    grid_psi: int = 200
    grid_lemma2: int = 48
    refine_top: int = 24
    nm_maxiter: int = 400
    eps: float = 1e-6
    pair_filter: float = 0.01
    phi_range: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if min(self.grid_phi, self.grid_psi, self.grid_lemma2,
               self.refine_top, self.nm_maxiter) < 1:
            raise ValueError("budget counts must be positive")
        if not (self.eps > 0 and self.pair_filter > 0):
            raise ValueError("eps and pair_filter must be positive")


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


def _vertex_pairs(a, b, x, y, z):
    """P_x and P_y as eight (x, y, z) component triples each.

    P_x is ``generators.antiprism_points(a, b)``.  P_y has the base
    through x = (0,0,0): x, the opposite vertex z = (a+x, y, b+z), and the
    two endpoints of +-(yx cross yz)/(2b) placed at the base center t; the
    other base is obtained from the quoted closed-form expression.  Only
    + - * / are used, so the components are floats or equal-shape arrays
    like the inputs (b = 0 divides by zero).
    """
    s = a / _SQRT2
    px = ((a, 0.0, b), (-a, 0.0, b), (0.0, a, b), (0.0, -a, b),
          (s, s, -b), (s, -s, -b), (-s, s, -b), (-s, -s, -b))
    zx, zy, zz = a + x, y, b + z
    tx, ty, tz = zx / 2.0, zy / 2.0, zz / 2.0
    h = 2.0 * b
    hx, hy, hz = b * y / h, (a * z - b * x) / h, -a * y / h
    ox, oy, oz = (3.0 * a - x) / 2.0, -y / 2.0, (3.0 * b - z) / 2.0
    k = 2.0 * _SQRT2
    ex, ey, ez = zx / k, zy / k, zz / k
    fx, fy, fz = hx / _SQRT2, hy / _SQRT2, hz / _SQRT2
    py = ((0.0, 0.0, 0.0), (zx, zy, zz),
          (tx + hx, ty + hy, tz + hz), (tx - hx, ty - hy, tz - hz),
          (ox + ex + fx, oy + ey + fy, oz + ez + fz),
          (ox + ex - fx, oy + ey - fy, oz + ez - fz),
          (ox - ex + fx, oy - ey + fy, oz - ez + fz),
          (ox - ex - fx, oy - ey - fy, oz - ez - fz))
    return px, py


def _checked_pairs(p: Lemma1Params):
    if p.b == 0.0:
        raise ZeroDivisionError("b = 0: antiprism bases coincide")
    if p.feasibility_residual() > FEAS_TOL:
        raise InfeasibleParams(
            f"constraint residual {p.feasibility_residual():.3e} > {FEAS_TOL:g}")
    return _vertex_pairs(p.a, p.b, p.x, p.y, p.z)


def p_y_vertices(p: Lemma1Params) -> np.ndarray:
    """The 8 vertices of the antiprism P_y determined by feasible
    problem-1 parameters, as an (8, 3) array (see ``_vertex_pairs``).

    Raises InfeasibleParams for infeasible p and ZeroDivisionError when
    b = 0.
    """
    return np.array(_checked_pairs(p)[1])


def _min_pair_distance(px, py, pair_filter: float) -> float:
    """Minimal distance between a vertex of px and one of py at least
    pair_filter apart (inf if none), on float components."""
    best = math.inf
    for ux, uy, uz in px:
        for vx, vy, vz in py:
            dx, dy, dz = ux - vx, uy - vy, uz - vz
            d = math.sqrt((dx * dx + dz * dz) + dy * dy)
            if pair_filter <= d < best:
                best = d
    return best


def lemma1_objective(p: Lemma1Params, pair_filter: float = 0.01) -> float:
    """Minimal distance between vertices of P_x and P_y at least
    ``pair_filter`` apart (the problem-1 objective)."""
    return _min_pair_distance(*_checked_pairs(p), pair_filter)


def _lemma1_value(phi: float, psi: float, pair_filter: float) -> float:
    """The problem-1 objective at one angle pair, on floats (the
    Nelder-Mead objective)."""
    pairs = _vertex_pairs(*map(float, _angle_params(phi, psi)))
    return _min_pair_distance(*pairs, pair_filter)


def _lemma1_value_from_angles(phi: np.ndarray, psi: np.ndarray,
                              pair_filter: float) -> np.ndarray:
    """The problem-1 objective over equal-shape angle arrays: the 64
    vertex pairs are folded one at a time into a running minimum, with
    the summation order of ``_min_pair_distance`` (``fmin`` skips a NaN
    distance, as the filter there does)."""
    px, py = _vertex_pairs(*_angle_params(phi, psi))
    best = np.full(phi.shape, np.inf)
    for ux, uy, uz in px:
        for vx, vy, vz in py:
            dx, dy, dz = ux - vx, uy - vy, uz - vz
            d = np.sqrt((dx * dx + dz * dz) + dy * dy)
            d[d < pair_filter] = np.inf
            np.fmin(best, d, out=best)
    return best


def _refine(neg, clamp, vals, grids, budget: OptBudget, params
            ) -> OptimizationReport:
    """Refine the ``refine_top`` best grid seeds with Nelder-Mead on
    ``neg`` and report the best point found, clamped and mapped to its
    parameters by ``params``."""
    flat = vals.ravel()
    seeds = np.stack([g.ravel() for g in grids], axis=1)
    top = np.argsort(-flat, kind="stable")[:budget.refine_top]
    best_val = float(flat[top[0]])
    best = tuple(map(float, seeds[top[0]]))
    converged = 0
    for idx in top:
        res = minimize(neg, seeds[idx], method="Nelder-Mead",
                       options={"maxiter": budget.nm_maxiter,
                                "xatol": 1e-10, "fatol": 1e-12})
        converged += bool(res.success)
        val = -float(res.fun)
        if val > best_val + 1e-15:
            best_val = val
            best = clamp(res.x)
    if converged == 0:
        raise BudgetExhausted("no Nelder-Mead start converged")
    argmax = params(*best)
    return OptimizationReport(
        best_value=best_val,
        argmax=argmax,
        starts=int(len(top)),
        converged_starts=converged,
        constraint_residual=argmax.feasibility_residual(),
    )


def optimize_lemma1(budget: OptBudget = OptBudget()) -> OptimizationReport:
    """Deterministic multi-start maximization of the problem-1 objective.

    Seeds a grid over (phi, psi) — phi parameterizing (a, b) on the unit
    circle inside its inequality window, psi the feasible circle of
    (x, y, z) — then refines the top seeds with Nelder-Mead.
    """
    lo, hi = PHI_MIN, PHI_MAX
    if budget.phi_range is not None:
        lo = max(lo, float(budget.phi_range[0]))
        hi = min(hi, float(budget.phi_range[1]))
        if lo > hi:
            raise InfeasibleParams(
                f"phi range [{budget.phi_range[0]:g}, {budget.phi_range[1]:g}] "
                "misses the feasible interval; zero starts")
    phis = np.linspace(lo, hi, budget.grid_phi)
    psis = np.linspace(0.0, 2.0 * np.pi, budget.grid_psi, endpoint=False)
    P, S = np.meshgrid(phis, psis, indexing="ij")
    vals = _lemma1_value_from_angles(P, S, budget.pair_filter)

    def neg(v):
        return -_lemma1_value(min(max(v[0], lo), hi), v[1], budget.pair_filter)

    def clamp(v):
        return min(max(float(v[0]), lo), hi), float(v[1])

    return _refine(neg, clamp, vals, (P, S), budget, Lemma1Params.from_angles)


def lemma2_objective(p: Lemma2Params) -> float:
    """The problem-2 objective |z u1| + |z u2| - 1 - sqrt(a^2 + b^2)."""
    if p.feasibility_residual() > FEAS_TOL:
        raise InfeasibleParams(
            f"constraint residual {p.feasibility_residual():.3e} > {FEAS_TOL:g}")
    return float(_lemma2_value(p.a, p.b, p.x, p.y))


def _lemma2_value(a, b, x, y, sqrt=math.sqrt):
    """The problem-2 objective on floats; pass ``sqrt=np.sqrt`` for
    arrays."""
    h = 1.0 - 2.0 * b  # z-offset from z=(a,0,b) to the base plane z = 1-b
    ax, ay = a - x, a - y
    d1 = sqrt(ax * ax + y * y + h * h)
    d2 = sqrt(ay * ay + x * x + h * h)
    return d1 + d2 - 1.0 - sqrt(a * a + b * b)


def _lemma2_clamp(v: np.ndarray, eps: float) -> Tuple[float, float, float]:
    """Project raw optimizer coordinates (a, b, u) onto the eps-shrunk
    feasible region (u parameterizes x = a cos u, y = a sin u)."""
    b = min(max(float(v[1]), LEMMA2_B_MIN + eps), 0.5 - eps)
    a_lo = math.sqrt(max(1.0 - b * b, b * b)) + eps
    a_hi = math.sqrt(3.0 * (_SQRT2 + 1.0)) * b
    if a_lo > a_hi:
        a_lo = a_hi
    a = min(max(float(v[0]), a_lo), a_hi)
    u = min(max(float(v[2]), 0.0), np.pi / 2.0)
    return a, b, u


def optimize_lemma2(budget: OptBudget = OptBudget()) -> OptimizationReport:
    """Deterministic multi-start maximization of the problem-2 objective.

    Grid over (b, a, u) with x = a cos u, y = a sin u; the strict
    inequalities (a^2 + b^2 > 1, 0 < b < 1/2) are shrunk by ``eps`` so the
    seeds stay interior; Nelder-Mead refinement clamps onto the shrunk
    region.  The supremum sits on the boundary corner (a^2 + b^2 -> 1,
    b at its lower limit, u = 0), which the report's argmax makes visible.
    """
    eps = budget.eps
    n = budget.grid_lemma2
    bs = np.linspace(LEMMA2_B_MIN + eps, 0.5 - eps, n)
    fracs = np.linspace(0.0, 1.0, n)
    us = np.linspace(0.0, np.pi / 2.0, n)

    a_lo = np.sqrt(np.maximum(1.0 - bs ** 2, bs ** 2)) + eps
    a_hi = np.sqrt(3.0 * (_SQRT2 + 1.0)) * bs
    a_hi = np.maximum(a_hi, a_lo)
    A = a_lo[:, None] + (a_hi - a_lo)[:, None] * fracs[None, :]  # (nb, na)

    Bg = np.broadcast_to(bs[:, None, None], (n, n, n))
    Ag = np.broadcast_to(A[:, :, None], (n, n, n))
    Ug = np.broadcast_to(us[None, None, :], (n, n, n))
    X = Ag * np.cos(Ug)
    Y = Ag * np.sin(Ug)
    vals = _lemma2_value(Ag, Bg, X, Y, np.sqrt)

    def neg(v):
        a, b, u = _lemma2_clamp(v, eps)
        return -_lemma2_value(a, b, a * float(np.cos(u)), a * float(np.sin(u)))

    def params(a, b, u):
        return Lemma2Params(a, b, float(a * np.cos(u)), float(a * np.sin(u)))

    return _refine(neg, lambda v: _lemma2_clamp(v, eps), vals, (Ag, Bg, Ug),
                   budget, params)

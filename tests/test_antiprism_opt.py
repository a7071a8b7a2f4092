"""The two antiprism optimization problems and their deterministic
multi-start solvers."""
import os
import threading

import numpy as np
import pytest

import delone_local as dl
from delone_local import antiprism_opt
from delone_local.antiprism_opt import (
    LEMMA2_B_MIN,
    PHI_MAX,
    PHI_MIN,
    Lemma1Params,
    Lemma2Params,
    OptBudget,
    _angle_params,
    _lemma1_values,
    _nelder_mead,
    _vertex_pairs,
    lemma1_objective,
    lemma2_objective,
    optimize_lemma1,
    optimize_lemma2,
    p_y_vertices,
)
from delone_local.errors import BudgetExhausted, InfeasibleParams
from delone_local.point_group import stabilizer

from conftest import (
    lemma1_values_oracle,
    nelder_mead_oracle,
    py_vertices_oracle,
)


@pytest.fixture(scope="module")
def lemma1_report():
    return optimize_lemma1()


@pytest.fixture(scope="module")
def lemma2_report():
    return optimize_lemma2()


def feasible_params(rng):
    phi = rng.uniform(PHI_MIN, PHI_MAX)
    psi = rng.uniform(0.0, 2 * np.pi)
    return Lemma1Params.from_angles(phi, psi)


def brute_force_objective(p, pair_filter=0.01):
    px = dl.antiprism_points(p.a, p.b)
    py = p_y_vertices(p)
    best = np.inf
    for u in px:
        for v in py:
            d = float(np.linalg.norm(u - v))
            if d >= pair_filter:
                best = min(best, d)
    return best


class TestPyVertices:
    def test_unit_distance_invariant(self):
        # every vertex of P_y lies at distance 1 from y = (a, 0, b)
        rng = np.random.default_rng(2)
        for _ in range(50):
            p = feasible_params(rng)
            v = p_y_vertices(p)
            assert v.shape == (8, 3)
            y = np.array([p.a, 0.0, p.b])
            # the configuration is expressed relative to x = 0; P_y is the
            # antiprism with circumradius 1 centered between its bases
            d = np.linalg.norm(v - (v.mean(axis=0)), axis=1)
            assert d.std() < 1e-9  # vertex-transitive: common circumradius
            assert np.allclose(d, d[0], atol=1e-9)

    def test_origin_is_a_vertex(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = feasible_params(rng)
            v = p_y_vertices(p)
            assert np.linalg.norm(v[0]) < 1e-12

    def test_base_planes(self):
        # the 8 vertices split into two parallel squares of 4
        p = Lemma1Params.from_angles((PHI_MIN + PHI_MAX) / 2, 1.0)
        v = p_y_vertices(p)
        vz = v[1]  # opposite base vertex: v0 -> origin, v1 -> (a+x, y, b+z)
        n = vz - 2 * v[0]
        assert abs(np.linalg.norm(vz) - np.linalg.norm(n)) < 1e-12

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleParams):
            p_y_vertices(Lemma1Params(0.3, 0.9, 1.0, 0.0, 0.0))

    def test_b_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            p_y_vertices(Lemma1Params(1.0, 0.0, 0.0, 0.0, 1.0))
        with pytest.raises(ZeroDivisionError):
            lemma1_objective(Lemma1Params(1.0, 0.0, 0.0, 0.0, 1.0))

    def test_objective_guards(self):
        with pytest.raises(InfeasibleParams):
            lemma1_objective(Lemma1Params(0.3, 0.9, 1.0, 0.0, 0.0))
        # a < 0 satisfies the equalities but not a > 0, which P_x needs
        p = Lemma1Params.from_angles(0.6, 1.0)
        flipped = Lemma1Params(-p.a, p.b, -p.x, p.y, p.z)
        assert flipped.feasibility_residual() == -flipped.a
        with pytest.raises(InfeasibleParams):
            lemma1_objective(flipped)

    def test_px_is_the_generator_antiprism(self):
        rng = np.random.default_rng(4)
        cases = [tuple(map(float, rng.uniform(0.05, 2.0, 2)))
                 for _ in range(30)]
        cases += [(p.a, p.b) for p in (feasible_params(rng) for _ in range(20))]
        for a, b in cases:
            px, _ = _vertex_pairs(a, b, 0.0, 0.0, 0.0)
            assert np.array_equal(np.array(px), dl.antiprism_points(a, b))

    def test_py_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = feasible_params(rng)
            want = py_vertices_oracle(p.a, p.b, p.x, p.y, p.z)
            assert np.array_equal(p_y_vertices(p), want)


class TestObjectives:
    def test_lemma1_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = feasible_params(rng)
            assert lemma1_objective(p) == pytest.approx(
                brute_force_objective(p), abs=1e-12)

    def test_pair_filter_knob(self):
        p = Lemma1Params.from_angles(PHI_MAX, 0.0)  # coincidence point
        loose = lemma1_objective(p, pair_filter=0.01)
        strict = lemma1_objective(p, pair_filter=1.5)
        assert strict >= loose

    def test_lemma2_symmetric_slice(self):
        # x = y = a / sqrt2 (on the circle x^2 + y^2 = a^2) makes both
        # distance terms equal
        b = 0.4
        a = np.sqrt(1.0 - b * b) + 1e-3
        s = a / np.sqrt(2.0)
        p = Lemma2Params(a, b, s, s)
        h = 1.0 - 2 * b
        d = np.sqrt((a - s) ** 2 + s * s + h * h)
        expected = 2 * d - 1.0 - np.sqrt(a * a + b * b)
        assert lemma2_objective(p) == pytest.approx(expected, abs=1e-12)

    def test_lemma2_infeasible(self):
        with pytest.raises(InfeasibleParams):
            lemma2_objective(Lemma2Params(0.5, 0.4, 0.0, 0.0))  # a^2+b^2 < 1


def lemma1_kernel(phi, psi, pair_filter=0.01):
    """The array kernel at one angle pair, as a float."""
    params = _angle_params(np.array([phi]), np.array([psi]))
    return float(_lemma1_values(*params, pair_filter)[0])


class TestKernelsMatchOracle:
    """The array kernel, on grid rows and on single points, and the float
    objective reproduce the broadcasting kernel of
    ``conftest.lemma1_values_oracle`` bit for bit."""

    @pytest.mark.parametrize("grid, phi_range", [
        (200, (PHI_MIN, PHI_MAX)),
        (50, (PHI_MIN + 0.05, PHI_MIN + 0.2)),
    ])
    def test_grid_kernel(self, grid, phi_range):
        phis = np.linspace(*phi_range, grid)
        psis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
        P, S = np.meshgrid(phis, psis, indexing="ij")
        for pf in (0.01, 0.3):
            got = np.array([_lemma1_values(*_angle_params(p, s), pf)
                            for p, s in zip(P, S)])
            assert np.array_equal(got, lemma1_values_oracle(P, S, pf))

    def test_scalar_objective(self):
        rng = np.random.default_rng(11)
        phis = list(rng.uniform(PHI_MIN, PHI_MAX, 1990)) + [PHI_MIN] * 5 \
            + [PHI_MAX] * 5
        psis = list(rng.uniform(-4 * np.pi, 6 * np.pi, 2000))
        psis[-5:] = [0.0, np.pi, 2 * np.pi, -np.pi / 2, 7.5]
        for phi, psi in zip(phis, psis):
            want = float(lemma1_values_oracle(phi, psi))
            assert lemma1_kernel(phi, psi) == want
            assert lemma1_objective(Lemma1Params.from_angles(phi, psi)) == want

    def test_scalar_objective_where_the_filter_acts(self):
        # at phi = PHI_MAX, psi = 0 the antiprisms share two vertices:
        # their pair distances (~1.6e-16) are dropped by the filter
        p = Lemma1Params.from_angles(PHI_MAX, 0.0)
        px, py = _vertex_pairs(p.a, p.b, p.x, p.y, p.z)
        d = np.linalg.norm(np.array(px)[:, None] - np.array(py)[None], axis=-1)
        assert (d < 1e-12).sum() == 2
        for pf in (1e-300, 0.01, 0.05, 0.3, 1.5):
            want = float(lemma1_values_oracle(PHI_MAX, 0.0, pf))
            assert lemma1_kernel(PHI_MAX, 0.0, pf) == want
        assert lemma1_kernel(PHI_MAX, 0.0, 0.01) == 0.9999999999999999

    @pytest.mark.parametrize("pf", [0.01, 0.3])
    def test_optimizer_grid(self, pf, monkeypatch):
        # the seed grid as _refine receives it, evaluated in blocks of
        # whole phi rows, against the oracle on the whole grid; the
        # lemma-2 grid is checked in TestOptimizeLemma2
        seen = []
        refine = antiprism_opt._refine
        monkeypatch.setattr(antiprism_opt, "_refine",
                            lambda *args: seen.append(args) or refine(*args))
        optimize_lemma1(OptBudget(pair_filter=pf))
        (_, _, vals, (P, S), _), = seen
        assert vals.shape == (200, 200)
        assert np.array_equal(vals, lemma1_values_oracle(P, S, pf))

    def test_squared_filter_boundary(self):
        # the kernel filters squared distances against the smallest double
        # whose sqrt reaches the filter: at a filter equal to an oracle
        # pair distance, or one ulp either side of it, and at extreme
        # filters, it keeps and drops the pairs the oracle does
        rng = np.random.default_rng(12)
        for _ in range(8):
            phi = rng.uniform(PHI_MIN, PHI_MAX)
            psi = rng.uniform(0.0, 2 * np.pi)
            p = Lemma1Params.from_angles(phi, psi)
            diff = (dl.antiprism_points(p.a, p.b)[:, None]
                    - py_vertices_oracle(p.a, p.b, p.x, p.y, p.z)[None])
            d = np.sqrt(np.einsum("...k,...k->...", diff, diff)).ravel()
            filters = [1e-300, 1e200]
            for dist in np.sort(d)[::8]:
                filters += [dist, np.nextafter(dist, np.inf),
                            np.nextafter(dist, -np.inf)]
            for pf in map(float, filters):
                want = float(lemma1_values_oracle(phi, psi, pf))
                assert lemma1_kernel(phi, psi, pf) == want, pf


def assert_matches_oracle(f, x0, maxiter, xatol=1e-10, fatol=1e-12):
    """Every start of ``_nelder_mead`` equals scipy's ``minimize`` on it
    alone; returns the number of converged starts."""
    xs, funs, success = _nelder_mead(f, x0, maxiter, xatol, fatol)
    want = nelder_mead_oracle(f, x0, maxiter, xatol, fatol)
    assert len(xs) == len(funs) == len(success) == len(want)
    for i, res in enumerate(want):
        assert np.array_equal(xs[i], res.x), i
        assert funs[i] == res.fun, i
        assert bool(success[i]) == res.success, i
    return int(success.sum())


@pytest.fixture
def recorded_refinements(monkeypatch):
    """Each ``_nelder_mead`` call an optimizer makes, as (f, x0, maxiter,
    xatol, fatol)."""
    calls = []

    def record(f, x0, maxiter, xatol, fatol):
        calls.append((f, x0.copy(), maxiter, xatol, fatol))
        return _nelder_mead(f, x0, maxiter, xatol, fatol)

    monkeypatch.setattr(antiprism_opt, "_nelder_mead", record)
    return calls


def plateaus(v):
    """A 3-d objective of integer steps, so simplices hold tied values.
    Its steps at y = 0 and z = 0 fall inside the 0.00025 offset of an
    initial simplex around a zero coordinate, which gives ties that
    numpy's default argsort orders unlike a stable sort."""
    return (np.floor(3.0 * v[:, 0]) ** 2 + np.floor(2.0 * v[:, 1] - 1.0) ** 2
            + np.abs(np.floor(4.0 * v[:, 2] + 1.0))
            + np.minimum(np.floor(-2000.0 * v[:, 1:]), 0.0).sum(axis=1))


def rosenbrock(v):
    return 100.0 * (v[:, 1] - v[:, 0] ** 2) ** 2 + (1.0 - v[:, 0]) ** 2


class TestNelderMeadOracle:
    """The lockstep Nelder-Mead matches scipy's per-start ``minimize``
    exactly: on the optimizers' own seeds and objectives, and on
    synthetic objectives with ties, plateaus and zero coordinates."""

    @pytest.mark.parametrize("optimize", [optimize_lemma1, optimize_lemma2])
    def test_default_budget(self, optimize, recorded_refinements):
        optimize()
        (call,) = recorded_refinements
        assert call[1].shape[0] == 24
        assert assert_matches_oracle(*call) == 24

    @pytest.mark.parametrize("maxiter, converged", [(1, 0), (80, 1),
                                                    (150, 22)])
    def test_lemma1_iteration_caps(self, maxiter, converged,
                                   recorded_refinements, monkeypatch):
        monkeypatch.setattr(antiprism_opt, "NM_MAXITER", maxiter)
        budget = OptBudget(grid_phi=60, grid_psi=60)
        if converged:
            optimize_lemma1(budget)
        else:
            with pytest.raises(BudgetExhausted):
                optimize_lemma1(budget)
        (call,) = recorded_refinements
        assert assert_matches_oracle(*call) == converged

    @pytest.mark.parametrize("maxiter", [5, 50, 400])
    @pytest.mark.parametrize("f, n", [(plateaus, 3), (rosenbrock, 2)])
    def test_synthetic(self, f, n, maxiter):
        rng = np.random.default_rng(13)
        x0 = rng.uniform(-2.0, 2.0, (40, n))
        x0[:8] = np.round(x0[:8])
        x0[8:16, 0] = 0.0
        x0[16:20] = 0.0
        # from this start, plateaus meets ties inside the loop that a
        # stable sort orders unlike scipy (by 400 iterations)
        x0[20] = (-2.0, -1.5, 0.5)[:n]
        assert_matches_oracle(f, x0, maxiter)


class TestBestSeeds:
    def test_prefix_of_stable_argsort_without_a_whole_copy(self):
        # the k largest values, ties by index and NaN last, from sampled
        # thresholds: grids long enough to be sampled, samples that hold
        # fewer than k numbers, and short grids sorted whole
        rng = np.random.default_rng(19)
        for _ in range(300):
            n = int(rng.integers(1, 3000))
            vals = rng.integers(0, int(rng.integers(1, 50)), n).astype(float)
            vals[rng.random(n) < rng.choice([0.0, 0.2, 0.99])] = np.nan
            vals[rng.random(n) < 0.1] = -0.0
            vals[rng.random(n) < 0.05] = np.inf
            for k in (1, 24, int(rng.integers(1, 70)), n):
                assert np.array_equal(antiprism_opt._best(vals, k),
                                      np.argsort(-vals, kind="stable")[:k])


class TestOneCallIteration:
    """Each lockstep iteration calls the objective once, on the four
    candidate points of every running start, and the rows that shrink
    once more; the values of candidates scipy never visits change
    nothing and raise no warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("optimize, budget, shrink_share", [
        # rows shrink in 85 of 101 iterations
        (optimize_lemma2, OptBudget(grid_lemma2=5), 0.8),
        # starts converge after 30 to 140 iterations
        (optimize_lemma1, OptBudget(), 0.0),
        (optimize_lemma1, OptBudget(pair_filter=0.3), 0.0),
    ])
    def test_matches_oracle(self, optimize, budget, shrink_share,
                            recorded_refinements):
        optimize(budget)
        (f, x0, maxiter, xatol, fatol), = recorded_refinements
        batches = []
        _nelder_mead(lambda v: batches.append(len(v)) or f(v), x0, maxiter,
                     xatol, fatol)
        assert min(batches) > 0
        want = nelder_mead_oracle(f, x0, maxiter, xatol, fatol)
        iterations = max(res.nit for res in want) - 1
        # one initial call, one per iteration and one per shrinking one
        assert len(batches) - 1 - iterations >= shrink_share * iterations
        assert assert_matches_oracle(f, x0, maxiter, xatol, fatol) == 24

    def test_contraction_tying_the_reflection_is_kept(self):
        # integer steps of a quadratic form: from this start an outside
        # contraction ties with the reflection, which scipy keeps where a
        # strict comparison would shrink
        A = np.array([[2.0, 2.0, 1.0], [-1.0, 3.0, 0.0], [2.0, -3.0, -2.0]])

        def steps(v):
            return np.floor(3.0 * ((v @ A) ** 2).sum(axis=1)
                            + 0.5 * v.sum(axis=1))

        x0 = np.array([[-1.0, 2.0, -2.0]])
        assert assert_matches_oracle(steps, x0, 30) == 0
        assert assert_matches_oracle(steps, x0, 400) == 1


def _affinity(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)


class TestThreadedGrid:
    """On two or more CPUs the second half of the lemma-1 grid's row
    blocks runs on one short-lived worker thread; nothing else changes."""

    SMALL = OptBudget(grid_phi=60, grid_psi=60)  # 12 blocks of 5 rows

    @pytest.mark.parametrize("optimize", [optimize_lemma1, optimize_lemma2])
    def test_same_report_on_one_and_two_cpus(self, optimize, monkeypatch):
        reports = []
        for cpus in ({0}, {0, 1}):
            _affinity(monkeypatch, cpus)
            reports.append(optimize())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("cpus, threads", [({0}, 1), ({0, 1}, 2)])
    def test_kernel_threads(self, cpus, threads, monkeypatch):
        seen = set()
        real = antiprism_opt._lemma1_kernel

        def record(*args):
            seen.add(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(antiprism_opt, "_lemma1_kernel", record)
        _affinity(monkeypatch, cpus)
        optimize_lemma1(self.SMALL)
        assert len(seen) == threads
        assert threading.main_thread() in seen

    def test_no_thread_outlives_the_call(self, monkeypatch):
        _affinity(monkeypatch, {0, 1})
        before = set(threading.enumerate())
        optimize_lemma1(self.SMALL)
        assert set(threading.enumerate()) == before

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        main = threading.main_thread()
        real = antiprism_opt._lemma1_kernel

        def fail_off_main(*args):
            if threading.current_thread() is not main:
                raise RuntimeError("worker")
            return real(*args)

        monkeypatch.setattr(antiprism_opt, "_lemma1_kernel", fail_off_main)
        _affinity(monkeypatch, {0, 1})
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="worker"):
            optimize_lemma1(self.SMALL)
        assert set(threading.enumerate()) == before


class TestReports:
    def test_plain_floats(self, lemma1_report, lemma2_report):
        for rep in (lemma1_report, lemma2_report):
            assert type(rep.best_value) is float
            assert type(rep.constraint_residual) is float
        assert type(Lemma2Params(0.95, 0.35, 0.95, 0.0)
                    .feasibility_residual()) is float

    def test_pinned_lemma1(self, lemma1_report):
        assert lemma1_report == dl.OptimizationReport(
            best_value=1.0,
            argmax=Lemma1Params(0.7086317358798139, 0.7055785306427356,
                                -0.7025121705117302, 0.0, 0.7116717292986268),
            starts=24, converged_starts=24,
            constraint_residual=2.220446049250313e-16)

    def test_pinned_lemma2(self, lemma2_report):
        assert lemma2_report == dl.OptimizationReport(
            best_value=-0.3366973144916805,
            argmax=Lemma2Params(0.9373818335268139, 0.3483116997490065,
                                0.9373818335268139, 0.0),
            starts=24, converged_starts=24,
            constraint_residual=1.1102230246251565e-16)


class TestOptimizeLemma1:
    def test_deterministic(self):
        r1 = optimize_lemma1(OptBudget(grid_phi=60, grid_psi=60))
        r2 = optimize_lemma1(OptBudget(grid_phi=60, grid_psi=60))
        assert r1.best_value == r2.best_value
        assert r1.argmax == r2.argmax

    def test_observed_optimum(self):
        # the faithful problem's global max is 1.0, attained where P_y
        # shares vertices with P_x and the pair filter removes the
        # coincident pairs; see the acceptance suite for the reference
        # window this value is compared against
        rep = optimize_lemma1(OptBudget(grid_phi=120, grid_psi=120))
        assert rep.best_value == pytest.approx(1.0, abs=1e-6)
        assert rep.constraint_residual < 1e-9
        assert rep.converged_starts > 0

    def test_grid_self_consistency(self):
        coarse = optimize_lemma1(OptBudget(grid_phi=80, grid_psi=80))
        fine = optimize_lemma1(OptBudget(grid_phi=160, grid_psi=160))
        assert abs(coarse.best_value - fine.best_value) < 1e-3


class TestBudget:
    def test_refine_top_is_a_constant(self):
        # one value is in use, so it is not a budget field
        with pytest.raises(TypeError):
            OptBudget(refine_top=24)
        assert antiprism_opt.REFINE_TOP == 24

    def test_nm_maxiter_is_a_constant(self):
        with pytest.raises(TypeError):
            OptBudget(nm_maxiter=400)
        assert antiprism_opt.NM_MAXITER == 400

    def test_eps_is_a_constant(self):
        with pytest.raises(TypeError):
            OptBudget(eps=1e-6)
        assert antiprism_opt.LEMMA2_EPS == 1e-6


    @pytest.mark.parametrize("pair_filter", [np.inf, np.nan, 0.0, -1.0])
    def test_pair_filter_must_be_positive_and_finite(self, pair_filter):
        with pytest.raises(ValueError, match="pair_filter positive and finite"):
            OptBudget(pair_filter=pair_filter)


class TestBudgetExhausted:
    @pytest.mark.parametrize("optimize", [optimize_lemma1, optimize_lemma2])
    def test_one_nelder_mead_step_converges_nowhere(self, optimize,
                                                   monkeypatch):
        monkeypatch.setattr(antiprism_opt, "NM_MAXITER", 1)
        budget = OptBudget(grid_phi=20, grid_psi=20, grid_lemma2=8)
        with pytest.raises(BudgetExhausted, match="no Nelder-Mead start"):
            optimize(budget)


class TestOptimizeLemma2:
    def test_reference_window(self):
        rep = optimize_lemma2()
        assert rep.best_value == pytest.approx(-0.3367, abs=0.005)
        assert rep.best_value < 0.0
        assert rep.constraint_residual < 1e-6

    def test_argmax_at_feasibility_corner(self):
        rep = optimize_lemma2()
        p = rep.argmax
        assert p.a * p.a + p.b * p.b == pytest.approx(1.0, abs=1e-3)
        assert p.b == pytest.approx(LEMMA2_B_MIN, abs=1e-3)

    def test_eps_stability(self, monkeypatch):
        monkeypatch.setattr(antiprism_opt, "LEMMA2_EPS", 1e-6)
        r1 = optimize_lemma2()
        monkeypatch.setattr(antiprism_opt, "LEMMA2_EPS", 5e-7)
        r2 = optimize_lemma2()
        assert abs(r1.best_value - r2.best_value) < 1e-3

    @pytest.mark.parametrize("n", [5, 10, 20, 48, 50])
    def test_grid_trig_from_u_values(self, n, monkeypatch):
        # the grid takes cos and sin of the n values of u, broadcast; its
        # values equal those of the trig taken over the whole (n, n, n)
        # u grid, bit for bit
        seen = []
        refine = antiprism_opt._refine
        monkeypatch.setattr(antiprism_opt, "_refine",
                            lambda *args: seen.append(args) or refine(*args))
        optimize_lemma2(OptBudget(grid_lemma2=n))
        (_, _, vals, (Ag, Bg, Ug), _), = seen
        assert vals.shape == (n, n, n)
        want = antiprism_opt._lemma2_value(Ag, Bg, Ag * np.cos(Ug),
                                           Ag * np.sin(Ug))
        assert np.array_equal(vals, want)


class TestReferenceConfiguration:
    def test_stabilizer_of_vertex_star(self):
        # origin plus the a = b = 1/sqrt2 antiprism: 16-element axial
        # group with an 8-fold rotoreflection
        patch = dl.antiprism_patch(1 / np.sqrt(2), 1 / np.sqrt(2))
        c = dl.cluster(patch, [0, 0, 0], 1.0 + 1e-9)
        g = stabilizer(c)
        assert str(g.label) == "D4d"
        assert g.order == 16

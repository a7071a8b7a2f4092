"""Acceptance gate: nine end-to-end criteria with stated tolerances.

Each test prints one "criterion N: PASS" / "criterion N: FAIL" line
(bypassing capture, so the line appears in plain pytest output).

Criteria 1 and 7 encode external reference values that our faithful
implementation does not reproduce (the first optimization problem's
quoted optimum, and the quoted row count of the bounds table); they are
expected to fail and are documented, not weakened.  See the module tests
for the values the implementation actually produces and the invariants
they satisfy.
"""
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import delone_local as dl
from delone_local.antiprism_opt import optimize_lemma1, optimize_lemma2
from delone_local.equivalence import cluster_classes
from delone_local.point_group import (
    group_from_generators,
    stabilizer,
    tower_height,
)
from delone_local.regularity import (
    bound_lookup,
    local_criterion,
    shtogrin_step_bound,
    table_from_csv,
    table_rows,
    table_to_csv,
)

from conftest import element_key, signed_permutations

SQRT3 = np.sqrt(3.0)

S8_GEN = np.array([
    [np.cos(np.pi / 4), -np.sin(np.pi / 4), 0.0],
    [np.sin(np.pi / 4), np.cos(np.pi / 4), 0.0],
    [0.0, 0.0, -1.0],
])
D4D_GENS = [S8_GEN, np.diag([1.0, -1.0, 1.0])]


@contextmanager
def criterion(n, capsys):
    """Emit one visible "criterion N: PASS/FAIL" line per acceptance test
    (capture is suspended so the line shows up in plain pytest runs)."""
    def emit(status):
        with capsys.disabled():
            sys.stdout.write(f"criterion {n}: {status}\n")
            sys.stdout.flush()

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def test_criterion_1_first_antiprism_optimum(capsys):
    with criterion(1, capsys):
        t0 = time.monotonic()
        rep = optimize_lemma1()
        elapsed = time.monotonic() - t0
        rep2 = optimize_lemma1()
        assert rep.best_value == rep2.best_value  # deterministic
        assert elapsed < 60.0
        assert 0.588 <= rep.best_value <= 0.608


def test_criterion_2_second_antiprism_optimum(capsys):
    with criterion(2, capsys):
        t0 = time.monotonic()
        rep = optimize_lemma2()
        assert time.monotonic() - t0 < 60.0
        assert -0.3417 <= rep.best_value <= -0.3317
        assert rep.best_value < 0.0


def test_criterion_3_step_bound_constants(capsys):
    with criterion(3, capsys):
        v7 = shtogrin_step_bound(7)
        assert 0.8677 < v7 < 0.8678
        assert v7 < 0.87
        assert abs(shtogrin_step_bound(6) - 1.0) <= 1e-15


def test_criterion_4_cubic_lattice_end_to_end(capsys):
    with criterion(4, capsys):
        t0 = time.monotonic()
        patch = dl.cubic_lattice([-4, -4, -4], [4, 4, 4])  # 9^3 points
        assert abs(dl.packing_diameter(patch) - 1.0) <= 1e-12
        assert abs(dl.covering_radius(patch) - SQRT3 / 2) <= 1e-6
        g = stabilizer(dl.cluster(patch, [0, 0, 0], 1.0))
        assert g.order == 48
        assert str(g.label) == "Oh"
        oracle = {element_key(m) for m in signed_permutations()}
        assert {element_key(m) for m in g.elements} == oracle
        assert local_criterion(patch, 1.0, SQRT3 / 2).regular
        assert time.monotonic() - t0 < 5.0


def test_criterion_5_layered_tetragonal_example(capsys):
    with criterion(5, capsys):
        t0 = time.monotonic()
        patch = dl.c4v_example([-4.5, -4.5, -4.5], [4.5, 4.5, 4.5])
        R = np.sqrt(1.5)
        dec = cluster_classes(patch, 2 * R)
        assert dec.N == 1
        g = stabilizer(dec.class_representatives[0])
        assert str(g.label) == "C4v"
        assert g.order == 8
        assert bound_lookup(str(g.label)).bound == "10R"
        assert time.monotonic() - t0 < 30.0


def test_criterion_6_rotoreflection_groups_and_towers(capsys):
    with criterion(6, capsys):
        g8 = group_from_generators([S8_GEN])
        assert g8.order == 8
        assert str(g8.label) == "S8"
        assert tower_height(g8) == 4
        g16 = group_from_generators(D4D_GENS)
        assert g16.order == 16
        assert str(g16.label) == "D4d"
        assert tower_height(g16) == 5
        assert bound_lookup("S8").bound == "Impossible"
        assert bound_lookup("D4d").bound == "Impossible"


def test_criterion_7_bounds_table_fidelity(capsys):
    with criterion(7, capsys):
        rows = table_rows()
        spots = {"C1": "4R", "C6": "2R", "S8": "Impossible",
                 "D4d": "Impossible", "D3h": "10R", "I": "Impossible",
                 "Oh": "2R"}
        for label, bound in spots.items():
            assert bound_lookup(label).bound == bound
        text = table_to_csv()
        assert table_from_csv(text) == rows
        assert table_to_csv() == text  # bit-exact round-trip
        assert len(rows) == 51


def test_criterion_8_property_suites(capsys):
    with criterion(8, capsys):
        # the six 1000-case randomized suites live in test_properties.py;
        # run them here as the acceptance gate
        import pathlib
        suite = pathlib.Path(__file__).with_name("test_properties.py")
        code = pytest.main(["-q", "--no-header", "-p", "no:cacheprovider",
                            str(suite)])
        assert code == 0


def test_criterion_9_hexagonal_constructions(capsys):
    with criterion(9, capsys):
        patch = dl.hex_lattice(dl.HexLatticeSpec(1.0, 1.0),
                               [-4, -4, -4], [4, 4, 4])
        g = stabilizer(dl.cluster(patch, [0, 0, 0], 1.0))
        from delone_local.geometry import classify_element
        has_c6_z = any(
            (k := classify_element(m)).kind == "rotation" and k.order == 6
            and abs(abs(k.axis[2]) - 1.0) < 1e-9
            for m in g.elements)
        assert has_c6_z
        R = dl.covering_radius(patch)
        for rho in (1.0, 1.5, 2 * R):
            assert cluster_classes(patch, rho).N == 1
        spec = dl.BiLatticeSpec(dl.HexLatticeSpec(1.0, 9.0), (0, 0, 1.3))
        bi = dl.hex_bilattice(spec, [-5, -5, -7], [5, 5, 7])
        for rho in (1.0, 1.5):
            assert cluster_classes(bi, rho).N == 1

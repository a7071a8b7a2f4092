"""Command-line interface: subcommands, output format, and exit codes."""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from delone_local.cli import _build_parser, main
from delone_local.delone_core import save_patch

from conftest import STOCK, _box, jittered_cubic, z2_layers

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def c4v_file(tmp_path, capsys):
    path = tmp_path / "c4v.xyz"
    code, out, err = run(capsys, "generate", "--kind", "c4v",
                         "--box", "-8", "-8", "-8", "8", "8", "8",
                         "-o", str(path))
    assert code == 0 and err == ""
    return path


class TestGenerate:
    def test_cubic(self, tmp_path, capsys):
        path = tmp_path / "z3.xyz"
        code, out, err = run(capsys, "generate", "--kind", "cubic",
                             "--box", "-2", "-2", "-2", "2", "2", "2",
                             "-o", str(path))
        assert code == 0
        assert "wrote 125 points" in out
        assert path.exists()

    def test_unknown_kind(self, capsys):
        code, out, err = run(capsys, "generate", "--kind", "fcc")
        assert code == 2  # argparse usage error

    @pytest.mark.parametrize("argv", [
        [],
        ["--box", "-2", "-2", "-2", "2", "2", "2"],
        ["--config", "gen.cfg"],
        ["--kind", "cubic", "--box", "-2", "-2", "-2", "2", "2", "2",
         "--config", "gen.cfg"],
    ], ids=lambda argv: " ".join(argv) or "bare")
    def test_flags_only_and_kind_required(self, argv, capsys):
        # parameters come from flags alone, and --kind has no default
        code, out, err = run(capsys, "generate", *argv)
        assert (code, out) == (2, "")
        assert "usage:" in err

    @pytest.mark.parametrize("flags, defaults", [
        (("--kind", "hex", "--box", "-3", "-3", "-3", "3", "3", "3"),
         ("--lambda", "1", "--mu", "1")),
        (("--kind", "antiprism"), ("--a", "0.8660254037844386", "--b", "0.5")),
    ], ids=["hex", "antiprism"])
    def test_defaults(self, flags, defaults, tmp_path, capsys):
        bare, explicit = tmp_path / "bare.xyz", tmp_path / "explicit.xyz"
        assert run(capsys, "generate", *flags, "-o", str(bare))[0] == 0
        assert run(capsys, "generate", *flags, *defaults,
                   "-o", str(explicit))[0] == 0
        assert bare.read_bytes() == explicit.read_bytes()

    def test_missing_box(self, capsys):
        code, out, err = run(capsys, "generate", "--kind", "cubic")
        assert code == 1
        assert err.startswith("error:")

    def test_determinism_byte_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.xyz", tmp_path / "b.xyz"
        for p in (p1, p2):
            code, _, _ = run(capsys, "generate", "--kind", "hex",
                             "--mu", "2.0",
                             "--box", "-3", "-3", "-3", "3", "3", "3",
                             "-o", str(p))
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestAnalyze:
    def test_c4v_flow(self, c4v_file, capsys):
        code, out, err = run(capsys, "analyze", str(c4v_file))
        assert code == 0
        assert "R = 1.224744871 (declared)" in out
        assert "N(rho) = 1" in out
        assert "group = C4v" in out
        assert "order = 8" in out
        assert "table_bound = 10R" in out
        assert "local_criterion = regular" in out

    def test_shifted_cubic_prints_exact_R(self, tmp_path, capsys):
        # cubic +-4 moved by +1000: the lifted hyperplanes printed
        # R = 0.8660254043 and rho = 1.732050809
        path = tmp_path / "shifted.xyz"
        run(capsys, "generate", "--kind", "cubic", "--box", "996", "996",
            "996", "1004", "1004", "1004", "-o", str(path))
        code, out, err = run(capsys, "analyze", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("R = 0.8660254038 (computed)\n"
                              "rho = 1.732050808\n")

    def test_no_tolerance_flag(self, c4v_file, capsys):
        code, out, err = run(capsys, "--tol", "1e-6", "analyze", str(c4v_file))
        assert code == 2  # argparse usage error: tolerances are constants
        assert out == ""

    def test_symbolic_radius(self, c4v_file, capsys):
        # analyze reports at the symbolic radius 2R: its table bound is for
        # 2R-cluster groups and its criterion takes the R it prints, so no
        # radius is a flag
        code, out, err = run(capsys, "analyze", str(c4v_file))
        assert (code, err) == (0, "")
        assert "rho = 2.449489742\n" in out
        for rho in ("2R", "3R", "-2"):
            code, out, err = run(capsys, "analyze", str(c4v_file), "--rho", rho)
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --rho" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "analyze", "/nonexistent.xyz")
        assert code == 1
        assert err.startswith("error:")

    def test_packing_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.xyz"
        bad.write_text("0 0 0\n0.5 0 0\n")
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "packing violation" in err


class TestClassesAndGroup:
    def test_classes(self, c4v_file, capsys):
        code, out, err = run(capsys, "classes", str(c4v_file), "--rho", "1.0")
        assert code == 0
        assert "N = 1" in out
        assert "class 0:" in out

    def test_group(self, c4v_file, capsys):
        code, out, err = run(capsys, "group", str(c4v_file),
                             "--center", "0", "0", "1", "--rho", "1.5")
        assert code == 0
        assert "label = C4v" in out
        assert "order = 8" in out
        assert "tower_height =" in out

    def test_numeric_radius_resolves_no_R(self, tmp_path, capsys):
        # one point has no covering radius, and none is needed
        path = tmp_path / "one.xyz"
        path.write_text("# box -1 -1 -1 1 1 1\n0 0 0\n")
        code, out, err = run(capsys, "classes", str(path), "--rho", "0.5")
        assert (code, err) == (0, "")
        assert out == ("rho = 0.5\nN = 1\nclass 0: representative = "
                       "(0, 0, 0), members = 1, centers = 1\n")
        code, out, err = run(capsys, "classes", str(path), "--rho", "2R")
        assert code == 1
        assert err == "error: covering_radius needs at least two points\n"

    def test_uncomputable_R_is_an_error(self, tmp_path, capsys):
        # no Delaunay circumball fits cubic +-1, and a planar patch has
        # none; a grid scan printed R to 10 digits from the box alone
        cubic, planar = tmp_path / "c1.xyz", tmp_path / "planar.xyz"
        run(capsys, "generate", "--kind", "cubic", "--box", *_box(1),
            "-o", str(cubic))
        planar.write_text("# box -3 -3 -0.5 3 3 0.5\n" + "".join(
            f"{x} {y} 0\n" for x in range(-3, 4) for y in range(-3, 4)))
        for path, cause in ((cubic, "no Delaunay circumball fits"),
                            (planar, "cannot triangulate")):
            code, out, err = run(capsys, "classes", str(path), "--rho", "1R")
            assert (code, out) == (1, "")
            assert err.startswith("error: covering_radius: ")
            assert cause in err and err.count("\n") == 1

    def test_group_bad_center(self, c4v_file, capsys):
        code, out, err = run(capsys, "group", str(c4v_file),
                             "--center", "0.5", "0", "1", "--rho", "1.5")
        assert code == 1
        assert err.startswith("error:")


class TestCheckLocal:
    def test_regular(self, c4v_file, capsys):
        code, out, err = run(capsys, "check-local", str(c4v_file),
                             "--rho0", "2R")
        assert code == 0
        assert "regular = true" in out
        assert "groups_equal = true" in out

    def test_explicit_R(self, c4v_file, capsys):
        code, out, err = run(capsys, "check-local", str(c4v_file),
                             "--rho0", "2.449489743", "--R", "1.224744871")
        assert code == 0
        assert "(flag)" in out
        assert "regular = true" in out


    def test_kR_multiplies_flag_R(self, tmp_path, capsys):
        path = tmp_path / "cubic4.xyz"
        run(capsys, "generate", "--kind", "cubic", "--box", *_box(4),
            "-o", str(path))
        code, out, err = run(capsys, "check-local", str(path),
                             "--rho0", "2R", "--R", "1.0")
        assert (code, err) == (0, "")
        assert out.startswith("R = 1 (flag)\nrho0 = 2\n")

    def test_R_below_packing_radius(self, tmp_path, capsys):
        # no covering radius is below 1/2; R = 0 made this non-regular set
        # print "regular = true"
        path, header = tmp_path / "layers.xyz", tmp_path / "layers_R0.xyz"
        save_patch(z2_layers(), path)
        header.write_text("# R 0\n" + path.read_text())
        for target, flags in ((path, ["--R", "0"]), (path, ["--R", "1e-9"])):
            code, out, err = run(capsys, "check-local", str(target),
                                 "--rho0", "1", *flags)
            assert (code, out) == (1, "")
            assert err.startswith("error: covering radius ")
            assert err.endswith(" is below the packing radius 1/2\n")
        # a declared R of 0 is refused where it is read, with its line
        code, out, err = run(capsys, "check-local", str(header), "--rho0", "1")
        assert (code, out) == (1, "")
        assert err == "error: line 1: R header must be positive and finite\n"
        code, out, err = run(capsys, "check-local", str(path), "--rho0", "1")
        assert (code, err) == (0, "")
        assert out.startswith("R = 0.9604686356 (computed)\n")
        assert "regular = false\n" in out

    def test_negative_R(self, c4v_file, capsys):
        code, out, err = run(capsys, "check-local", str(c4v_file),
                             "--rho0", "3", "--R", "-0.5")
        assert code == 1 and out == ""
        assert err == "error: covering radius must be non-negative\n"


class TestBoundsTable:
    def test_text(self, capsys):
        code, out, err = run(capsys, "bounds-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["group", "order", "bound", "reference"]
        assert len(lines) == 53  # header + 52 rows
        assert any(line.startswith("S8") and "Impossible" in line
                   for line in lines)

    def test_csv(self, capsys):
        code, out, err = run(capsys, "bounds-table", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "group,order,bound,reference"
        assert "C4v,8,10R,Tower bound" in lines


class TestOptimize:
    def test_lemma2(self, capsys):
        code, out, err = run(capsys, "optimize", "lemma2")
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["best_value"]) == pytest.approx(-0.3367, abs=0.005)
        assert int(fields["starts"]) > 0
        assert "argmax_a" in fields and "argmax_b" in fields

    def test_lemma1_small_grid(self, capsys):
        code, out, err = run(capsys, "optimize", "lemma1", "--grid", "40")
        assert code == 0
        fields = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(fields["constraint_residual"]) < 1e-6
        assert "argmax_z" in fields


class TestShtogrinBound:
    def test_n7(self, capsys):
        code, out, err = run(capsys, "shtogrin-bound", "--n", "7")
        assert code == 0
        assert out.strip() == "0.8677674782"

    def test_n6(self, capsys):
        code, out, err = run(capsys, "shtogrin-bound", "--n", "6")
        assert code == 0
        assert out.strip() == "1"

    def test_bad_n(self, capsys):
        code, out, err = run(capsys, "shtogrin-bound", "--n", "x")
        assert code == 2


#: Inputs out of the model's bounds, each with the flag its error names:
#: a pair filter past the unit distance from the shared vertex (a
#: RuntimeWarning, then "no Nelder-Mead start converged"), an antiprism
#: with an infinite squared circumradius (scipy's KD-tree overflow text),
#: and a lattice patch of ~1e17 points (a 14.2 PiB _ArrayMemoryError).
OUT_OF_BOUNDS = (
    (["optimize", "lemma1", "--pair-filter", "5"], "--pair-filter"),
    (["generate", "--kind", "antiprism", "--a", "1e200"], "--a, --b"),
    (["generate", "--kind", "hex", "--mu", "1e-30",
      "--box", "-1", "-1", "-1", "1", "1", "1"], "--box"),
)


class TestBadArguments:
    # each of these raised a ValueError out of main with a traceback, and
    # those of OUT_OF_BOUNDS a warning or an error from numpy or scipy
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["group", "{c4v}", "--center", "0", "0", "1", "--rho", "-1"],
        ["check-local", "{c4v}", "--rho0", "-1"],
        ["shtogrin-bound", "--n", "1"],
        ["optimize", "lemma1", "--grid", "0"],
        ["optimize", "lemma1", "--pair-filter", "-1"],
        ["generate", "--kind", "hex", "--lambda", "-1",
         "--box", "-2", "-2", "-2", "2", "2", "2"],
        ["generate", "--kind", "antiprism", "--a", "-1"],
        ["analyze", "{nan}"],
        ["analyze", "{outside}"],
        *(argv for argv, _ in OUT_OF_BOUNDS),
    ], ids=lambda argv: " ".join(argv))
    def test_one_error_line(self, argv, c4v_file, tmp_path, capsys):
        nan_file = tmp_path / "nan.xyz"
        nan_file.write_text("# box -1 -1 -1 1 1 1\n0 0 0\nnan 0 0\n")
        outside_file = tmp_path / "outside.xyz"
        outside_file.write_text("# box 0 0 0 1 1 1\n0 0 0\n5 5 5\n")
        argv = [a.format(c4v=c4v_file, nan=nan_file, outside=outside_file)
                for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", OUT_OF_BOUNDS,
                         ids=[flag for _, flag in OUT_OF_BOUNDS])
def test_out_of_bounds_errors_name_the_flag(argv, flag, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {flag}: ")


@pytest.mark.parametrize("argv", [["optimize", "lemma1", "--grid", "0"],
                                  ["optimize", "lemma2", "--grid", "-3"]])
def test_bad_grid_names_the_flag(argv, capsys):
    # read "budget counts must be positive and pair_filter positive and
    # finite", which named no flag and blamed a filter not given
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: --grid: budget needs grid_phi positive, got {argv[-1]}\n"
    assert "pair_filter" not in err


def test_negative_numbers_with_an_exponent(tmp_path, capsys):
    # argparse took -1e1 for an option: "argument --box: expected 6
    # arguments"; both commands now reach the program's own checks
    path = tmp_path / "a.xyz"
    code, out, err = run(capsys, "generate", "--kind", "cubic",
                         "--box", "-1e1", "-1", "-1", "1", "1", "1",
                         "-o", str(path))
    assert (code, err) == (0, "")
    assert path.read_text().startswith("# box -10 -1 -1 1 1 1\n")
    code, out, err = run(capsys, "check-local", str(path),
                         "--rho0", "2R", "--R", "-1e0")
    assert code == 1 and out == ""
    assert err == "error: covering radius must be non-negative\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["classes", "{c4v}", "--rho", "-2R"], "--rho must be non-negative, got -2.0"),
    (["check-local", "{c4v}", "--rho0", "-.5R"],
     "--rho0 must be non-negative, got -0.5"),
    (["group", "{c4v}", "--center", "0", "0", "1", "--rho", "-1e0R"],
     "--rho must be non-negative, got -1.0"),
], ids=["classes", "check-local", "group"])
def test_negative_multiple_of_R_as_its_own_argument(argv, message, c4v_file,
                                                   capsys):
    # argparse took "-2R" for an option: "argument --rho: expected one
    # argument", exit 2; as "--rho=-2R" it already read as a radius
    code, out, err = run(capsys, *[a.format(c4v=c4v_file) for a in argv])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("problem", ["lemma1", "lemma2"])
def test_grid_past_the_point_cap_names_the_flag(problem, capsys):
    # lemma1 --grid 100000 died in a numpy MemoryError traceback
    # ("Unable to allocate 74.5 GiB"); the budget now refuses it before
    # any array is built
    code, out, err = run(capsys, "optimize", problem, "--grid", "100000")
    assert (code, out) == (1, "")
    assert err == ("error: --grid: budget needs grid_phi * grid_psi at most "
                   "10000000 grid points, got 10000000000\n")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_check_local_rejects_non_finite_R(value, c4v_file, capsys):
    # --R nan read as "no center supports radius nan inside the trusted box"
    code, out, err = run(capsys, "check-local", str(c4v_file),
                         "--rho0", "8R", "--R", value)
    assert code == 1 and out == ""
    assert err == f"error: --R must be finite, got {float(value)}\n"


@pytest.mark.parametrize("argv, flag", [
    (["classes", "{c4v}", "--rho", "nan"], "--rho"),
    (["check-local", "{c4v}", "--rho0", "nan"], "--rho0"),
    (["group", "{c4v}", "--center", "0", "0", "1", "--rho", "inf"], "--rho"),
    (["optimize", "lemma1", "--pair-filter", "inf"], "--pair-filter"),
], ids=["classes", "check-local", "group", "pair-filter"])
def test_radius_flags_reject_non_finite(argv, flag, c4v_file, capsys):
    # nan read as "no center supports radius nan inside the trusted box",
    # and inf as "ball of radius inf ... exits the trusted box"; a pair
    # filter of inf as "no Nelder-Mead start converged", after the search
    code, out, err = run(capsys, *[a.format(c4v=c4v_file) for a in argv])
    assert code == 1 and out == ""
    assert err == f"error: {flag} must be finite, got {float(argv[-1])}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (["classes", "{c4v}", "--rho", "-1"], "--rho must be non-negative, got -1.0"),
    (["classes", "{c4v}", "--rho=-2R"], "--rho must be non-negative, got -2.0"),
    (["check-local", "{c4v}", "--rho0", "-1"],
     "--rho0 must be non-negative, got -1.0"),
    (["check-local", "{c4v}", "--rho0=-.5R"],
     "--rho0 must be non-negative, got -0.5"),
    (["group", "{c4v}", "--center", "0", "0", "1", "--rho", "-1e-3"],
     "--rho must be non-negative, got -0.001"),
    (["group", "{c4v}", "--center", "nan", "0", "0", "--rho", "1"],
     "--center must be finite, got [nan, 0.0, 0.0]"),
    (["group", "{c4v}", "--center", "0", "0", "inf", "--rho", "1R"],
     "--center must be finite, got [0.0, 0.0, inf]"),
    (["classes", "{c4v}", "--rho", "1.7e308R"], "--rho must be finite, got inf"),
], ids=["classes", "classes-kR", "check-local", "check-local-kR", "group",
        "center-nan", "center-inf", "kR-overflow"])
def test_radius_and_center_errors_name_the_flag(argv, message, c4v_file,
                                                capsys):
    # a negative --rho or --rho0 read as "cluster radius must be
    # non-negative" (check-local's after counting classes at rho0 + 2R),
    # a non-finite --center as "point has non-finite components", and
    # k R past the largest float as "bad radius"
    code, out, err = run(capsys, *[a.format(c4v=c4v_file) for a in argv])
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("text, same", [(".5R", "0.5R"), ("2.R", "2R"),
                                        ("1e0R", "1R"), ("+2R", "2R"),
                                        ("-0.0", "0"), ("-0R", "0R")])
def test_multiples_of_R_parse_as_numbers(text, same, c4v_file, capsys):
    # each kR form here printed "error: bad radius", and -0.0 printed
    # "rho = -0"
    got = run(capsys, "classes", str(c4v_file), f"--rho={text}")
    assert got == run(capsys, "classes", str(c4v_file), "--rho", same)
    assert got[0] == 0 and got[1].startswith("rho = ")
    assert not got[1].startswith("rho = -")


@pytest.mark.parametrize("flags, message", [
    (["--kind", "cubic", "--box", "-2", "-2", "-2", "inf", "2", "2"],
     "--box must be finite, got [-2.0, -2.0, -2.0, inf, 2.0, 2.0]"),
    (["--kind", "hex_bilattice", "--t-z", "nan", "--box", *["-2"] * 3, *["2"] * 3],
     "--t-z must be finite, got nan"),
    (["--kind", "hex", "--mu", "inf", "--box", *["-2"] * 3, *["2"] * 3],
     "--mu must be finite, got inf"),
    (["--kind", "hex", "--lambda", "nan", "--box", *["-2"] * 3, *["2"] * 3],
     "--lambda must be finite, got nan"),
    (["--kind", "antiprism", "--a", "nan"], "--a must be finite, got nan"),
    (["--kind", "antiprism", "--b", "inf"], "--b must be finite, got inf"),
], ids=["box", "t-z", "mu", "lambda", "a", "b"])
def test_generate_rejects_non_finite_flags(flags, message, tmp_path, capsys):
    # each read as "point has non-finite components", naming no flag,
    # except --mu inf, which wrote an empty patch, and --lambda nan, read
    # as "lam and mu must be positive"
    path = tmp_path / "never.xyz"
    code, out, err = run(capsys, "generate", *flags, "-o", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("mu, t_z, message", [
    ("1", "1e-300", "|t_z| = 1e-300 must lie strictly between 1e-09 and "
                    "sqrt(mu) - 1e-09 = 0.999999999"),
    ("1", "0.9999999995", "|t_z| = 0.9999999995 must lie strictly between "
                          "1e-09 and sqrt(mu) - 1e-09 = 0.999999999"),
    ("1e-300", "1e-301", "no t_z fits mu = 1e-300: |t_z| must lie strictly "
                         "between 1e-09 and sqrt(mu) - 1e-09 = -1e-09"),
], ids=["tiny", "below-sqrt-mu", "no-fit"])
def test_bad_t_z_states_the_rule_it_applies(mu, t_z, message, tmp_path, capsys):
    # read as "|t_z| must lie strictly between 0 and sqrt(mu) = 1" of a
    # t_z inside that range, and "... = 1e-150" of one below it
    path = tmp_path / "never.xyz"
    code, out, err = run(capsys, "generate", "--kind", "hex_bilattice",
                         "--mu", mu, "--t-z", t_z, "--box", *_box(1),
                         "-o", str(path))
    assert (code, out, err) == (1, "", f"error: --t-z: {message}\n")
    assert not path.exists()


#: A run of each report subcommand, "{c4v}" standing for the input file.
REPORTS = (
    ["analyze", "{c4v}"],
    ["classes", "{c4v}", "--rho", "2R"],
    ["group", "{c4v}", "--center", "0", "0", "1", "--rho", "2R"],
    ["check-local", "{c4v}", "--rho0", "2R"],
    ["bounds-table"],
    ["bounds-table", "--format", "csv"],
    ["optimize", "lemma2", "--grid", "5"],
)


@pytest.mark.parametrize("argv", REPORTS, ids=" ".join)
def test_report_output_file_gets_the_stdout_bytes(argv, c4v_file, tmp_path,
                                                  capsys):
    # main writes a report once: to stdout, or, with -o, the same bytes to
    # the file and nothing to stdout
    argv = [a.format(c4v=c4v_file) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.endswith("\n")
    path = tmp_path / "report.txt"
    assert run(capsys, *argv, "-o", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")


#: Each subcommand's flags.  A removed setting (``--tol``, ``--config``,
#: ``analyze --rho``) must not come back unseen.
FLAGS = {
    "generate": {"--kind", "--box", "--lambda", "--mu", "--t-z", "--a",
                 "--b", "-o", "--output"},
    "analyze": {"-o", "--output"},
    "classes": {"--rho", "-o", "--output"},
    "group": {"--center", "--rho", "-o", "--output"},
    "check-local": {"--rho0", "--R", "-o", "--output"},
    "bounds-table": {"--format", "-o", "--output"},
    "optimize": {"--grid", "--pair-filter", "-o", "--output"},
    "shtogrin-bound": {"--n"},
}


def test_flag_sets_pinned():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert {s for a in parser._actions for s in a.option_strings} == {
        "-h", "--help"}
    got = {name: {s for a in p._actions for s in a.option_strings} - {
        "-h", "--help"} for name, p in sub.choices.items()}
    assert got == FLAGS


class TestParserReuse:
    def test_back_to_back_equals_separate(self, c4v_file, capsys):
        # main builds its parser once per process; reusing it across
        # subcommands, a usage error among them, changes no output
        argvs = (["classes", str(c4v_file), "--rho", "2R"],
                 ["optimize", "lemma2", "--bogus"],
                 ["shtogrin-bound", "--n", "7"],
                 ["bounds-table", "--format", "csv"])
        back_to_back = [run(capsys, *argv) for argv in argvs]
        assert _build_parser() is _build_parser()
        separate = []
        for argv in argvs:
            _build_parser.cache_clear()
            separate.append(run(capsys, *argv))
        assert back_to_back == separate
        assert [code for code, _, _ in separate] == [0, 2, 0, 0]
        assert "unrecognized arguments: --bogus" in separate[1][2]


#: The commands whose output is pinned, as argv after the file path.
GOLDEN_COMMANDS = (("analyze",), ("classes", "--rho", "2R"),
                   ("classes", "--rho", "4R"), ("check-local", "--rho0", "2R"))


def golden_report(capsys, path):
    """stdout of each of GOLDEN_COMMANDS on ``path``, each under a header
    line that holds the command, its exit code and its stderr."""
    parts = []
    for cmd, *flags in GOLDEN_COMMANDS:
        code, out, err = run(capsys, cmd, str(path), *flags)
        head = f"== {' '.join([cmd, *flags])} -> {code} {err.strip()}".rstrip()
        parts.append(f"{head}\n{out}")
    return "".join(parts)


def golden_patch(name, tmp_path, capsys):
    """Write the named golden patch: a stock file, or the jittered cubic
    patch on sites |k| <= 4 at seed 7 (N(2R) = 125 and N(4R) = 1)."""
    path = tmp_path / f"{name}.xyz"
    if name in STOCK:
        code, _, err = run(capsys, "generate", *STOCK[name], "-o", str(path))
        assert code == 0, err
    else:
        save_patch(jittered_cubic(4, 7), path)
    return path


#: Commands that need no KD tree and no triangulation, with their exit
#: codes ("optimize lemma3" is a usage error).
NO_SPATIAL = ((["optimize", "lemma2"], 0), (["bounds-table"], 0),
              (["shtogrin-bound", "--n", "3"], 0), (["--help"], 0),
              (["optimize", "lemma3"], 2))

#: Run in a fresh interpreter: each of the argv lists in argv[2] through
#: main with its output dropped, then ``analyze`` of the file argv[3].
#: Prints whether scipy.spatial was loaded after the import and after
#: each list (with its exit code) as one JSON line, then analyze's output.
IMPORT_GRAPH_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import delone_local
from delone_local.cli import main
seen = [["import", "scipy.spatial" in sys.modules, 0]]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    seen.append([" ".join(argv), "scipy.spatial" in sys.modules, code])
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["analyze", sys.argv[3]])
seen.append(["analyze", "scipy.spatial" in sys.modules, code])
print(json.dumps(seen))
sys.stdout.write(out.getvalue())
"""


def test_scipy_spatial_is_imported_on_first_use(tmp_path, capsys):
    # importing scipy.spatial took ~0.24 s of every process, though only
    # patches and covering_radius use it
    path = golden_patch("cubic4", tmp_path, capsys)
    argvs = [argv for argv, _ in NO_SPATIAL]
    src = str(Path(__file__).parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", IMPORT_GRAPH_SCRIPT, src,
                           json.dumps(argvs), str(path)],
                          capture_output=True, text=True, check=True)
    first, analyzed = proc.stdout.split("\n", 1)
    assert json.loads(first) == (
        [["import", False, 0]]
        + [[" ".join(argv), False, code] for argv, code in NO_SPATIAL]
        + [["analyze", True, 0]])
    golden = (GOLDEN / "cubic4.txt").read_text(encoding="utf-8")
    head, want = golden.split("== ")[1].split("\n", 1)
    assert head == "analyze -> 0"
    assert analyzed == want


class TestGoldenOutputs:
    # pinned from the class loop that called cluster() and
    # cluster_isometry once per center and ran three stabilizers per
    # analyze; any change to the loop must keep these bytes
    @pytest.mark.parametrize("name", [*STOCK, "jitter4"])
    def test_byte_identical(self, name, tmp_path, capsys):
        path = golden_patch(name, tmp_path, capsys)
        want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert golden_report(capsys, path) == want

    @pytest.mark.parametrize("name", [*STOCK, "jitter4"])
    def test_analyze_does_not_depend_on_the_cpu_count(self, name, tmp_path,
                                                      capsys, monkeypatch):
        # covering_radius splits its triangulation only on two or more
        # CPUs; the printed report is the same either way
        path = golden_patch(name, tmp_path, capsys)
        outs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: cpus)
            outs.append(run(capsys, "analyze", str(path)))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0

    def test_optimize_byte_identical(self, capsys):
        # both antiprism optimizers at the default budget; any change to
        # their kernels or to the lockstep Nelder-Mead must keep these bytes
        parts = []
        for which in ("lemma1", "lemma2"):
            code, out, err = run(capsys, "optimize", which)
            head = f"== optimize {which} -> {code} {err.strip()}".rstrip()
            parts.append(f"{head}\n{out}")
        want = (GOLDEN / "optimize.txt").read_text(encoding="utf-8")
        assert "".join(parts) == want

    @pytest.mark.parametrize("which", ["lemma1", "lemma2"])
    def test_optimize_does_not_depend_on_the_cpu_count(self, which, capsys,
                                                       monkeypatch):
        # the lemma-1 grid runs half its rows on a worker thread only on
        # two or more CPUs; the printed report is the same either way
        outs = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: cpus)
            outs.append(run(capsys, "optimize", which))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0

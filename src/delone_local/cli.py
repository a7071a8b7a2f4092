"""Command-line front end.

Subcommands:
    generate       build one of the stock point sets and write it to a file
    analyze        R, N(2R), 2R-cluster label, table bound, criterion at 2R
    classes        cluster-class decomposition at a radius
    group          stabilizer of the cluster at a given center
    check-local    evaluate the local criterion at rho0
    bounds-table   print the per-group bounds table (text or CSV)
    optimize       run the antiprism optimizations (lemma1 | lemma2)
    shtogrin-bound print the step bound 2 sin(pi/n)

``generate`` takes flags only: --kind (required), --box (every kind but
antiprism), --lambda and --mu (default 1), --t-z (hex_bilattice), and
--a and --b (antiprism; default sqrt(3)/2 and 1/2).

Radii (--rho, --rho0; analyze takes none) may be given numerically or
as a multiple of R ("2R", "10R", ...), resolved against check-local's
--R flag, else the declared R of the input file, else the computed patch
covering radius.  R is computed only where a "kR" radius or a printed
"R =" line needs it; a patch with no Delaunay circumball inside its box
(a planar one, say) has no computed R, and that is an error.
All numeric output uses 10 significant digits; every error path prints
one line "error: ..." to stderr and exits 1 (usage errors exit 2).  ``main``
writes a subcommand's lines to stdout, or the same bytes to a report's -o.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import re
import sys
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import antiprism_opt, generators, point_group, regularity
from .delone_core import PointPatch, cluster, covering_radius, load_patch, save_patch
from .equivalence import cluster_classes
from .errors import DeloneError, InvalidShift

FMT = "%.10g"


def _fmt(x: float) -> str:
    return FMT % float(x)


class CliError(DeloneError):
    """Domain error raised directly by CLI validation."""


def _finite(flag: str, value):
    """``value`` of ``flag``, once each of its numbers is checked finite."""
    if not np.all(np.isfinite(value)):
        raise CliError(f"{flag} must be finite, got {value}")
    return value


@contextlib.contextmanager
def _flags(names: str):
    """Reports a ValueError raised within as an error of the flags ``names``."""
    try:
        yield
    except ValueError as e:
        raise CliError(f"{names}: {e}") from None


def _resolve_R(patch: PointPatch, flag: Optional[float] = None) -> Tuple[float, str]:
    """R and its provenance: the --R flag, else the file's declared R,
    else the computed covering radius."""
    if flag is not None:
        return _finite("--R", flag), "flag"
    if patch.declared_R is not None:
        return patch.declared_R, "declared"
    return covering_radius(patch), "computed"


def _radius(flag: str, text: str, get_R: Callable[[], float]) -> float:
    """rho from the radius flag ``flag``: a finite number, or a multiple
    "kR" of R, which ``get_R`` gives and is called for only then."""
    m = re.fullmatch(r"([0-9]+(?:\.[0-9]+)?)R", text.strip())
    if m:
        return float(m.group(1)) * get_R()
    try:
        rho = float(text)
    except ValueError:
        raise CliError(f"bad radius {text!r}") from None
    return _finite(flag, rho)


def _load_checked(path: str) -> PointPatch:
    patch = load_patch(path)
    if not patch.packing_ok:
        i, j = patch.packing_violations[0]
        d = float(np.linalg.norm(patch.points[i] - patch.points[j]))
        raise CliError(
            f"packing violation: points {i} and {j} at distance {_fmt(d)} < 1")
    return patch


# --- subcommand implementations --------------------------------------------

def _cmd_generate(args) -> List[str]:
    if args.kind == "antiprism":
        a, b = _finite("--a", args.a), _finite("--b", args.b)
        with _flags("--a, --b"):
            patch = generators.antiprism_patch(a, b)
    else:
        if args.box is None:
            raise CliError("generator needs --box")
        lo, hi = _finite("--box", args.box)[:3], args.box[3:]
        if args.kind == "cubic":
            build = generators.cubic_lattice
        elif args.kind == "c4v":
            build = generators.c4v_example
        elif args.kind == "hex_bilattice" and args.t_z is None:
            raise CliError("hex_bilattice needs --t-z")
        else:
            spec = generators.HexLatticeSpec(lam=_finite("--lambda", args.lam),
                                             mu=_finite("--mu", args.mu))
            if args.kind == "hex_bilattice":
                t = (0.0, 0.0, _finite("--t-z", args.t_z))
                try:
                    spec = generators.BiLatticeSpec(hex=spec, t=t)
                except InvalidShift as e:
                    raise CliError(f"--t-z: {e}") from None
            build = functools.partial(
                generators.hex_lattice if args.kind == "hex"
                else generators.hex_bilattice, spec)
        with _flags("--box"):
            patch = build(lo, hi)
    if args.patch:
        save_patch(patch, args.patch)
    return [f"wrote {len(patch)} points" + (f" to {args.patch}" if args.patch else "")]


def _cmd_analyze(args) -> List[str]:
    patch = _load_checked(args.path)
    R, prov = _resolve_R(patch)
    lines = [f"R = {_fmt(R)} ({prov})", f"rho = {_fmt(2.0 * R)}"]
    report = regularity.classify_scenario(patch, R)
    lines.append(f"N(rho) = {report.n_classes}")
    if report.label is not None:
        lines.append(f"group = {report.label}")
        lines.append(f"order = {report.order}")
        if report.bound_row is not None:
            lines.append(f"table_bound = {report.bound_row.bound}")
    if report.verdict is not None:
        verdict = "regular" if report.verdict.regular else "not_regular"
        lines.append(f"local_criterion = {verdict}")
        if report.verdict.witness:
            lines.append(f"witness = {report.verdict.witness}")
    else:
        lines.append("local_criterion = unavailable")
    if report.note:
        lines.append(f"note = {report.note}")
    return lines


def _cmd_classes(args) -> List[str]:
    patch = _load_checked(args.path)
    rho = _radius("--rho", args.rho, lambda: _resolve_R(patch)[0])
    dec = cluster_classes(patch, rho)
    lines = [f"rho = {_fmt(rho)}", f"N = {dec.N}"]
    counts = [0] * dec.N
    for ci in dec.assignment.values():
        counts[ci] += 1
    for i, rep in enumerate(dec.class_representatives):
        c = rep.center
        lines.append(
            f"class {i}: representative = ({_fmt(c[0])}, {_fmt(c[1])}, "
            f"{_fmt(c[2])}), members = {len(rep)}, centers = {counts[i]}")
    return lines


def _cmd_group(args) -> List[str]:
    patch = _load_checked(args.path)
    rho = _radius("--rho", args.rho, lambda: _resolve_R(patch)[0])
    c = cluster(patch, args.center, rho)
    g = point_group.stabilizer(c)
    return [
        f"center = ({_fmt(args.center[0])}, {_fmt(args.center[1])}, "
        f"{_fmt(args.center[2])})",
        f"rho = {_fmt(rho)}",
        f"label = {g.label}",
        f"order = {g.order}",
        f"tower_height = {point_group.tower_height(g)}",
    ]


def _cmd_check_local(args) -> List[str]:
    patch = _load_checked(args.path)
    R, prov = _resolve_R(patch, args.R)
    rho0 = _radius("--rho0", args.rho0, lambda: R)
    verdict = regularity.local_criterion(patch, rho0, R)
    lines = [
        f"R = {_fmt(R)} ({prov})",
        f"rho0 = {_fmt(rho0)}",
        f"N(rho0 + 2R) = {verdict.n_classes}",
        f"groups_equal = {str(verdict.groups_equal).lower()}",
        f"regular = {str(verdict.regular).lower()}",
    ]
    if verdict.witness:
        lines.append(f"witness = {verdict.witness}")
    return lines


def _cmd_bounds_table(args) -> List[str]:
    if args.format == "csv":
        return regularity.table_to_csv().splitlines()
    return ["group  order  bound  reference"] + [
        f"{r.label:<6} {r.order:<6} {r.bound:<10} {r.reference}"
        for r in regularity.table_rows()]


def _cmd_optimize(args) -> List[str]:
    budget = antiprism_opt.OptBudget()
    if args.grid is not None:
        with _flags("--grid"):
            budget = dataclasses.replace(budget, grid_phi=args.grid,
                                         grid_psi=args.grid)
    if args.pair_filter is not None:
        pair_filter = _finite("--pair-filter", args.pair_filter)
        with _flags("--pair-filter"):
            budget = dataclasses.replace(budget, pair_filter=pair_filter)
    if args.problem == "lemma1":
        report = antiprism_opt.optimize_lemma1(budget)
    else:
        report = antiprism_opt.optimize_lemma2(budget)
    lines = [
        f"best_value = {_fmt(report.best_value)}",
        f"starts = {report.starts}",
        f"converged_starts = {report.converged_starts}",
        f"constraint_residual = {_fmt(report.constraint_residual)}",
    ]
    p = report.argmax
    for name in ("a", "b", "x", "y", "z"):
        if hasattr(p, name):
            lines.append(f"argmax_{name} = {_fmt(getattr(p, name))}")
    return lines


def _cmd_shtogrin(args) -> List[str]:
    return [_fmt(regularity.shtogrin_step_bound(args.n))]


# --- parser -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number with an exponent
    ("-1e1") as a value; argparse's own pattern takes it for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="delone",
        description="Local theory of regular systems for 3D Delone sets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a stock point set")
    p.add_argument("--kind", required=True, choices=[
        "cubic", "hex", "hex_bilattice", "c4v", "antiprism"])
    p.add_argument("--box", type=float, nargs=6,
                   metavar=("LOX", "LOY", "LOZ", "HIX", "HIY", "HIZ"))
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--t-z", dest="t_z", type=float)
    p.add_argument("--a", type=float, default=float(np.sqrt(0.75)))
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("-o", "--output", dest="patch", metavar="OUTPUT")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="full scenario report for a point set")
    p.add_argument("path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classes", help="cluster classes at a radius")
    p.add_argument("path")
    p.add_argument("--rho", required=True)
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("group", help="stabilizer of a cluster")
    p.add_argument("path")
    p.add_argument("--center", type=float, nargs=3, required=True,
                   metavar=("X", "Y", "Z"))
    p.add_argument("--rho", required=True)
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("check-local", help="evaluate the local criterion")
    p.add_argument("path")
    p.add_argument("--rho0", required=True)
    p.add_argument("--R", type=float)
    p.set_defaults(func=_cmd_check_local)

    p = sub.add_parser("bounds-table", help="per-group bounds table")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_bounds_table)

    p = sub.add_parser("optimize", help="antiprism optimizations")
    p.add_argument("problem", choices=["lemma1", "lemma2"])
    p.add_argument("--grid", type=int,
                   help="points per axis of lemma1's (phi, psi) seeding grid; "
                        "lemma2 does not use it")
    p.add_argument("--pair-filter", dest="pair_filter", type=float,
                   help="lemma1's distance below which a vertex pair is "
                        "dropped as coincident; lemma2 does not use it")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("shtogrin-bound", help="step bound 2 sin(pi/n)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_shtogrin)

    # the reports, whose lines main writes to -o in place of stdout
    for name in ("analyze", "classes", "group", "check-local", "bounds-table",
                 "optimize"):
        sub.choices[name].add_argument("-o", "--output")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        text = "".join(line + "\n" for line in args.func(args))
        if getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return 0
    # every ValueError raised in the package rejects an argument or input
    except (DeloneError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

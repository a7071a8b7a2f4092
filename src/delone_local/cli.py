"""Command-line front end.

Subcommands:
    generate       build one of the stock point sets and write it to a file
    analyze        N(rho), cluster-group label, table bound, criterion verdict
    classes        cluster-class decomposition at a radius
    group          stabilizer of the cluster at a given center
    check-local    evaluate the local criterion at rho0
    bounds-table   print the per-group bounds table (text or CSV)
    optimize       run the antiprism optimizations (lemma1 | lemma2)
    shtogrin-bound print the step bound 2 sin(pi/n)

Radii may be given numerically or symbolically as a multiple of R
("2R", "10R", ...), resolved against the declared R of the input file or,
failing that, the computed patch covering radius.  All numeric output uses
10 significant digits; every error path prints one line
"error: ..." to stderr and exits 1 (usage errors exit 2).
"""
from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional, Tuple

import numpy as np

from . import antiprism_opt, delone_core, generators, point_group, regularity
from .delone_core import PointPatch, cluster, covering_radius, load_patch, save_patch
from .equivalence import cluster_classes
from .errors import DeloneError
from .geometry import ToleranceContext

FMT = "%.10g"


def _fmt(x: float) -> str:
    return FMT % float(x)


class CliError(DeloneError):
    """Domain error raised directly by CLI validation."""


def _parse_radius(text: str) -> Tuple[Optional[float], Optional[float]]:
    """Parse a radius flag; returns (numeric, multiple_of_R) — one is None."""
    m = re.fullmatch(r"([0-9]+(?:\.[0-9]+)?)R", text.strip())
    if m:
        return None, float(m.group(1))
    try:
        return float(text), None
    except ValueError:
        raise CliError(f"bad radius {text!r}") from None


def _resolve_R(patch: PointPatch) -> Tuple[float, str]:
    if patch.declared_R is not None:
        return patch.declared_R, "declared"
    return covering_radius(patch), "computed"


def _resolve_radius(text: str, patch: PointPatch) -> Tuple[float, float, str]:
    """Returns (rho, R, R_provenance)."""
    numeric, mult = _parse_radius(text)
    R, prov = _resolve_R(patch)
    if numeric is not None:
        return numeric, R, prov
    return mult * R, R, prov


def _load_checked(path: str) -> PointPatch:
    patch = load_patch(path)
    if not patch.packing_ok:
        i, j = patch.packing_violations[0]
        d = float(np.linalg.norm(patch.points[i] - patch.points[j]))
        raise CliError(
            f"packing violation: points {i} and {j} at distance {_fmt(d)} < 1")
    return patch


def _ctx(args) -> ToleranceContext:
    return ToleranceContext(geom_tol=args.tol)


def _out(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand implementations --------------------------------------------

def _read_config(path: str) -> dict:
    cfg = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"config line {lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            cfg[key] = val
    return cfg


def _cmd_generate(args) -> int:
    cfg = _read_config(args.config) if args.config else {}

    def pick(flag_value, key, cast, default=None):
        if flag_value is not None:
            return flag_value
        if key in cfg:
            return cast(cfg[key])
        return default

    kind = pick(args.kind, "kind", str)
    if kind not in ("cubic", "hex", "hex_bilattice", "c4v", "antiprism"):
        raise CliError(f"unknown generator kind {kind!r}")
    box = args.box
    if box is None:
        if "box_lo" in cfg and "box_hi" in cfg:
            los = [float(v) for v in cfg["box_lo"].split()]
            his = [float(v) for v in cfg["box_hi"].split()]
            if len(los) == 1:
                los = los * 3
            if len(his) == 1:
                his = his * 3
            box = los + his
    lam = pick(args.lam, "lambda", float, 1.0)
    mu = pick(args.mu, "mu", float, 1.0)
    t_z = pick(args.t_z, "t_z", float, None)
    a = pick(args.a, "a", float, float(np.sqrt(0.75)))
    b = pick(args.b, "b", float, 0.5)

    if kind == "antiprism":
        patch = generators.antiprism_patch(a, b)
    else:
        if box is None:
            raise CliError("generator needs --box (or box_lo/box_hi in config)")
        lo, hi = box[:3], box[3:]
        if kind == "cubic":
            patch = generators.cubic_lattice(lo, hi)
        elif kind == "hex":
            patch = generators.hex_lattice(
                generators.HexLatticeSpec(lam=lam, mu=mu), lo, hi)
        elif kind == "hex_bilattice":
            if t_z is None:
                raise CliError("hex_bilattice needs --t-z (or t_z in config)")
            spec = generators.BiLatticeSpec(
                hex=generators.HexLatticeSpec(lam=lam, mu=mu),
                t=(0.0, 0.0, t_z))
            patch = generators.hex_bilattice(spec, lo, hi)
        else:  # c4v
            patch = generators.c4v_example(lo, hi)
    if args.output:
        save_patch(patch, args.output)
    print(f"wrote {len(patch)} points" + (f" to {args.output}" if args.output else ""))
    return 0


def _cmd_analyze(args) -> int:
    patch = _load_checked(args.path)
    rho, R, prov = _resolve_radius(args.rho, patch)
    ctx = _ctx(args)
    lines = [f"R = {_fmt(R)} ({prov})", f"rho = {_fmt(rho)}"]
    report = regularity.classify_scenario(patch, rho / 2.0, ctx)
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
    _out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_classes(args) -> int:
    patch = _load_checked(args.path)
    rho, _, _ = _resolve_radius(args.rho, patch)
    dec = cluster_classes(patch, rho, _ctx(args))
    lines = [f"rho = {_fmt(rho)}", f"N = {dec.N}"]
    counts = [0] * dec.N
    for ci in dec.assignment.values():
        counts[ci] += 1
    for i, rep in enumerate(dec.class_representatives):
        c = rep.center
        lines.append(
            f"class {i}: representative = ({_fmt(c[0])}, {_fmt(c[1])}, "
            f"{_fmt(c[2])}), members = {len(rep)}, centers = {counts[i]}")
    _out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_group(args) -> int:
    patch = _load_checked(args.path)
    rho, _, _ = _resolve_radius(args.rho, patch)
    c = cluster(patch, args.center, rho)
    g = point_group.stabilizer(c)
    lines = [
        f"center = ({_fmt(args.center[0])}, {_fmt(args.center[1])}, "
        f"{_fmt(args.center[2])})",
        f"rho = {_fmt(rho)}",
        f"label = {g.label}",
        f"order = {g.order}",
        f"tower_height = {point_group.tower_height(g)}",
    ]
    _out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_check_local(args) -> int:
    patch = _load_checked(args.path)
    rho0, R, prov = _resolve_radius(args.rho0, patch)
    if args.R is not None:
        R = args.R
        prov = "flag"
    verdict = regularity.local_criterion(patch, rho0, R, _ctx(args))
    lines = [
        f"R = {_fmt(R)} ({prov})",
        f"rho0 = {_fmt(rho0)}",
        f"N(rho0 + 2R) = {verdict.n_classes}",
        f"groups_equal = {str(verdict.groups_equal).lower()}",
        f"regular = {str(verdict.regular).lower()}",
    ]
    if verdict.witness:
        lines.append(f"witness = {verdict.witness}")
    _out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_bounds_table(args) -> int:
    if args.format == "csv":
        _out(args, regularity.table_to_csv())
        return 0
    lines = ["group  order  bound  reference"]
    for r in regularity.table_rows():
        lines.append(f"{r.label:<6} {r.order:<6} {r.bound:<10} {r.reference}")
    _out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_optimize(args) -> int:
    kwargs = {}
    if args.grid is not None:
        kwargs.update(grid_phi=args.grid, grid_psi=args.grid)
    if args.pair_filter is not None:
        kwargs.update(pair_filter=args.pair_filter)
    budget = antiprism_opt.OptBudget(**kwargs)
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
    _out(args, "\n".join(lines) + "\n")
    return 0


def _cmd_shtogrin(args) -> int:
    print(_fmt(regularity.shtogrin_step_bound(args.n)))
    return 0


# --- parser -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delone",
        description="Local theory of regular systems for 3D Delone sets")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="geometric tolerance (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a stock point set")
    p.add_argument("--kind", choices=["cubic", "hex", "hex_bilattice",
                                      "c4v", "antiprism"])
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--box", type=float, nargs=6,
                   metavar=("LOX", "LOY", "LOZ", "HIX", "HIY", "HIZ"))
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--t-z", dest="t_z", type=float)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="full scenario report for a point set")
    p.add_argument("path")
    p.add_argument("--rho", default="2R")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classes", help="cluster classes at a radius")
    p.add_argument("path")
    p.add_argument("--rho", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_classes)

    p = sub.add_parser("group", help="stabilizer of a cluster")
    p.add_argument("path")
    p.add_argument("--center", type=float, nargs=3, required=True,
                   metavar=("X", "Y", "Z"))
    p.add_argument("--rho", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("check-local", help="evaluate the local criterion")
    p.add_argument("path")
    p.add_argument("--rho0", required=True)
    p.add_argument("--R", type=float)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_check_local)

    p = sub.add_parser("bounds-table", help="per-group bounds table")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_bounds_table)

    p = sub.add_parser("optimize", help="antiprism optimizations")
    p.add_argument("problem", choices=["lemma1", "lemma2"])
    p.add_argument("--grid", type=int,
                   help="points per axis of lemma1's (phi, psi) seeding grid; "
                        "lemma2 does not use it")
    p.add_argument("--pair-filter", dest="pair_filter", type=float)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("shtogrin-bound", help="step bound 2 sin(pi/n)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_shtogrin)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (DeloneError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

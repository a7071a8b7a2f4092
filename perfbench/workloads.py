"""Workload inputs, operations and output checks.

Every op goes through a public entry point of ``delone_local`` (the
``delone`` command line called in-process, or the library sequence behind
``delone group``).  Its output is checked against values known from
theory; an op that raises or fails its check counts as failed.

Library functions are always reached through their module attribute
(``delone_core.cluster``, not a local alias), so that the traced run's
wrappers see every call.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from delone_local import cli, delone_core, generators, point_group
from delone_local.delone_core import PointPatch

WORKLOADS = ("analyze_regular", "analyze_generic", "groups", "antiprism")

#: Spacing and per-axis uniform jitter of the generic (jittered cubic)
#: Delone patches: minimum distance >= 1.6 - 2 * 0.15 > 1, and the
#: covering radius stays below 1.6 * sqrt(3) / 2 + 0.15 * sqrt(3) < 1.65.
JITTER_SPACING = 1.6
JITTER_AMPLITUDE = 0.15
JITTER_R_RANGE = (1.12, 1.65)

#: Tolerance on R printed with 10 significant digits.
R_TOL = 1e-8

#: The host this runs on is shared: its speed drifts by tens of percent
#: over minutes and jumps within seconds, and every op slows down with it.
#: A fixed kernel run before and after each op measures that speed.  Each
#: op's time is scaled by CALIBRATION_REF_MS / (the mean of those two
#: kernel times), so it reads as the time on a host where the kernel takes
#: CALIBRATION_REF_MS.
CALIBRATION_REF_MS = 5.0
_CALIBRATION_Q = np.linalg.qr(np.arange(1.0, 10.0).reshape(3, 3) + np.eye(3))[0]


def calibrate() -> float:
    """Seconds taken by a fixed kernel shaped like the library's work: a
    pure-Python loop and small 3x3 numpy calls.  It calls no library code,
    so it measures the host's speed, not the program's."""
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    m = np.eye(3)
    for _ in range(200):
        m = np.linalg.svd(m @ _CALIBRATION_Q)[0]
    return time.perf_counter() - t0


@dataclass
class Op:
    """One benchmark operation: ``call`` runs it, ``check`` returns None
    when the output is right and a one-line reason when it is not."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class LoopResult:
    """Outcome of a closed-loop run, per op: its name, wall time
    (``durations``), wall latency (inf for a failed op) and the mean of the
    calibration kernel times around it (``kernels``); and the failure
    reasons."""

    names: List[str] = field(default_factory=list)
    durations: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    kernels: List[float] = field(default_factory=list)
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def ref_latencies(self) -> List[float]:
        """Per-op latencies at the reference host speed (inf if failed)."""
        return [t * scale_to_ref(k) for t, k in zip(self.latencies, self.kernels)]

    def ref_busy(self) -> float:
        """Seconds spent in ops, failed ones too, at the reference speed."""
        return sum(t * scale_to_ref(k) for t, k in zip(self.durations, self.kernels))

    def extend(self, other: "LoopResult") -> None:
        self.names += other.names
        self.durations += other.durations
        self.latencies += other.latencies
        self.kernels += other.kernels
        self.failures += other.failures


def scale_to_ref(kernel_s: float) -> float:
    """Factor from times measured where the kernel took ``kernel_s``
    seconds to times on the reference host."""
    return CALIBRATION_REF_MS / (1e3 * kernel_s)


def run_loop(ops: Sequence[Op], seconds: float, rng: random.Random,
             tracer=None) -> LoopResult:
    """Run whole cycles over ``ops`` until ``seconds`` have passed.

    A single client starts each op only after the previous one finished
    (closed loop).  Each cycle visits every op once, in an order shuffled
    by ``rng``; stopping only at cycle boundaries keeps the input mix of a
    run fixed, so percentiles do not depend on where the clock ran out.
    The calibration kernel runs between ops, outside their timing.
    """
    res = LoopResult()
    start = time.perf_counter()
    before = calibrate()
    while True:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as e:  # an op that raises is a failed op
                dt = time.perf_counter() - t0
                reason = f"{type(e).__name__}: {e}"
            else:
                dt = time.perf_counter() - t0
                reason = op.check(out)
            after = calibrate()
            res.names.append(op.name)
            res.durations.append(dt)
            res.latencies.append(dt if reason is None else math.inf)
            res.kernels.append((before + after) / 2.0)
            if reason is not None:
                res.failures.append((op.name, reason))
            before = after
        if time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.op_id = tracer.SETUP
    return res


def run_alternating(ops: Sequence[Op], seconds: float, rng: random.Random,
                    tracer) -> Tuple[LoopResult, LoopResult]:
    """Untraced and traced cycles in turn for ``seconds`` seconds, so that
    drift in machine speed hits both alike; returns (untraced, traced)."""
    plain, traced = LoopResult(), LoopResult()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain.extend(run_loop(ops, 0.0, rng))
        tracer.install()
        try:
            traced.extend(run_loop(ops, 0.0, rng, tracer))
        finally:
            tracer.remove()
    return plain, traced


def per_input_ms(res: LoopResult) -> Dict[str, Tuple[int, float]]:
    """Op count and median time (ms, reference host speed) of each input."""
    by_name: Dict[str, List[float]] = {}
    for name, t in zip(res.names, res.ref_latencies()):
        by_name.setdefault(name, []).append(t)
    return {name: (len(ts), 1e3 * percentile(ts, 0.5)) for name, ts in by_name.items()}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]); inf entries sort last."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


# --- running the command line in-process -----------------------------------

def run_cli(argv: List[str]) -> Tuple[int, str, str]:
    """``delone <argv>`` in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def parse_report(text: str) -> Dict[str, str]:
    """``key = value`` lines of a CLI report as a dict."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _cli_result(result) -> Tuple[Optional[Dict[str, str]], Optional[str]]:
    rc, out, err = result
    if rc != 0:
        return None, f"exit {rc}: {err.strip()}"
    return parse_report(out), None


def _close(text: Optional[str], want: float, tol: float) -> bool:
    try:
        return abs(float(text.split()[0]) - want) <= tol
    except (AttributeError, IndexError, ValueError):
        return False


# --- analyze_regular --------------------------------------------------------

def _box(h: float) -> List[str]:
    return [str(-h)] * 3 + [str(h)] * 3


@dataclass(frozen=True)
class RegularFile:
    """A stock patch written by ``delone generate`` and the ``delone
    analyze`` report theory predicts for it."""

    name: str
    generate_args: Tuple[str, ...]
    R: float
    provenance: str
    group: str
    order: int
    table_bound: str


#: Five files, so that the median op and the 90th percentile op fall
#: inside one file's cluster of times rather than between two: cubic, with
#: its three Oh stabilizers, takes twice as long as any other, so the 90th
#: percentile is the median of its ~20 ops per run.  The boxes are the
#: smallest on which the local criterion is decided (c4v needs 10R), which
#: puts ~100 ops in a run; hex_bilattice at two box sizes shows the class
#: loop's hit path growing with the center count.
#: Covering radii: c4v declares sqrt(3/2); the cubic deep hole is the cube
#: center; the hexagonal ones sit over a triangle centroid (1/sqrt3 off the
#: lattice points) halfway across the widest layer gap (1 and 1.3).
REGULAR_FILES = (
    RegularFile("c4v", ("--kind", "c4v", "--box", *_box(6)),
                math.sqrt(1.5), "declared", "C4v", 8, "10R"),
    RegularFile("cubic", ("--kind", "cubic", "--box", *_box(4)),
                math.sqrt(3.0) / 2.0, "computed", "Oh", 48, "2R"),
    RegularFile("hex", ("--kind", "hex", "--lambda", "1", "--mu", "1",
                        "--box", *_box(4)),
                math.sqrt(1.0 / 3.0 + 0.25), "computed", "D6h", 24, "2R"),
    RegularFile("hex_bilattice", ("--kind", "hex_bilattice", "--mu", "6.25",
                                  "--t-z", "1.2", "--box", *_box(4)),
                math.sqrt(1.0 / 3.0 + 0.65 ** 2), "computed", "C6v", 12, "2R"),
    RegularFile("hex_bilattice", ("--kind", "hex_bilattice", "--mu", "6.25",
                                  "--t-z", "1.2", "--box", *_box(5)),
                math.sqrt(1.0 / 3.0 + 0.65 ** 2), "computed", "C6v", 12, "2R"),
)


def check_regular(spec: RegularFile, result) -> Optional[str]:
    rep, err = _cli_result(result)
    if err:
        return err
    if not _close(rep.get("R"), spec.R, R_TOL) or spec.provenance not in rep.get("R", ""):
        return f"R = {rep.get('R')}, want {spec.R:.10g} ({spec.provenance})"
    if not _close(rep.get("rho"), 2.0 * spec.R, 2.0 * R_TOL):
        return f"rho = {rep.get('rho')}, want {2.0 * spec.R:.10g}"
    want = {"N(rho)": "1", "group": spec.group, "order": str(spec.order),
            "table_bound": spec.table_bound, "local_criterion": "regular"}
    for key, value in want.items():
        if rep.get(key) != value:
            return f"{key} = {rep.get(key)}, want {value}"
    return None


def build_analyze_regular(workdir: Path, seed: int) -> List[Op]:
    ops = []
    for spec in REGULAR_FILES:
        path = str(workdir / f"{spec.name}{spec.generate_args[-1]}.xyz")
        rc, _, err = run_cli(["generate", *spec.generate_args, "-o", path])
        if rc != 0:
            raise RuntimeError(f"delone generate {spec.name}: {err.strip()}")
        ops.append(Op(f"analyze {spec.name} +-{spec.generate_args[-1]}",
                      lambda p=path: run_cli(["analyze", p]),
                      lambda r, s=spec: check_regular(s, r)))
    return ops


# --- analyze_generic --------------------------------------------------------

def jittered_cubic(m: int, rng: np.random.Generator) -> PointPatch:
    """Cubic lattice of spacing JITTER_SPACING on sites |k| <= m with
    uniform per-axis jitter, trusted on the box of half-width (m + 1/4)
    spacings.

    No jittered site crosses that box, so the patch is exactly the box's
    intersection with the infinite jittered set.  The covering radius of
    these patches lies in 1.43..1.49; for any R in 1.39..1.55 the 2R and
    4R margins (box minus radius) stay at least 0.15 spacings away from
    every layer of jittered sites.  The number of usable centers at 2R and
    4R, and with it the cost of an op, is then the same for every seed.
    """
    sites = generators.cubic_lattice((-m,) * 3, (m,) * 3).points
    pts = JITTER_SPACING * sites + rng.uniform(
        -JITTER_AMPLITUDE, JITTER_AMPLITUDE, size=sites.shape)
    h = (m + 0.25) * JITTER_SPACING
    return PointPatch(pts, (-h,) * 3, (h,) * 3)


#: Half-widths (in lattice sites) of the generic patches, one patch each:
#: four with 343 usable centers at 2R (h = 8.4) and one with 729 (h = 10).
#: The median op falls inside the cluster of times of the four, and the
#: 90th percentile in the middle of the larger patch's, not in the tail of
#: one cluster, which host bursts set; ~190 ops a run leave ~38 in the
#: larger patch's cluster.  Growth with the box size is what the traced
#: run's cluster_classes probes measure.
GENERIC_SITES = (5, 5, 5, 5, 6)


def usable_centers(patch: PointPatch, rho: float) -> int:
    tol = patch.geom_tol
    inside = (np.all(patch.points - rho >= patch.box_lo - tol, axis=1)
              & np.all(patch.points + rho <= patch.box_hi + tol, axis=1))
    return int(inside.sum())


def check_generic(patch: PointPatch, result) -> Optional[str]:
    """Every cluster of a generic patch is its own class: N(2R) is the
    number of usable centers, there is no group, and the criterion fails."""
    rep, err = _cli_result(result)
    if err:
        return err
    try:
        R = float(rep["R"].split()[0])
        n = int(rep["N(rho)"])
    except (KeyError, IndexError, ValueError):
        return f"malformed report {rep}"
    lo, hi = JITTER_R_RANGE
    if not lo < R < hi:
        return f"R = {R:.10g} outside ({lo}, {hi})"
    want = usable_centers(patch, 2.0 * R)
    if n != want:
        return f"N(rho) = {n}, want {want} usable centers"
    if "group" in rep:
        return f"unexpected group = {rep['group']}"
    if rep.get("local_criterion") != "not_regular":
        return f"local_criterion = {rep.get('local_criterion')}, want not_regular"
    return None


def build_analyze_generic(workdir: Path, seed: int) -> List[Op]:
    ops = []
    for i, m in enumerate(GENERIC_SITES):
        patch = jittered_cubic(m, np.random.default_rng([seed, i]))
        path = str(workdir / f"generic{i}_m{m}.xyz")
        delone_core.save_patch(patch, path)
        ops.append(Op(f"analyze generic{i} m={m}",
                      lambda p=path: run_cli(["analyze", p]),
                      lambda r, pt=patch: check_generic(pt, r)))
    return ops


# --- groups -----------------------------------------------------------------

def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed proper rotation (QR of a Gaussian matrix)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotated(patch: PointPatch, q: np.ndarray) -> PointPatch:
    """The patch rotated by q about the origin, trusted on the cube
    inscribed in the ball inscribed in the rotated box (a cube centred at
    the origin is assumed), so the trusted box holds every point of the
    rotated infinite set that it should."""
    h = float(np.min(patch.box_hi)) / math.sqrt(3.0)
    pts = patch.points @ q.T
    keep = np.all(np.abs(pts) <= h, axis=1)
    return PointPatch(pts[keep], (-h,) * 3, (h,) * 3,
                      declared_R=patch.declared_R)


@dataclass(frozen=True)
class GroupCase:
    """Source patch, center, radius and the theory (label, order, tower)."""

    source: str
    center: Tuple[float, float, float]
    rho: float
    want: Tuple[str, int, int]
    repeat: int = 1


OH = ("Oh", 48, 6)
D6H = ("D6h", 24, 5)
C4V = ("C4v", 8, 4)
C1 = ("C1", 1, 1)

#: The D6h cases run three times per cycle (13 ops): the median op then
#: falls inside their cluster of times with ~30 samples per run, and the
#: 90th percentile inside the Oh cases, whose tower_height dominates.
GROUP_CASES = (
    GroupCase("cubic", (0.0, 0.0, 0.0), 1.0, OH),
    GroupCase("cubic", (0.0, 0.0, 0.0), 1.5, OH),
    GroupCase("cubic", (0.0, 0.0, 0.0), math.sqrt(3.0), OH),
    GroupCase("hex", (0.0, 0.0, 0.0), 1.0, D6H, repeat=3),
    GroupCase("hex", (0.0, 0.0, 0.0), 2.0, D6H, repeat=3),
    GroupCase("c4v", (0.0, 0.0, 1.0), 1.0, C4V),
    GroupCase("c4v", (0.0, 0.0, 1.0), 1.5, C4V),
    GroupCase("c4v", (0.0, 0.0, 1.0), 2.0 * math.sqrt(1.5), C4V),
    GroupCase("jittered", (0.0, 0.0, 0.0), 2.5, C1),
)


def group_sources(rng: np.random.Generator) -> Dict[str, PointPatch]:
    """Unrotated source patches, large enough that every GROUP_CASES ball
    fits the rotated trusted box."""
    return {
        "cubic": generators.cubic_lattice((-6,) * 3, (6,) * 3),
        "hex": generators.hex_lattice(generators.HexLatticeSpec(1.0, 1.0),
                                      (-6,) * 3, (6,) * 3),
        "c4v": generators.c4v_example((-7,) * 3, (7,) * 3),
        "jittered": jittered_cubic(4, rng),
    }


def group_op(patch: PointPatch, center: np.ndarray, rho: float):
    """The library sequence behind ``delone group``."""
    c = delone_core.cluster(patch, center, rho)
    g = point_group.stabilizer(c)
    return str(g.label), g.order, point_group.tower_height(g)


def check_group(want: Tuple[str, int, int], got) -> Optional[str]:
    if tuple(got) != want:
        return f"label/order/tower {got}, want {want}"
    return None


def build_groups(workdir: Path, seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, 1])
    sources = group_sources(rng)
    q = random_rotation(rng)
    patches = {name: rotated(p, q) for name, p in sources.items()}
    ops = []
    for case in GROUP_CASES:
        src = sources[case.source]
        # the patch point nearest the case's center (the jittered site
        # moved off the origin; the lattices hold the center exactly)
        center = q @ src.points[src.tree.query(case.center)[1]]
        ops += [Op(f"group {case.source} rho={case.rho:.4g}",
                   lambda p=patches[case.source], c=center, r=case.rho:
                   group_op(p, c, r),
                   lambda got, w=case.want: check_group(w, got))] * case.repeat
    return ops


# --- antiprism --------------------------------------------------------------

#: ``delone optimize`` invocations, each run twice per cycle.  The pinned
#: optima are those of tests/test_antiprism_opt.py: lemma1 1.0 (the
#: computed maximum, attained at shared vertices) and lemma2 -0.3367.
#: lemma2 accepts ``--grid`` and keeps its own grid, so its runs cost the
#: same: the median op falls inside their cluster of times and the 90th
#: percentile inside that of lemma1, whose two ops a cycle are alike.
#: (lemma1 at a coarser ``--grid`` costs 10-15% less than at the default,
#: so with one op of each the 90th percentile fell between the two.)
ANTIPRISM_RUNS = (
    ("lemma1", ()),
    ("lemma2", ()),
    ("lemma2", ("--grid", "50")),
    ("lemma2", ("--grid", "20")),
    ("lemma2", ("--grid", "10")),
    ("lemma2", ("--grid", "5")),
)
ANTIPRISM_OPTIMA = {"lemma1": (1.0, 1e-6), "lemma2": (-0.3367, 0.005)}


def check_antiprism(problem: str, result) -> Optional[str]:
    rep, err = _cli_result(result)
    if err:
        return err
    want, tol = ANTIPRISM_OPTIMA[problem]
    if not _close(rep.get("best_value"), want, tol):
        return f"best_value = {rep.get('best_value')}, want {want} +- {tol}"
    try:
        starts, conv = int(rep["starts"]), int(rep["converged_starts"])
    except (KeyError, ValueError):
        return f"malformed report {rep}"
    if not 1 <= conv <= starts:
        return f"converged_starts = {conv} of {starts}"
    return None


def build_antiprism(workdir: Path, seed: int) -> List[Op]:
    return [Op(f"optimize {problem} {' '.join(extra)}".strip(),
               lambda a=["optimize", problem, *extra]: run_cli(a),
               lambda r, p=problem: check_antiprism(p, r))
            for problem, extra in ANTIPRISM_RUNS] * 2


BUILDERS = {
    "analyze_regular": build_analyze_regular,
    "analyze_generic": build_analyze_generic,
    "groups": build_groups,
    "antiprism": build_antiprism,
}

"""Closed-loop benchmark of delone_local through its public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload analyze_regular --seed 1 \
        --seconds 25 --trace 0

One process runs one workload: it imports the library from ``src/``,
builds and writes the workload's inputs from ``--seed``, warms up with one
op per input, then a single client runs ops back to back for ``--seconds``
seconds and checks every output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports per-layer metrics from spans around the
library's public functions, the tracing overhead, and one-shot probes.
The last line of stdout is the JSON result; a fuller record (environment,
sample counts, every layer) goes to ``.perfbench_out/``.

Times are reported at a reference host speed: a fixed calibration kernel
runs between ops, and each op's time is scaled by the ratio of the
kernel's reference time to the mean of its times just before and after
the op (see ``workloads.CALIBRATION_REF_MS``).  The wall-clock figures
are printed next to them.
"""
import os

# Pin BLAS threads before numpy is imported: scipy-openblas would start
# one thread per core and make timings depend on the machine's load.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up builds per run; set-up time reports their median build.
SETUP_REPEATS = 3
#: Units of the metrics that are times, scaled to the reference host.
TIME_UNITS = {"s", "s/op", "ms"}


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_library() -> float:
    """Import delone_local from this checkout's src/; returns seconds."""
    src = ROOT / "src"
    if not (src / "delone_local" / "__init__.py").is_file():
        raise SystemExit(f"error: no delone_local package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import delone_local  # noqa: F401
    return time.perf_counter() - t0


def metric_units(kind: str) -> dict:
    """Name -> unit of the "end_to_end" or "per_layer" metrics, in
    BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s = import_library()
    import numpy
    import scipy
    import workloads
    from spans import Tracer, layer_totals, setup_build_s

    if args.workload not in workloads.BUILDERS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    build = workloads.BUILDERS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    tracer = Tracer() if args.trace else None
    try:
        # set-up: build and write the inputs SETUP_REPEATS times, then warm
        # up once per input (a second warm-up would hide one-time costs)
        builds = []
        for k in range(SETUP_REPEATS):
            rep_dir = workdir / f"setup{k}"
            rep_dir.mkdir()
            if tracer is not None and k == 0:
                tracer.install()
            t0 = time.perf_counter()
            ops = build(rep_dir, args.seed)
            builds.append(time.perf_counter() - t0)
            if tracer is not None and k == 0:
                tracer.remove()
        # a cycle may list an input more than once; warm each up once
        inputs = list({id(op): op for op in ops}.values())
        warm = workloads.run_loop(inputs, 0.0, random.Random(args.seed))
        build_s = statistics.median(builds)

        rng = random.Random(args.seed)
        if tracer is None:
            loop = workloads.run_loop(ops, args.seconds, rng)
            runs = [loop]
        else:
            plain, loop = workloads.run_alternating(ops, args.seconds, rng, tracer)
            runs = [plain, loop]
            import probes
            probe_metrics = probes.run_probes(workdir, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = warm.failures + [f for r in runs for f in r.failures]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    cal_ms = 1e3 * statistics.median(warm.kernels + [k for r in runs for k in r.kernels])
    # per-layer times, which are sums over many ops, use the run's median
    scale = workloads.CALIBRATION_REF_MS / cal_ms
    # import and build have no kernel runs of their own; the warm-up
    # kernels, run within seconds of them, are the nearest
    setup_scale = workloads.scale_to_ref(statistics.median(warm.kernels))
    warmup_s = sum(warm.durations)
    setup_s = setup_scale * (import_s + build_s) + warm.ref_busy()
    env = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_per_cycle": len(ops),
        "ops": attempted,
        "warmup_failed": warm.failed,
        "calibration_ms": cal_ms,
        "time_scale": scale,
        "setup_time_scale": setup_scale,
    }
    report = {"env": env, "failures": failures[:20],
              "per_input_ms": workloads.per_input_ms(loop)}
    lines = [f"# env {json.dumps(env)}",
             f"# calibration kernel {cal_ms:.3f} ms here (median), "
             f"{workloads.CALIBRATION_REF_MS:g} ms on the reference host"]
    for name, reason in failures[:5]:
        lines.append(f"# FAILED {name}: {reason}")

    if tracer is None:
        lat = loop.ref_latencies()
        ok = loop.attempted - loop.failed
        p50 = 1e3 * workloads.percentile(lat, 0.5)
        p90 = 1e3 * workloads.percentile(lat, 0.9)
        wall_p50, wall_p90 = (1e3 * workloads.percentile(loop.latencies, q)
                              for q in (0.5, 0.9))
        values = {
            "ops_per_s": ok / loop.ref_busy(),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: metric(values[name], unit)
                   for name, unit in metric_units("end_to_end").items()}
        n = loop.attempted
        above = sum(1 for x in lat if 1e3 * x > p90)
        notes = {
            "ops_per_s": f"{ok} ok ops in {sum(loop.durations):.2f} s wall",
            "op_p50_ms": f"n={n}, wall {wall_p50:.1f}",
            "op_p90_ms": f"n={n}, {above} above, wall {wall_p90:.1f}",
            "setup_s": (f"wall: import {import_s:.3f} + build {build_s:.3f} "
                        f"(median of {SETUP_REPEATS}) + warm-up {warmup_s:.3f}"),
            "peak_rss_mb": "ru_maxrss",
        }
        failed_frac = failed / attempted
        lines.append(f"{'failed_frac':<46} {failed_frac:<12.6g} {'':<9} "
                     f"{failed}/{attempted} ops")
        report.update(failed_frac=failed_frac, notes=notes)
    else:
        layers = layer_totals(tracer.spans, loop.attempted)
        layers["generators.build_s"] = setup_build_s(tracer.spans)
        traced_p50 = workloads.percentile(loop.ref_latencies(), 0.5)
        plain_p50 = workloads.percentile(plain.ref_latencies(), 0.5)
        layers["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
        layers.update(probe_metrics)
        report["layers"] = layers
        metrics = {name: metric(layers[name] * (scale if unit in TIME_UNITS else 1.0), unit)
                   for name, unit in metric_units("per_layer").items()}
        notes = {name: "" for name in metrics}
        notes["trace.overhead_frac"] = (
            f"op_p50_ms traced {1e3 * traced_p50:.1f} (n={loop.attempted}) "
            f"vs untraced {1e3 * plain_p50:.1f} (n={plain.attempted})")
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.write(spans_path)
        lines.append(f"# {loop.attempted} traced ops, {len(tracer.spans)} spans "
                     f"-> {spans_path.relative_to(ROOT)}")

    for name, m in metrics.items():
        lines.append(f"{name:<46} {m['value']:<12.6g} {m['unit']:<9} {notes[name]}")
    report["metrics"] = metrics
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

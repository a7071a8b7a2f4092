"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root, e.g.

    python3 perfbench/spread.py --workload groups --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median over the runs and the quartile spread
(Q3 - Q1) / median from ``statistics.quantiles(values, n=4)``, next to the
metric's bound from BENCHMARK.json.  ``--compare`` takes a summary written
by an earlier invocation and also prints how much worse this median is.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: outputs wrong\n{proc.stdout}")
    return {k: m["value"] for k, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--compare", type=Path, help="earlier summary JSON")
    ap.add_argument("-o", "--output", type=Path, help="write the summary here")
    args = ap.parse_args()

    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()),
              flush=True)
    before = json.loads(args.compare.read_text()) if args.compare else {}
    summary = {}
    print(f"{'metric':<12} {'median':>10} {'spread':>8} {'bound':>6} {'worse':>7}")
    for m in spec["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[m["name"]] = {"median": med, "spread": spread, "values": values}
        worse = ""
        if m["name"] in before:
            old = before[m["name"]]["median"]
            change = (med - old) / old
            worse = f"{(change if m['better'] == 'lower' else -change):+.3f}"
        flag = "" if spread < m["bound"] / 3 else "  (spread >= bound/3)"
        print(f"{m['name']:<12} {med:>10.5g} {spread:>8.3f} {m['bound']:>6} {worse:>7}{flag}")
    if args.output:
        args.output.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's output checks and failure accounting.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from workloads import Op, check_antiprism, check_group, run_loop  # noqa: E402


def cheap_group_ops():
    """The c4v and jittered cases of the groups workload (fast ops)."""
    ops = workloads.build_groups(Path("unused"), seed=3)
    return [op for op in ops if op.name.startswith(("group c4v", "group jittered"))]


def test_right_expectations_pass():
    res = run_loop(cheap_group_ops(), 0.0, random.Random(0))
    assert res.attempted == 4 and res.failed == 0
    assert all(math.isfinite(x) for x in res.latencies)


def test_wrong_expected_value_is_a_failed_op():
    ops = cheap_group_ops()
    wrong = Op(ops[0].name + " (wrong)", ops[0].call,
               lambda got: check_group(("C4v", 8, 5), got))  # tower is 4
    res = run_loop(ops + [wrong], 0.0, random.Random(0))
    assert res.attempted == 5 and res.failed == 1
    assert res.failures[0][0] == wrong.name
    # a failed op counts as +inf latency, so it lands above every percentile
    assert workloads.percentile(res.latencies, 1.0) == math.inf
    assert math.isfinite(workloads.percentile(res.latencies, 0.5))


def test_raising_op_is_a_failed_op():
    def boom():
        raise ValueError("no such center")
    res = run_loop([Op("boom", boom, lambda out: None)], 0.0, random.Random(0))
    assert res.failed == 1 and res.failures[0][1].startswith("ValueError")


def test_antiprism_checks_pin_the_computed_optima():
    report = "best_value = {}\nstarts = 24\nconverged_starts = 24\n"
    assert check_antiprism("lemma1", (0, report.format(1), "")) is None
    assert check_antiprism("lemma2", (0, report.format(-0.3366973145), "")) is None
    # the quoted lemma-1 value 0.598 is not what the implementation computes
    assert check_antiprism("lemma1", (0, report.format(0.598), "")) is not None
    assert check_antiprism("lemma1", (1, "", "error: boom\n")) is not None

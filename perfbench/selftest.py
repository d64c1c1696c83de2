"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it runs one untraced round and one traced process at
the "tiny" sizes, and asserts that every metric BENCHMARK.json names is
reported with its unit and that the outputs pass the correctness gate.
It then asserts that failures are counted, not passed: a corrupted
golden digest, and ``calibrated-check --tol 1e-30`` (which exits 1).
Exits 1 on the first failed assertion.
"""

import copy
import json
import os
import sys

import run
from workloads import ROOT, WORKLOADS, load_golden, pass_argvs, setup_argv


def check(cond, what):
    if not cond:
        sys.exit("selftest FAILED: " + what)


def assert_metrics(result, declared, what):
    got = result["metrics"]
    for m in declared:
        check(m["name"] in got, "%s: metric %s missing" % (what, m["name"]))
        check(got[m["name"]]["unit"] == m["unit"],
              "%s: metric %s has unit %r, declared %r"
              % (what, m["name"], got[m["name"]]["unit"], m["unit"]))
    check(set(got) == {m["name"] for m in declared},
          "%s: undeclared metrics %s"
          % (what, sorted(set(got) - {m["name"] for m in declared})))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads differ from the workload table")
    golden = load_golden()

    for workload in WORKLOADS:
        result, _, errors = run.measure(workload, "tiny", 1, 0, golden)
        assert_metrics(result, bench["end_to_end"], workload)
        check(result["correct"] and result["failed"] == 0,
              "%s: untraced run failed: %s" % (workload, errors))
        check(result["attempted"] >= 1 + run.SETUP_REPEATS,
              "%s: too few invocations attempted" % workload)
        result, _, errors = run.trace(workload, "tiny", 1, 0)
        assert_metrics(result, bench["per_layer"], workload + " traced")
        check(result["correct"] and result["failed"] == 0,
              "%s: traced run failed: %s" % (workload, errors))
        print("ok  %s" % workload)

    bad = copy.deepcopy(golden)
    for key in bad["sha256"]:
        bad["sha256"][key] = "0" * 64
    result, _, _ = run.measure("graded", "tiny", 1, 0, bad)
    check(not result["correct"] and result["failed"] == result["attempted"],
          "corrupted digests were not all counted as failures: %s" % result)
    print("ok  corrupted digest counted as failure")

    strict = [arg + ["--tol", "1e-30"]
              for arg in pass_argvs("calibrated", "tiny", 1)]
    inv = run.invoke(strict[0])
    check(inv.returncode == 1, "--tol 1e-30 exited %d, not 1" % inv.returncode)
    passes = [("wall_s", strict), ("setup_s", [setup_argv("calibrated")])]
    result, _, _ = run.measure("calibrated", "tiny", 1, 0, golden, passes)
    check(not result["correct"] and result["failed"] == 1
          and result["attempted"] == 2,
          "failing calibrated check not counted once: %s" % result)
    print("ok  failing calibrated check counted as failure")
    print("selftest passed")


if __name__ == "__main__":
    main()

"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --runs 10 [--first-seed 1]

Runs the benchmark once per seed (seeds first-seed, first-seed+1, ...)
with the run length from BENCHMARK.json and, for each end-to-end
metric, prints the median of the runs and the distance between their
first and third quartiles as a share of that median, next to the
metric's bound, and each run's median probe time, which shows drift of
the host's speed.  Runs whose outputs fail the correctness gate are
reported and still counted.  A steady benchmark keeps each spread below
a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import HERE, ROOT


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout
        record, result = [json.loads(line) for line in out.splitlines()[-2:]]
        if not result["correct"]:
            print("seed %d: INCORRECT, %d of %d invocations failed"
                  % (seed, result["failed"], result["attempted"]), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        probe = statistics.median(record["run_record"]["samples"]["probe_s"])
        print("seed %d: probe %.4f %s" % (
            seed, probe, {k: round(v[-1], 4) for k, v in values.items()}),
            flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print("%-14s median %.4f  spread %.3f  bound %.2f  (%s)"
              % (m["name"], med, (q3 - q1) / med, m["bound"],
                 "ok" if (q3 - q1) / med < m["bound"] / 3 else "WIDE"))


if __name__ == "__main__":
    main()

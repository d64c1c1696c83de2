"""blobalg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload's CLI invocations as separate
processes, one at a time in a closed loop, for S seconds, and reports
the end-to-end metrics as medians over passes: wall time of a pass with
the default flags and with ``--jobs 1``, CPU time (user + system, pool
workers included) of a default pass, wall time of ``validate``
(set-up), and the peak resident memory of the largest process of a
default pass.  With
``--trace 1`` it runs ``tracer.py`` in fresh processes for S seconds
and reports the per-layer metrics.  Every invocation's output is
checked (see ``workloads.check_output``); failures are counted in
``failed``.  The last line of stdout is the result as one JSON object;
the line before it is the run record.
"""

import argparse
import collections
import datetime
import hashlib
import importlib.metadata
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

from workloads import (
    HERE,
    ROOT,
    WORKLOADS,
    check_output,
    load_golden,
    pass_argvs,
    setup_argv,
)

INVOCATION_TIMEOUT_S = 150
PROBE_LOOPS = 200_000
SETUP_REPEATS = 3
END_TO_END = {"wall_s": "s", "wall_s.jobs1": "s", "cpu_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


# Outcome of one CLI process.
Invocation = collections.namedtuple(
    "Invocation", "argv wall_s cpu_s rss_mb returncode stdout stderr")


def program_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, timeout=INVOCATION_TIMEOUT_S):
    """Run cmd from the repository root and reap it with wait4, so that
    its rusage (CPU time and peak RSS of it and its reaped children,
    such as pool workers) is that of this process alone.  Returns
    (wall s, CPU s, peak RSS MB, exit code, stdout, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, out, err[0])


def invoke(argv):
    return Invocation(argv, *spawn([sys.executable, "-m", "blobalg.cli"] + argv))


def probe_s():
    """A fixed pure-Python loop, timed to show the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_record(workload, seed, seconds, trace):
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "blobalg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_utc": datetime.datetime.now(datetime.timezone.utc)
                       .isoformat(timespec="seconds"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def fits_another(start, round_start, seconds):
    """Whether a round as long as the last one still ends within the
    run, so that a run lasts about ``seconds`` (and at least one round)."""
    now = time.perf_counter()
    return now + (now - round_start) <= start + seconds


def default_passes(workload, size, seed):
    """(metric, invocations) pairs of one round of the end-to-end loop.
    ``validate`` is short, so it runs several times a round."""
    passes = [("wall_s", pass_argvs(workload, size, seed))]
    if WORKLOADS[workload]["pool"]:
        passes.append(("wall_s.jobs1", pass_argvs(workload, size, seed, jobs=1)))
    passes += [("setup_s", [setup_argv(workload)])] * SETUP_REPEATS
    return passes


def measure(workload, size, seed, seconds, golden, passes=None):
    """Closed loop of untraced CLI passes.

    Each round runs every entry of ``passes`` (default: the workload's)
    in an order drawn from the seed.  A pass's wall and CPU time are
    sums over its invocations; its memory is the largest peak RSS among
    them.  Returns (result, samples, errors).
    """
    if passes is None:
        passes = default_passes(workload, size, seed)
    rng = random.Random(seed)
    samples = {name: [] for name in END_TO_END}
    samples["probe_s"] = []
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        order = list(passes)
        rng.shuffle(order)
        for name, argvs in order:
            wall = cpu = rss = 0.0
            for argv in argvs:
                inv = invoke(argv)
                attempted += 1
                problem = check_output(argv, inv.returncode, inv.stdout, golden)
                if problem is not None:
                    failed += 1
                    errors.append("%s: %s %s" % (" ".join(argv), problem,
                                                 inv.stderr.decode()[-500:]))
                wall += inv.wall_s
                cpu += inv.cpu_s
                rss = max(rss, inv.rss_mb)
            samples[name].append(wall)
            if name == "wall_s":
                samples["cpu_s"].append(cpu)
                samples["peak_rss_mb"].append(rss)
        samples["probe_s"].append(probe_s())
        if not fits_another(start, round_start, seconds):
            break
    if not samples["wall_s.jobs1"]:
        # No pool in these commands: the default pass is the serial one.
        samples["wall_s.jobs1"] = samples["wall_s"]
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, samples, errors


def trace(workload, size, seed, seconds):
    """Run tracer.py in fresh processes until ``seconds`` have passed.

    Times are medians over the processes; counts must repeat exactly,
    and a count that differs between processes fails the run.
    """
    cmd = [sys.executable, os.path.join(HERE, "tracer.py"),
           "--workload", workload, "--size", size, "--seed", str(seed)]
    runs, errors = [], []
    attempted = failed = 0
    probes = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        _, _, _, code, out, err = spawn(cmd)
        attempted += 1
        lines = out.decode().splitlines()
        if code != 0 or not lines:
            failed += 1
            errors.append("tracer exit code %d: %s" % (code, err.decode()[-2000:]))
        else:
            rep = json.loads(lines[-1])
            attempted += rep["attempted"] - 1
            failed += rep["failed"]
            errors.extend(rep["errors"])
            runs.append(rep["metrics"])
        probes.append(probe_s())
        if not fits_another(start, round_start, seconds):
            break
    if not runs:
        sys.exit("benchmark: no traced process completed:\n" + "\n".join(errors))
    metrics = {}
    for name, first in runs[0].items():
        values = [r[name]["value"] for r in runs]
        if first["unit"] in ("count", "bytes", "ratio"):
            if len(set(values)) != 1:
                failed += 1
                errors.append("count %s differs between traced processes: %s"
                              % (name, values))
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, {"probe_s": probes, "traced_processes": len(runs)}, errors


def preflight(workload):
    """Exit without a result when the program or its inputs are absent."""
    needed = [os.path.join(ROOT, "src", "blobalg", "cli.py"),
              os.path.join(ROOT, WORKLOADS[workload]["config"])]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        sys.exit("benchmark: missing %s" % ", ".join(missing))
    warm = invoke(setup_argv(workload))  # also compiles the bytecode caches
    if warm.returncode != 0:
        sys.exit("benchmark: %s failed (exit %d): %s"
                 % (" ".join(warm.argv), warm.returncode,
                    warm.stderr.decode()[-2000:]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    preflight(args.workload)
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    if args.trace:
        result, samples, errors = trace(args.workload, "full", args.seed,
                                        args.seconds)
    else:
        result, samples, errors = measure(args.workload, "full", args.seed,
                                          args.seconds, load_golden())
    for e in errors:
        print("benchmark: " + e, file=sys.stderr)
    record["samples"] = samples
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

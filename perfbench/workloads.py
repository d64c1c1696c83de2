"""Workload table of the blobalg benchmark: the CLI invocations each
workload runs, and the check that decides whether one invocation's
output is correct.

An invocation is the argument list after ``python -m blobalg.cli``.
Outputs are checked against ``golden.json``, recorded at the commit
that introduced the benchmark by ``record_golden.py``.  Why each
workload exists is written up in ``NOTES.md``.
"""

import hashlib
import json
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# "full" is what the benchmark measures; "tiny" is for the self-test.
# "pool" marks commands that take --jobs (a process pool over columns).
WORKLOADS = {
    "graded": {
        "commands": ("decomp",),
        "config": "configs/e5-formal.json",
        "pool": True,
        "n": {"full": 32, "tiny": 8},
    },
    "bounds": {
        "commands": ("bounds",),
        "config": "configs/e5-formal.json",
        "pool": True,
        "n": {"full": 10, "tiny": 5},
    },
    "calibrated": {
        "commands": ("calibrated-check",),
        "config": "configs/generic.json",
        "pool": False,
        "n": {"full": 8, "tiny": 3},
    },
    "tableau_stats": {
        "commands": ("degree", "word"),
        "config": "configs/e7.json",
        "pool": False,
        "n": {"full": 11, "tiny": 4},
    },
}


def setup_argv(workload):
    """The fixed cost every subcommand pays: start, import, config."""
    return ["validate", "--config", WORKLOADS[workload]["config"]]


def pass_argvs(workload, size, seed, jobs=None):
    """The invocations of one pass, in order.  ``jobs`` adds --jobs to
    the commands that have a pool; None keeps their default."""
    spec = WORKLOADS[workload]
    out = []
    for command in spec["commands"]:
        argv = [command, "--config", spec["config"],
                "--n", str(spec["n"][size])]
        if command == "calibrated-check":
            argv += ["--seed", str(seed)]
        if jobs is not None and spec["pool"]:
            argv += ["--jobs", str(jobs)]
        out.append(argv)
    return out


def golden_key(argv):
    """Invocation with the flags that must not change the output
    (--jobs, and --seed of the calibrated check) left out."""
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a in ("--jobs", "--seed", "--tol"):
            skip = True
        else:
            out.append(a)
    return " ".join(out)


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def calibrated_rows(stdout):
    """Parse ``calibrated-check`` TSV into ((shape, check) rows, statuses,
    worst residual, tol)."""
    lines = stdout.splitlines()
    if len(lines) < 2 or lines[0] != "shape\tcheck\tmax_residual\tstatus":
        raise ValueError("unexpected calibrated-check header")
    rows, statuses = [], []
    for line in lines[1:-1]:
        shape, check, _, status = line.split("\t")
        rows.append([shape, check])
        statuses.append(status)
    m = re.fullmatch(r"# worst residual (\S+) against tol (\S+): (PASS|FAIL)",
                     lines[-1])
    if m is None:
        raise ValueError("unexpected calibrated-check summary line")
    return rows, statuses, float(m.group(1)), float(m.group(2))


def check_output(argv, returncode, stdout, golden):
    """None when the invocation is correct, else the reason it is not.

    Exact commands must reproduce the recorded SHA-256 of stdout.  The
    calibrated check must list the recorded (shape, check) rows in
    order, all passing, with the worst residual below tol; its printed
    residuals are not compared, because a stricter norm legitimately
    changes them.
    """
    if returncode != 0:
        return "exit code %d" % returncode
    key = golden_key(argv)
    if argv[0] == "calibrated-check":
        expected = golden["calibrated_rows"].get(key)
        if expected is None:
            return "no recorded rows for %r" % key
        try:
            rows, statuses, worst, tol = calibrated_rows(stdout.decode())
        except ValueError as exc:
            return str(exc)
        if rows != expected:
            return "calibrated rows differ from the recorded ones"
        if any(s != "pass" for s in statuses):
            return "a calibrated check did not pass"
        if not worst < tol:
            return "worst residual %g not below tol %g" % (worst, tol)
        return None
    expected = golden["sha256"].get(key)
    if expected is None:
        return "no recorded digest for %r" % key
    if hashlib.sha256(stdout).hexdigest() != expected:
        return "stdout digest differs from the recorded one"
    return None

"""Record the expected outputs of every benchmark invocation.

    python3 perfbench/record_golden.py

Runs each workload's set-up and pass invocations once per size and
writes ``golden.json``: the SHA-256 of stdout for exact commands, and
the ordered (shape, check) rows for ``calibrated-check``.  Run it only
at a commit whose output is trusted; the benchmark judges every later
commit against it.
"""

import hashlib
import json
import sys

from run import invoke
from workloads import (
    GOLDEN_PATH,
    WORKLOADS,
    calibrated_rows,
    golden_key,
    pass_argvs,
    setup_argv,
)


def main():
    golden = {"sha256": {}, "calibrated_rows": {}}
    for workload, spec in WORKLOADS.items():
        for size in spec["n"]:
            for argv in [setup_argv(workload)] + pass_argvs(workload, size, 0):
                inv = invoke(argv)
                if inv.returncode != 0:
                    sys.exit("%s failed: %s" % (" ".join(argv),
                                                inv.stderr.decode()))
                key = golden_key(argv)
                if argv[0] == "calibrated-check":
                    rows, _, _, _ = calibrated_rows(inv.stdout.decode())
                    golden["calibrated_rows"][key] = rows
                else:
                    golden["sha256"][key] = hashlib.sha256(inv.stdout).hexdigest()
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

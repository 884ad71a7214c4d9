#!/usr/bin/env python3
"""Record `perfbench/reference.json`: the final-state norms and (2,2) mode
of the q = 1 workloads at the committed seed 0, on the full and the small
(`--tiny`) grids. Run from the root of a checkout, only when the physics
is meant to change:

    python3 perfbench/record_reference.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The reference point is the end of the first evolution call, so the
# shortest budget is enough.
SECONDS = 1


def main():
    reference = {}
    for workload in ["q1_supervised", "q1_overlap_2rank"]:
        for tiny in [False, True]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", str(SECONDS), "--trace", "0"]
            cmd += ["--tiny"] if tiny else []
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            detail = json.loads(out.stdout.strip().splitlines()[-2].removeprefix("detail: "))
            reference[workload + ("/tiny" if tiny else "")] = detail["reference"]
            print(f"recorded {workload}{' (tiny)' if tiny else ''}")
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()

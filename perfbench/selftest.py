#!/usr/bin/env python3
"""Self-tests of the benchmark, on small grids (about two minutes):

1. a smoke run of each workload, untraced and traced, prints every metric
   of BENCHMARK.json by name with its unit and passes its checks;
2. the correctness check rejects a deliberately perturbed final state,
   counting every operation of the run as failed;
3. the exact counts repeat bit for bit across two runs of one seed and
   across two seeds (the seed changes field values, never the work).

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 2


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail: "))
    return json.loads(lines[-1]), detail


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for w in [w["name"] for w in bench["workloads"]]:
        exact = {}
        for trace, kind in [(0, "end_to_end"), (1, "per_layer")]:
            result, detail = run(w, 0, trace)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{w} trace={trace}: correct, no failed operations ({detail['problems']})")
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{w} trace={trace}: every {kind} metric with its unit")
            exact[(0, trace)] = detail["exact"]
        _, again = run(w, 0, 1)
        expect(again["exact"] == exact[(0, 1)], f"{w}: exact counts repeat across runs")
        _, other = run(w, 1, 1)
        expect(other["exact"] == exact[(0, 1)], f"{w}: exact counts equal across seeds 0 and 1")
        bad, detail = run(w, 0, 0, "--perturb")
        expect(not bad["correct"] and bad["failed"] == bad["attempted"],
               f"{w}: a perturbed final state is rejected ({len(detail['problems'])} problems)")
    if failures:
        sys.exit(f"{len(failures)} self-test(s) failed")
    print("all self-tests passed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric and workload by
workload, against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the files `run.py --out` wrote (untraced runs; any
number per workload). Results whose fingerprints differ in host, toolchain,
build profile or the obs feature are not comparable: the comparison is
reported as "n/a", never as a pass. The git revision is expected to differ
(that is what is being compared) and is only printed.

Verdicts, per workload and end-to-end metric:
  worse        the new median is worse than the base median by more than the bound
  unresolved   the base runs spread wider than the bound, and not every new run
               beats every base run
  better / same  otherwise (better when every new run beats every base run)
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            d = json.load(f)
        if not d.get("trace"):
            runs.append(d)
    return runs


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        sys.exit("compare: each directory needs at least one untraced result")
    prints = {json.dumps(r["fingerprint"]["comparable"], sort_keys=True) for r in base + new}
    if len(prints) > 1:
        print("n/a: the results come from different hosts, toolchains or builds:")
        for p in sorted(prints):
            print("  " + p)
        sys.exit(2)
    revs = lambda rs: sorted({str(r["fingerprint"]["git_rev"]) for r in rs})
    print(f"base {revs(base)}  new {revs(new)}")
    print(f"{'workload':18} {'metric':15} {'base median':>12} {'new median':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    regressed = False
    for w in [w["name"] for w in bench["workloads"]]:
        b_runs = [r for r in base if r["workload"] == w]
        n_runs = [r for r in new if r["workload"] == w]
        if not b_runs or not n_runs:
            continue
        failed = (sum(r["failed"] for r in b_runs), sum(r["failed"] for r in n_runs))
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            bv = [r["metrics"][name] for r in b_runs]
            nv = [r["metrics"][name] for r in n_runs]
            bm, nm = statistics.median(bv), statistics.median(nv)
            worse_by = (nm - bm) / bm if lower else (bm - nm) / bm
            all_better = max(nv) < min(bv) if lower else min(nv) > max(bv)
            if worse_by > bound:
                verdict, regressed = "worse", True
            elif all_better:
                verdict = "better"
            elif spread(bv) > bound:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{w:18} {name:15} {bm:12.4g} {nm:12.4g} {-worse_by:+8.1%} {bound:6.2f}  {verdict}")
        if failed[1] > failed[0]:
            regressed = True
            print(f"{w:18} failed operations: base {failed[0]}, new {failed[1]}  worse")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()

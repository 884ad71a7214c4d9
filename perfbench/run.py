#!/usr/bin/env python3
"""Solver benchmark: build the `perfbench` binary from source, run one
workload, and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload inspiral_fig12 --seed 1 --seconds 32 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (every end-to-end metric of
BENCHMARK.json with `--trace 0`, every per-layer metric with `--trace 1`,
each with its unit). The line before it, `detail: {...}`, holds the full
result: host/toolchain fingerprint, exact counts, samples and any
correctness problems. `--out FILE` also writes that detail to FILE, the
input of `perfbench/compare.py`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
REFERENCE = os.path.join(HERE, "reference.json")
# The binary's own deadline is --seconds plus set-up, warm-up and the
# traced layer timings; this bounds a hung run.
RUN_TIMEOUT_S = 170
# Files whose content defines the measured program (hashed into the
# fingerprint when the checkout is not a git repository).
SOURCE_DIRS = ["crates", "vendor", "perfbench"]
SOURCE_FILES = ["Cargo.toml", "BENCHMARK.json"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    # A relative CARGO_TARGET_DIR is taken from the checkout root, where
    # cargo runs.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Build the benchmark binary (a no-op when it is up to date)."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = [n for n in dirnames if n != "target"]
            paths += [os.path.join(dirpath, f) for f in filenames]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def fingerprint(obs_compiled):
    """What a result depends on besides the code. `compare.py` refuses to
    compare results whose `comparable` parts differ."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    rev = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None
    dirty = None
    if rev is not None:
        status = command_output(["git", "status", "--porcelain", "--untracked-files=no"])
        dirty = None if status is None else status != ""
    return {
        "comparable": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "rustc": command_output(["rustc", "-V"]) or "unknown",
            "profile": "release (lto thin)",
            "obs_compiled": obs_compiled,
        },
        "git_rev": rev,
        "git_dirty": dirty,
        "source_sha256": source_sha256(),
    }


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def run_binary(binary, workload, seed, seconds, trace, tiny=False, perturb=False):
    scratch = os.path.join(target_dir(), "perfbench-scratch", f"{workload}-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scratch", scratch, "--reference", REFERENCE]
    cmd += ["--tiny"] if tiny else []
    cmd += ["--perturb"] if perturb else []
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if out.returncode != 0:
        fail(f"{workload} exited with code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload} printed no result")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true", help="small grids (self-tests)")
    ap.add_argument("--perturb", action="store_true", help="disturb the final state (self-tests)")
    ap.add_argument("--out", help="also write the detailed result to this file")
    args = ap.parse_args()

    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build()
    detail = run_binary(binary, args.workload, args.seed, args.seconds, args.trace,
                        args.tiny, args.perturb)
    detail["fingerprint"] = fingerprint(detail["obs_compiled"])

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in detail["metrics"]]
    if missing and detail["correct"]:
        fail(f"metrics not produced: {missing}")
    # A run whose evolution failed outright has nothing to time.
    metrics = {m["name"]: {"value": detail["metrics"].get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(detail, f, indent=1)
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

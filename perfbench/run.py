#!/usr/bin/env python3
"""DTX benchmark: build the benchmark program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: scale-fanout, bigdoc-read, hotdoc-commute (see BENCHMARK.json).
The program builds with dune into .bench_build/dune/ inside the checkout,
with dune's shared cache disabled and temporary files kept in
.bench_build/tmp/, so nothing is written outside the checkout. Any
DTX_* environment knob is removed before building and running, so every
number measures the shipped default program. The program's last output line
is the JSON result; a failed check or build exits non-zero.
"""

import argparse
import os
import subprocess
import sys

WORK_DIR = ".bench_build"
BUILD_DIR = os.path.join(os.getcwd(), WORK_DIR, "dune")
TARGET = "perfbench/dtxbench.exe"
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def commit_id(env):
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for path in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(path):
            fail(f"{path} not found: run from the root of a full DTX checkout")

    reset = sorted(k for k in os.environ if k.startswith("DTX_"))
    env = {k: v for k, v in os.environ.items() if not k.startswith("DTX_")}
    env["DUNE_CACHE"] = "disabled"
    tmp = os.path.join(os.getcwd(), WORK_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    if reset:
        print(f"perfbench: unset {' '.join(reset)} (the benchmark measures the shipped defaults)")

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--display", "quiet", TARGET],
            env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    exe = os.path.join(BUILD_DIR, "default", TARGET)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(env)]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

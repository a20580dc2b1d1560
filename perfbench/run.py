#!/usr/bin/env python3
"""Builds and runs the simulator benchmark (perfbench/perfbench.cpp).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds libdisp
and the benchmark with CMake (Release) into $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild incrementally.  Build output goes to
stderr, so the benchmark's JSON result stays the last line of stdout.  At
the default seed the facts pinned in perfbench/record.json are handed to the
benchmark, which fails the run if they differ.  The exit code is the
benchmark's: 0 only when every run and replay reproduced its facts.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_commit():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True, env=env)
    return os.path.join(build_dir, "perfbench")


def pins_for(workload, seed):
    with open(os.path.join(HERE, "record.json")) as f:
        record = json.load(f)
    entry = record["workloads"].get(workload, {})
    if seed != record["default_seed"] or "pinned" not in entry:
        return None
    return ",".join(f"{key}={value}" for key, value in entry["pinned"].items())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", git_commit()]
    pins = pins_for(args.workload, args.seed)
    if pins:
        cmd += ["--pin", pins]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

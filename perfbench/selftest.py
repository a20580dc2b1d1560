#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 perfbench/selftest.py PATH/TO/perfbench

Runs small instances (k = 64) of all three workload shapes through every
measurement path — setup, warm-up, timed runs, the traced run and all
replays — and checks the result line against BENCHMARK.json.  Then shows
that the fact check holds for correct pinned facts and fails, with a nonzero
exit, on a deliberately wrong one.  Also checks that run.py refuses to
report from a directory holding only the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sync_rooted", "async_general", "sync_general_sparse")


def run(binary, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


def expect(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def facts_line(lines):
    line = next(l for l in lines if l.startswith("facts "))
    return dict(item.split("=", 1) for item in line.split()[1:])


def main():
    binary = os.path.abspath(sys.argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    expect({w["name"] for w in bench["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json names the three workloads")

    for workload in WORKLOADS:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            proc, _, result = run(binary, workload, trace)
            expect(proc.returncode == 0 and result and result["correct"]
                   and result["failed"] == 0,
                   f"{workload} trace={trace}: every run and replay reproduces the facts")
            # warm-up + >= 3 timed + traced + world, view and engine replays
            expect(result["attempted"] >= 8, f"{workload}: all measurement paths ran")
            expect(list(result["metrics"]) == names,
                   f"{workload} trace={trace}: metrics match BENCHMARK.json")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        expect(m["engine.replay_s"] > 0 and m["world.apply_s"] > 0
               and m["world.view_ns_per_query"] != 0, f"{workload}: replays were timed")
        expect(abs(m["share.world"] + m["share.engine"] + m["share.protocol"] - 1) < 1e-9,
               f"{workload}: shares sum to 1")
        expect(m["trace.events.move"] == m["run.moves"],
               f"{workload}: traced Move events equal the run's moves")

    # The fact check: right pins pass, one wrong pin fails the run.
    _, lines, _ = run(binary, "sync_rooted", 0)
    facts = facts_line(lines)
    keys = ("time", "activations", "moves", "max_memory_bits", "positions_hash")
    good = ",".join(f"{k}={facts[k]}" for k in keys)
    proc, _, result = run(binary, "sync_rooted", 0, "--pin", good)
    expect(proc.returncode == 0 and result["correct"], "correct pinned facts pass")
    bad = good.replace(f"moves={facts['moves']}", f"moves={int(facts['moves']) + 1}")
    proc, _, result = run(binary, "sync_rooted", 0, "--pin", bad)
    expect(proc.returncode == 1 and not result["correct"] and result["failed"] >= 1,
           "a wrong pinned value fails the run with a nonzero exit")

    # Without the simulator's sources the benchmark must not report.
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sync_rooted",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "run.py refuses without the simulator sources")


if __name__ == "__main__":
    main()

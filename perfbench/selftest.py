#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, traced and untraced, runs perfbench/run.py with tiny
inputs and checks that the result line carries every metric BENCHMARK.json
names, with its unit, and that no operation failed. Then checks that the
inputs are a function of the seed: the same seed gives identical
generated-input hashes and a different seed different ones. Exits non-zero
on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

import run

WORKLOADS = ["table2", "serve", "shard", "solver"]


def fail(msg):
    print(f"selftest: FAIL: {msg}", flush=True)
    sys.exit(1)


def result_of(workload, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S + 60)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def input_hash(workload, seed):
    proc = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--inputs-only"],
        stdout=subprocess.PIPE, text=True, timeout=120)
    for line in proc.stdout.split("\n"):
        if line.startswith("inputs_hash "):
            return line.split()[1]
    fail(f"{workload}: no inputs_hash line (exit {proc.returncode})")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result_of(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                fail(f"{workload} trace={trace}: metrics {sorted(got)} != "
                     f"{sorted(want)}")
            if res["failed"] != 0 or not res["correct"] or res["attempted"] < 1:
                fail(f"{workload} trace={trace}: failed {res['failed']} of "
                     f"{res['attempted']}")
            print(f"selftest: {workload} trace={trace}: {len(got)} metrics, "
                  f"{res['attempted']} attempted, 0 failed", flush=True)
        a, b, c = (input_hash(workload, s) for s in (1, 1, 2))
        if a != b:
            fail(f"{workload}: seed 1 gave inputs {a} then {b}")
        if a == c:
            fail(f"{workload}: seeds 1 and 2 gave the same inputs {a}")
        print(f"selftest: {workload}: inputs seed 1 {a} (twice), seed 2 {c}",
              flush=True)
    print("selftest: OK")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark binary from source into .bench_build/
(CMake, Release), runs one workload, checks that the metrics it printed are
exactly the ones BENCHMARK.json names with their units, and prints the
result JSON as the last line of standard output. Per-run reports (host
stamp, per-matrix and per-rung tables) and, for traced runs, the Chrome
trace go to .bench_out/. Exits non-zero, without a result line, when the
build or the run fails or the metrics do not match BENCHMARK.json; exits
non-zero after the result line when any output was wrong.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.exists()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """The result JSON must carry exactly the BENCHMARK.json metrics."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        return None, "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None, f"result keys {sorted(res)}"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return None, f"metrics differ: missing {missing} extra {extra} unit {wrong}"
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            return None, f"metric {k} has no numeric value"
    return res, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["table2", "serve", "shard", "solver"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: small inputs, for the self-test")
    args = ap.parse_args()

    if not (ROOT / "BENCHMARK.json").exists():
        log("BENCHMARK.json not found at the repository root")
        return 2
    if not build():
        return 3

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", str(OUT)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        log(f"benchmark exited with code {proc.returncode} and no result; "
            f"last line: {lines[-1] if lines else ''}")
        return 5
    res, why = check_result(lines[-1], bool(args.trace))
    if res is None:
        log(f"{why}; result line: {lines[-1]}")
        return 6
    print(json.dumps(res), flush=True)
    return 0 if proc.returncode == 0 and res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md next to this file).

    python3 perfbench/run.py --workload kv-ingest|kv-mixed|kv-wire|pram-cc \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark binary under .bench_build/perfbench (a few minutes); later runs
only check that it is up to date. The binary's output is passed through;
its last line is the JSON result. Before passing it on, this script checks
the result against BENCHMARK.json: exactly the keys correct, attempted,
failed and metrics, and exactly the end-to-end (--trace 0) or per-layer
(--trace 1) metrics BENCHMARK.json names, each with its unit. Exits
non-zero, without a result line, if the build, the run, or that check
fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not (ROOT / "src" / "serve" / "serve_session.hpp").is_file():
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"],
    ]
    if (BUILD / "CMakeCache.txt").is_file():
        steps = steps[1:]
    for cmd in steps:
        try:
            res = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")


def check_result(line, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    metrics = result["metrics"]
    names = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, unit in names.items():
        if metrics[name]["unit"] != unit:
            fail(f"{name}: unit {metrics[name]['unit']!r}, BENCHMARK.json says {unit!r}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail("run reported an incorrect or empty result")


def main():
    args = sys.argv[1:]
    trace = False
    for i, a in enumerate(args[:-1]):
        if a == "--trace":
            trace = args[i + 1] == "1"
    build()
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    try:
        res = subprocess.run([str(BINARY)] + args, capture_output=True, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        sys.stdout.write(res.stdout)
        print(f"perfbench/run.py: benchmark exited with {res.returncode}", file=sys.stderr)
        sys.exit(res.returncode)
    lines = res.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    check_result(lines[-1], trace)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_robustmpc --seed 1 \
        --seconds 12 --trace 0
    python3 perfbench/run.py            # every workload, one process each

The C++ benchmark binary is compiled on first use into .bench_build/perfbench (a
Release build of the repository's libraries plus perfbench/src). Each
workload runs in its own process. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end set of BENCHMARK.json, with --trace 1 the
per-layer set; the traced run also writes sampled spans (Chrome trace JSON)
to .bench_build/perfbench/spans/. The exit status is nonzero when the build
fails, a correctness check fails, or the output does not match
BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def build():
    """Configures (once) and builds the perfbench target; returns success."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "perfbench.lock", "w", encoding="utf-8") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench", "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                log(f"build step timed out: {' '.join(step)}")
                return False
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                log(f"build step failed: {' '.join(step)}")
                # A failed configure must not leave a cache that skips it.
                if "-S" in step:
                    (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                return False
    return True


def check_result(result, expected):
    """Returns a list of ways `result` departs from BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, want {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: value {got.get('value')!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']!r}")
    return problems


def run_workload(spec, workload, seed, seconds, trace, echo=True):
    """Runs one workload in its own process; returns (exit code, result)."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = BUILD_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out", str(spans_dir / f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log(f"{workload} printed no result (exit {done.returncode})")
        return done.returncode or 1, None
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    problems = check_result(result, expected)
    if problems:
        log(f"{workload} result does not match BENCHMARK.json: {problems}")
        return 1, None
    if not result["correct"] or done.returncode != 0:
        log(f"{workload} failed its correctness checks "
            f"({result['failed']} of {result['attempted']} failed)")
        return done.returncode or 1, result
    return 0, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as error:
        log(f"cannot read BENCHMARK.json: {error}")
        return 1
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose from {names}")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if not build():
        return 1

    if args.workload is not None:
        code, result = run_workload(spec, args.workload, args.seed, seconds,
                                    args.trace)
        if result is not None:
            print(json.dumps(result), flush=True)
        return code

    # Every workload, each in its own process, with a table per workload.
    worst = 0
    for workload in names:
        code, result = run_workload(spec, workload, args.seed, seconds,
                                    args.trace, echo=False)
        worst = worst or code
        print(f"== {workload}: "
              + ("no result" if result is None else
                 f"correct={result['correct']} attempted={result['attempted']} "
                 f"failed={result['failed']}"))
        for name, metric in (result or {}).get("metrics", {}).items():
            print(f"   {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    return worst


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <read_write|learn_interactive>
                             --seed <n> --seconds <s> --trace <0|1>

The script configures and builds perfbench/ (the rpqlearn library compiled
from src/ plus the benchmark program) with CMake in Release mode, into the
directory named by CARGO_TARGET_DIR (default .bench_build), then runs the
program. The program's output is passed through; its last line is the JSON
result. The script checks that result against BENCHMARK.json and exits
nonzero when the build fails, the program fails or reports an output
mismatch, or the result does not match the declared metrics.
"""

import argparse
import json
import os
import subprocess
import sys

# A run measures for --seconds, plus set-up, checks and, when traced, the
# replays; anything far beyond that is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def run_step(command, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(command)}")


def build(source_dir, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", source_dir, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json declares
    for this mode, with their units."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the program's last line is not a JSON result")
    if not os.path.exists("BENCHMARK.json"):
        return result
    with open("BENCHMARK.json", encoding="utf-8") as spec_file:
        spec = json.load(spec_file)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {metric["name"]: metric["unit"] for metric in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or units differ")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["read_write", "learn_interactive"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(source_dir, build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"the {args.workload} run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"the {args.workload} run exited with {done.returncode}",
             done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the program printed nothing")
    check_result(lines[-1], args.trace == "1")


if __name__ == "__main__":
    main()

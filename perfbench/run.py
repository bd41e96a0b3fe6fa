#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds the perfbench
package (CMake, Release) under .bench_build/perfbench (the directory
named by CARGO_TARGET_DIR when set, relative to the root), runs the
benchmark's self-test, then the workload. Everything the build prints
goes to stderr; stdout carries the workload's detail line and, last,
its result line. A traced run also writes its spans to
<build dir>/traces/<workload>.spans.csv.

Exit codes: 0 ok; 1 a failed build, self-test or correctness check, or
a result that does not match BENCHMARK.json; 2 usage error or a
checkout without the library sources.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", PACKAGE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns a list of ways the result line breaks the contract."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    want = expected_metrics(trace)
    if sorted(metrics) != sorted(want):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wire_paced", "core_ingest", "admit_budget"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        fail(2, "--seed must be >= 0 and --seconds in [1, 3600]")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, f"library sources not found under {ROOT}/src")
    out_dir = build_dir()
    try:
        build(out_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(1, f"build failed: {e}")

    selftest = subprocess.run([os.path.join(out_dir, "perfbench_selftest")],
                              stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        fail(1, "self-test failed")

    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    trace = args.trace == "1"
    if trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.spans.csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if lines:
        print("\n".join(lines), flush=True)
    if run.returncode != 0:
        fail(1, f"{args.workload} exited with {run.returncode}")
    problems = check_result(lines[-1], trace) if lines else ["no output"]
    if problems:
        fail(1, "; ".join(problems))


if __name__ == "__main__":
    main()

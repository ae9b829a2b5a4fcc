#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (a CMake project that
compiles ../src with the repository's default Release settings) under
$CARGO_TARGET_DIR, default .bench_build, then runs one workload. Build
output goes to stderr; the benchmark's own output, ending with its JSON
result line, goes to stdout. The exit code is the benchmark's.

--self-test runs every workload of BENCHMARK.json at minimal size, with
tracing off and on, and checks that each result line carries every metric
BENCHMARK.json names.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                         "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed: " + " ".join(step), 3)
    return os.path.join(out, "perfbench")


def source_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def bench_args(binary, workload, seed, seconds, trace, smoke=False):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--trace-dir", os.path.join(build_dir(), "traces"),
            "--commit", source_commit()]
    return args + (["--smoke"] if smoke else [])


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(
                bench_args(binary, workload, 1, 1, trace, smoke=True),
                capture_output=True, text=True, cwd=ROOT,
                timeout=RUN_TIMEOUT_S)
            problems = []
            try:
                result = json.loads(run.stdout.strip().splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append("result keys")
                if result.get("correct") is not True:
                    problems.append("correct is not true")
                for metric in spec[section]:
                    got = result["metrics"].get(metric["name"])
                    if not isinstance(got, dict) or \
                            not isinstance(got.get("value"), (int, float)) or \
                            got.get("unit") != metric["unit"]:
                        problems.append("metric " + metric["name"])
            except (IndexError, ValueError, KeyError):
                problems.append("no JSON result line")
            if run.returncode != 0:
                problems.append(f"exit code {run.returncode}")
            status = "ok" if not problems else "FAIL: " + ", ".join(problems)
            print(f"self-test {workload} trace={trace}: {status}")
            if problems:
                failures += 1
                sys.stderr.write(run.stdout[-3000:] + run.stderr[-2000:])
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    sys.stdout.flush()
    try:
        return subprocess.run(
            bench_args(binary, args.workload, args.seed, args.seconds,
                       args.trace),
            cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s", 4)


if __name__ == "__main__":
    sys.exit(main())

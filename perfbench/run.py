#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR, or .bench_build at the repository root when that is unset,
then runs one measurement. The last line of standard output is the JSON
result; --trace 0 reports the end-to-end metrics of BENCHMARK.json and
--trace 1 its per-layer metrics. Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die_with_parent():
    """Child pre-exec hook: the kernel kills the child if this script dies."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step {' '.join(cmd[:2])} exited with {code}")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # A terminated run unwinds through subprocess.run, which kills and reaps
    # the build or benchmark process it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    expected = expected_metrics(args.trace)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode} and no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    # The binary checks the program's outputs; here the report is checked
    # against the metric list BENCHMARK.json declares.
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != expected:
        missing = sorted(set(expected) - set(reported))
        extra = sorted(set(reported) - set(expected))
        print(f"ERROR: metrics differ from BENCHMARK.json (missing {missing}, extra {extra},"
              f" or a unit differs)")
        result["correct"] = False
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()

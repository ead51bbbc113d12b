#!/usr/bin/env python3
"""Determinism self-check of the benchmark's counted metrics.

    python3 perfbench/selfcheck.py [--seeds 1,2] [--workloads a,b]

Builds the benchmark like run.py, then for each workload and seed runs the
Baseline + Forerunner pair three times at speculation_time_scale 0: twice
with Forerunner spec_workers min(4, nproc) and once with spec_workers 1. The
counted quantities (per-transaction outcomes, futures, synthesis failures,
trie and store reads, gas, pending pool, accel/evm/predict counters and the
head roots) must be identical across all three, and every run must agree
block by block between the nodes. Exits non-zero on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    binary = run.build()
    ok = True
    for workload in workloads:
        for seed in args.seeds.split(","):
            proc = subprocess.run([binary, "--check", "--workload", workload, "--seed", seed],
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=run.RUN_TIMEOUT_S, preexec_fn=run.die_with_parent)
            lines = proc.stdout.rstrip("\n").split("\n")
            for line in lines[:-1]:
                print(line)
            passed = proc.returncode == 0 and json.loads(lines[-1])["correct"]
            print(f"{workload} seed {seed}: {'PASS' if passed else 'FAIL'}")
            ok = ok and passed
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""mobicache benchmark entry point.

Builds the benchmark binary from source (perfbench/CMakeLists.txt, into
.bench_build/ at the repository root), runs one workload, checks that the
result names exactly the metrics BENCHMARK.json declares, and forwards the
binary's output. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload fig3_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

--trace 0 reports the end-to-end metrics (medians over repetitions run for
--seconds); --trace 1 reports the per-layer metrics of one traced run.
--workload all runs every workload in turn and ends with one JSON object
whose metric names are prefixed with the workload name.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perf_suite")
FINGERPRINTS = os.path.join(HERE, "fingerprints.tsv")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds perf_suite; build chatter goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "perf_suite"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run_workload(name, seed, seconds, trace, expected):
    """Runs one workload; returns (output lines, parsed result)."""
    cmd = [BINARY, "--workload=" + name, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--fingerprints=" + FINGERPRINTS]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (name, RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (name, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s printed no JSON result line" % name)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s result has keys %s" % (name, sorted(result)))
    if set(result["metrics"]) != expected:
        fail("%s metrics %s differ from BENCHMARK.json %s" %
             (name, sorted(result["metrics"]), sorted(expected)))
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    names = [w["name"] for w in spec["workloads"]]
    key = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"] for m in spec[key]}
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r; choose from %s or all" %
             (args.workload, ", ".join(names)))

    build()
    if args.workload != "all":
        lines, _ = run_workload(args.workload, args.seed, args.seconds,
                                args.trace, expected)
        print("\n".join(lines))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        lines, result = run_workload(name, args.seed, args.seconds,
                                     args.trace, expected)
        print("\n".join(lines[:-1]))
        print()
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][name + "." + metric] = value
    print(json.dumps(combined))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload svc-boundary --seed 1 --seconds 15 --trace 0

The first run configures and builds the program and the harness into
.bench_build/ (later runs only re-check the build). The harness binary
prints progress on stderr and one JSON result on stdout; this wrapper checks
that result against the metric lists in BENCHMARK.json, fills per-layer
rows a workload does not exercise with 0 (that layer did no work), prints a
readable table on stderr, and prints the JSON as the last stdout line.
It exits non-zero when the build fails, the sources are missing, the result
does not match BENCHMARK.json, or an output check failed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("svc-boundary", "svc-hourly", "fleet-flash", "sim-paper")
# Seed 1009 is held out: never used while tuning the benchmark, it is for
# re-checking a claimed gain (see perfbench/README.md).
DEFAULT_SEED = 1


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the program sources (src/) are missing; nothing to build")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return [(row["name"], row["unit"]) for row in rows]


def conform(result, trace):
    """Orders the metrics as BENCHMARK.json lists them; returns an error or None."""
    expected = expected_metrics(trace)
    units = dict(expected)
    got = result["metrics"]
    for name, metric in got.items():
        if name not in units:
            return "metric %s is not listed in BENCHMARK.json" % name
        if metric["unit"] != units[name]:
            return "metric %s has unit %s, BENCHMARK.json says %s" % (
                name, metric["unit"], units[name])
    metrics = {}
    for name, unit in expected:
        if name in got:
            metrics[name] = got[name]
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            return "end-to-end metric %s is missing" % name
    result["metrics"] = metrics
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True)
    lines = run.stdout.strip().splitlines()
    if not lines:
        log("perfbench: the harness printed no result (exit %d)" % run.returncode)
        return run.returncode or 3
    result = json.loads(lines[-1])
    error = conform(result, args.trace)
    if error:
        log("perfbench: " + error)
        return 3

    log("%s seed=%d trace=%d: correct=%s attempted=%d failed=%d" % (
        args.workload, args.seed, args.trace, result["correct"],
        result["attempted"], result["failed"]))
    for name, metric in result["metrics"].items():
        log("  %-32s %18.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

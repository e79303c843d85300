#!/usr/bin/env python3
"""Runs one workload of the relacc benchmark and prints its metrics.

Usage (from the root of a relacc checkout):

    python3 perfbench/run.py --workload batch_med --seed 1 --seconds 40 --trace 0

Steps: build perfbench/ (the library sources plus the harness) into the
build directory ($CARGO_TARGET_DIR, default .bench_build) with CMake,
generate the workload's inputs from --seed, run the measured process on
them, and print one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, from a separate traced run that also writes
its spans to <build>/out/<workload>-<seed>/trace_<workload>.json.

Exit codes: 0 when every output check passed; 1 when a check failed (the
JSON line is still printed); 2 when the benchmark could not run at all
(no JSON line), e.g. outside a relacc checkout.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("batch_med", "serve_mixed")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def build(build_root):
    cmake_dir = os.path.join(build_root, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(cmake_dir, "relacc_perfbench")


def metric_specs():
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        die("BENCHMARK.json not found in " + os.getcwd())
    with open(path) as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def pinned_mismatches(workload, seed, info):
    """Differences from perfbench/pinned.json for pinned (workload, seed)."""
    with open(os.path.join(HERE, "pinned.json")) as f:
        pinned = json.load(f).get(workload, {}).get(str(seed))
    if pinned is None:
        return []
    return ["pinned %s: expected %r, got %r" % (k, v, info.get(k))
            for k, v in sorted(pinned.items()) if info.get(k) != v]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args()

    if not os.path.exists(os.path.join("src", "api", "accuracy_service.h")):
        die("run from the root of a relacc checkout (src/ not found)")
    end_to_end, per_layer = metric_specs()
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        harness = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        die("build failed: %s" % e)

    name = "%s-%d-%s" % (args.workload, args.seed, args.scale)
    inputs = os.path.join(build_root, "inputs", name)
    out = os.path.join(build_root, "out", name)
    os.makedirs(inputs, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    gen = subprocess.run(
        [harness, "gen", "--workload", args.workload, "--seed", str(args.seed),
         "--scale", args.scale, "--out", inputs],
        stdout=sys.stderr, stderr=sys.stderr)
    if gen.returncode != 0:
        die("input generation failed")
    try:
        run = subprocess.run(
            [harness, "run", "--workload", args.workload, "--inputs", inputs,
             "--out", out, "--seconds", repr(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("the measured run did not finish within %d s" % RUN_TIMEOUT_S)
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if run.returncode != 0 or not lines:
        die("the measured run failed (exit %d)" % run.returncode)
    result = json.loads(lines[-1])

    errors = list(result["errors"])
    if args.scale == "full":
        errors += pinned_mismatches(args.workload, args.seed, result["info"])
    source = result["layers"] if args.trace else result["end_to_end"]
    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for spec in wanted:
        got = source.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            errors.append("metric %s missing or not in %s" %
                          (spec["name"], spec["unit"]))
            continue
        metrics[spec["name"]] = got
    extra = sorted(set(source) - {spec["name"] for spec in wanted})
    if extra:
        errors.append("metrics not in BENCHMARK.json: " + ", ".join(extra))
    failed = result["failed"] + len(errors) - len(result["errors"])
    correct = result["correct"] and not errors

    for e in errors:
        log("check failed: " + e)
    info = result["info"]
    print("%s seed=%d trace=%d: latency p50 and p95 over %d samples; %s" % (
        args.workload, args.seed, args.trace, info.get("latency_samples", 0),
        ", ".join("%s=%s" % (k, v) for k, v in sorted(info.items())
                  if k != "latency_samples")))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

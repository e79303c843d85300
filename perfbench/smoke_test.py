#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Usage (from the root of a relacc checkout):

    python3 perfbench/smoke_test.py

Checks BENCHMARK.json against the benchmark contract, then runs every
workload at tiny scale, untraced and traced, and asserts the output
schema (the last stdout line has exactly correct/attempted/failed/
metrics), the metric names and units, and that every output check
passes. Finally it runs the benchmark in a directory holding only
BENCHMARK.json and perfbench/, where it must fail without a result.
Exits nonzero on the first failed assertion.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def check_benchmark_json(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(bench["command"] == ["python3", "perfbench/run.py"], "command")
    check(bench["paths"] == ["perfbench"], "paths")
    check(isinstance(bench["run_seconds"], int) and
          1 <= bench["run_seconds"] <= 60, "run_seconds")
    names = set()
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and NAME.match(w["name"]) and
              len(w["why"]) <= 200 and "\n" not in w["why"], "workload %r" % w)
        names.add(w["name"])
    check(2 <= len(bench["workloads"]) <= 8, "workload count")
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and
              0 < m["bound"] <= 0.25, "end_to_end %r" % m)
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "per_layer %r" % m)
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"]) and
              m["better"] in ("lower", "higher"), "metric %r" % m)
        check(m["name"] not in names, "duplicate name " + m["name"])
        names.add(m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"]),
          "setup_s must exist, in s, lower, with the largest bound")


def run(workload, trace, cwd="."):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "4", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    check_benchmark_json(bench)
    for w in bench["workloads"]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            p = run(w["name"], trace)
            lines = [l for l in p.stdout.splitlines() if l.strip()]
            check(p.returncode == 0 and lines,
                  "%s trace=%d exit %d\n%s" % (w["name"], trace, p.returncode,
                                               p.stderr[-3000:]))
            out = json.loads(lines[-1])
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  "result keys %s" % sorted(out))
            check(out["correct"] is True and out["failed"] == 0 and
                  isinstance(out["attempted"], int) and out["attempted"] >= 1,
                  "%s trace=%d checks: %s" % (w["name"], trace, p.stderr[-3000:]))
            check(set(out["metrics"]) == {m["name"] for m in specs},
                  "%s trace=%d metric names" % (w["name"], trace))
            for m in specs:
                got = out["metrics"][m["name"]]
                check(set(got) == {"value", "unit"} and got["unit"] == m["unit"]
                      and isinstance(got["value"], (int, float)),
                      "%s: %r" % (m["name"], got))
            if trace == 0:
                for m in specs:
                    check(out["metrics"][m["name"]]["value"] > 0,
                          "%s %s is not positive" % (w["name"], m["name"]))
            print("ok  %-13s trace=%d  %s" % (w["name"], trace, lines[-2]))

    # Outside a checkout the benchmark must fail without printing a result.
    lone = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "smoke_lone")
    shutil.rmtree(lone, ignore_errors=True)
    os.makedirs(lone)
    shutil.copy("BENCHMARK.json", lone)
    shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run(bench["workloads"][0]["name"], 0, cwd=lone)
    check(p.returncode != 0 and '"metrics"' not in p.stdout,
          "a lone benchmark directory must fail without a result")
    shutil.rmtree(lone)
    print("ok  lone benchmark directory fails (exit %d)" % p.returncode)
    print("smoke test passed")


if __name__ == "__main__":
    main()

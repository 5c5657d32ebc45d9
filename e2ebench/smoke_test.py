#!/usr/bin/env python3
"""Tiny-scale test of the benchmark itself.

    python3 e2ebench/smoke_test.py

Runs every workload for two seconds on tiny chains (run.py --smoke), traced
and untraced, and checks the result line against BENCHMARK.json: the four
keys, correct outputs, and exactly the end_to_end or per_layer metric set.
Then checks that a directory holding only BENCHMARK.json and the benchmark
exits non-zero without printing a result. Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run(cwd, *args):
    return subprocess.run([sys.executable, "e2ebench/run.py"] + list(args),
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(spec, workload, trace):
    proc = run(REPO, "--workload", workload, "--seed", "7", "--seconds", "2",
               "--trace", str(trace), "--smoke")
    label = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        checks = [line for line in proc.stdout.splitlines()
                  if line.startswith("check FAILED")]
        return ["%s: exit %d\n%s\n%s" % (label, proc.returncode,
                                          "\n".join(checks),
                                          proc.stderr[-2000:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True:
        errors.append("%s: outputs not correct" % label)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (label, result.get("attempted")))
    if not isinstance(result.get("failed"), int):
        errors.append("%s: failed %r" % (label, result.get("failed")))
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(want):
        errors.append("%s: metric names differ: %s" % (
            label, sorted(set(metrics) ^ set(want))))
    for name, metric in metrics.items():
        if metric.get("unit") != want.get(name) or \
                not isinstance(metric.get("value"), (int, float)):
            errors.append("%s: bad metric %s=%r" % (label, name, metric))
    if not trace:
        for name in ("op_p50_ms", "ops_per_s", "setup_s", "peak_rss_mb"):
            if metrics.get(name, {}).get("value", 0) <= 0:
                errors.append("%s: %s is not positive" % (label, name))
    return errors


def check_bare_directory():
    """Without the SEBDB sources the benchmark must fail, not report."""
    bare = os.path.join(REPO, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "ingest", "--seed", "1", "--seconds",
                   "1", "--trace", "0")
        errors = []
        if proc.returncode == 0:
            errors.append("bare directory: exit code 0")
        if proc.stdout.strip():
            errors.append("bare directory printed: " + proc.stdout[-300:])
        return errors
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors += check_result(spec, workload, trace)
    errors += check_bare_directory()
    for error in errors:
        print("FAIL " + error)
    print("smoke test: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

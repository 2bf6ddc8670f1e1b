#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about a minute).

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * an untraced run emits exactly the end-to-end metrics, each with its
    declared unit and a finite value, and passes its audit;
  * a traced run does the same for the per-layer metrics;
  * a run whose audit expectation is deliberately corrupted
    (--corrupt-expectation) reports correct=false, no metrics, and a
    nonzero exit code.
Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", trace, "--tiny"]
    if corrupt:
        cmd.append("--corrupt-expectation")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def check_metrics(result, declared, errors, label):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (label, sorted(result)))
        return
    if not result["correct"] or result["attempted"] < 1:
        errors.append("%s: correct=%s attempted=%s" %
                      (label, result["correct"], result["attempted"]))
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(want) - set(metrics)):
        errors.append("%s: metric %s missing" % (label, name))
    for name in sorted(set(metrics) - set(want)):
        errors.append("%s: undeclared metric %s" % (label, name))
    for name, entry in metrics.items():
        if name in want and entry.get("unit") != want[name]:
            errors.append("%s: %s has unit %s, declared %s" %
                          (label, name, entry.get("unit"), want[name]))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s has value %r" % (label, name, value))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            label = "%s trace=%s" % (workload, trace)
            code, result, stderr = run(workload, trace)
            if code != 0 or result is None:
                errors.append("%s: exit %d, no result\n%s" %
                              (label, code, stderr[-2000:]))
                continue
            check_metrics(result, declared, errors, label)
        label = "%s corrupted" % workload
        code, result, _ = run(workload, "0", corrupt=True)
        if code == 0 or result is None or result["correct"] or result["metrics"]:
            errors.append("%s: the corrupted expectation did not trip the "
                          "audit (exit %d, result %s)" % (label, code, result))
        print("selftest: %s done" % workload, flush=True)
    for e in errors:
        print("selftest: FAIL " + e)
    print("selftest: %s" % ("PASS" if not errors else "%d failures" % len(errors)))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the system under test and runs one perfbench workload once.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count_lockstep_k4 --seed 1 \
        --seconds 10 --trace 0

The binaries are built from source into .bench_build/ (CMake, Release)
on the first run and brought up to date on every later one. The harness
then runs the workload, audits every repetition and prints, as the last
line of stdout, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of the traced run. perfbench/README.md describes the
workloads and metrics.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = (
    "count_lockstep_k4",
    "rank_lockstep_k4",
    "frequency_freerun_k3",
    "rank_online_k64_t3",
)
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(bench_dir):
    """Configures once, then builds the three binaries the harness needs."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
           "perfbench_harness", "disttrack_coordinator", "disttrack_site"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def commit_id(root):
    """The git commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "service", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a fraction of a second")
    parser.add_argument("--corrupt-expectation", action="store_true",
                        help="self-test: perturb one audit expectation")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    os.chdir(root)
    if not build(bench_dir):
        log("build failed")
        return 1
    workdir = os.path.join(BUILD_DIR, "run")
    os.makedirs(workdir, exist_ok=True)

    cmd = [os.path.join(BUILD_DIR, "perfbench_harness"),
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds,
           "--trace=" + args.trace,
           "--coordinator=" + os.path.join(BUILD_DIR, "disttrack",
                                           "disttrack_coordinator"),
           "--site=" + os.path.join(BUILD_DIR, "disttrack", "disttrack_site"),
           "--workdir=" + workdir,
           "--commit=" + commit_id(root)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_expectation:
        cmd.append("--corrupt-expectation")
    sys.stdout.flush()
    # Own process group, so a hung run can be stopped with its daemons.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness exceeded %d s; stopping it" % HARNESS_TIMEOUT_S)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())

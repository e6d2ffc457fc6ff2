#!/usr/bin/env python3
"""Builds and runs the csj benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload exp1-count --seed 27 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds the library and the benchmark from
source into .bench_build/ (Release). Each run generates its inputs from the
seed in a fresh directory under .bench_build/work/, which is removed
afterwards, and leaves its full report (provenance, per-cell samples, spans)
in .bench_build/results/. The last line of standard output is the result
object; build output goes to standard error.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("exp1-text", "exp1-count", "parallel-2t", "serve-mix")
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def describe():
    """git describe of the checkout, or a digest of its sources when the
    checkout is not a git repository."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty"],
                capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=27)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run(
            [binary, os.path.join(ROOT, "BENCHMARK.json")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("csj_perfbench")
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(BUILD_ROOT, "work", "%s-%d" % (tag, os.getpid()))
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", work, "--report", os.path.join(results, tag + ".json"),
             "--describe", describe()],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""The eXrQuy XMark benchmark: builds the stack from src/ and runs it.

  python3 perfbench/run.py --workload cold_adhoc --seed 1 --trace 0
  python3 perfbench/run.py                 # every workload, one after another
  python3 perfbench/run.py --selftest      # the benchmark's own tests

Run it from the root of a checkout. Everything it builds or writes goes
to .bench_build/ there. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit
code is non-zero when a result is wrong or the run fails. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(OUT, "cmake")
WORKLOADS = ["cold_adhoc", "warm_mix", "large_doc"]
RUN_TIMEOUT_S = 175
# The length of a timed or traced window; BENCHMARK.json's run_seconds,
# which is what the benchmark is always invoked with.
RUN_SECONDS = 30


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "session.h")):
        fail("the eXrQuy sources (src/) are missing from " + ROOT)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs,
                  "--target", "xmark_bench", "perfbench_selftest"])
    for step in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def git_commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def command(workload, seed, seconds, trace):
    return [os.path.join(CMAKE_DIR, "xmark_bench"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", os.path.join(OUT, "out"),
            "--cache-dir", os.path.join(OUT, "refcache"),
            "--git-commit", git_commit()]


def run(cmd, capture):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(cmd)))


def run_all(seed, seconds, trace):
    """Runs every workload and prints their metrics under one result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = run(command(workload, seed, seconds, trace), capture=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join("[%s] %s\n" % (workload, l) for l in lines))
        if not lines or not lines[-1].startswith("{"):
            fail("workload %s exited with code %d and no result"
                 % (workload, proc.returncode))
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            metrics[workload + "." + name] = metric
    for name, metric in metrics.items():
        print("%s = %r %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    if args.selftest:
        return run([os.path.join(CMAKE_DIR, "perfbench_selftest")],
                   capture=False).returncode
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    cmd = command(args.workload, args.seed, args.seconds, args.trace)
    return run(cmd, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())

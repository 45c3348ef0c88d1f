#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Builds the oic library and the perfbench program from the source tree next
to this directory (CMake, Release, into .bench_build/), runs one workload,
and prints its result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end metrics with --trace 0, per-layer metrics with --trace 1.  Build
output and progress go to stderr.  The full result, with provenance, is
written to .bench_build/work/results/.  See perfbench/NOTES.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("acc-sweep", "drl-campaign", "serve-open")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build perfbench; serialized by a lock file."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if os.path.exists(cache):
            key = "CMAKE_HOME_DIRECTORY:INTERNAL="
            with open(cache) as f:
                homes = [l[len(key):].strip() for l in f if l.startswith(key)]
            if not homes or os.path.realpath(homes[0]) != os.path.realpath(HERE):
                os.remove(cache)  # configured for another checkout
        if not os.path.exists(cache):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found next to perfbench/: run from a full checkout" % need, 2)
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work-dir", os.path.join(BUILD, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace)
    if set(result.get("metrics", {})) != want:
        fail("metric set differs from BENCHMARK.json: %s"
             % sorted(set(result.get("metrics", {})) ^ want))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

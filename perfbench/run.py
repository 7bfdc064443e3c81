#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark binary from source into .bench_build/perfbench
(perfbench/CMakeLists.txt compiles the program's libraries from src/ and
the sources in this directory), runs one workload in its own process and
prints the result JSON as the last line of standard output:

    python3 perfbench/run.py --workload flow|wami|fleet --seed N \
        --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics of BENCHMARK.json. It splits
--seconds over SUBRUNS processes, run one after another, and reports each
metric's median over them: part of a run's host time is fixed per process,
so one process is one sample of it. --trace 1 runs one process, reports the
per-layer metrics and writes the traced run's spans as Chrome-trace JSON to
.bench_build/perfbench/trace_<workload>.json, which `presp-trace summarize`
reads. METRICS.md documents every metric.

Exits non-zero without a result when the sources are missing, the build
fails, the build is a sanitizer build, or the workload's correctness
checks fail.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "presp_perfbench")
WORKLOADS = ("flow", "wami", "fleet")
SUBRUNS = 3
# The whole invocation must end within 180 s; the first one also builds.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "presp_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    started = time.monotonic()
    build()
    work = os.path.join(BUILD, "work", args.workload)
    os.makedirs(work, exist_ok=True)
    subruns = 1 if args.trace else SUBRUNS
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / subruns), "--trace",
           str(args.trace), "--work-dir", work]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace_%s.json" % args.workload)]

    results = []
    for _ in range(subruns):
        budget = max(10.0, RUN_TIMEOUT_S - (time.monotonic() - started))
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            fail("workload %s exceeded %.0f s" % (args.workload,
                                                  RUN_TIMEOUT_S))
        lines = proc.stdout.rstrip("\n").split("\n")
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0:
            print(lines[-1])
            fail("workload %s failed (exit %d)" % (args.workload,
                                                   proc.returncode))
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            fail("malformed result line")
        results.append((result, [l for l in lines if l.startswith("digest:")]))

    digests = {tuple(d) for _, d in results}
    if len(digests) != 1:
        fail("workload %s: processes of one seed printed different digests"
             % args.workload)
    first = results[0][0]
    print(json.dumps({
        "correct": all(r["correct"] for r, _ in results),
        "attempted": sum(r["attempted"] for r, _ in results),
        "failed": sum(r["failed"] for r, _ in results),
        "metrics": {
            name: {"value": statistics.median(
                       r["metrics"][name]["value"] for r, _ in results),
                   "unit": metric["unit"]}
            for name, metric in first["metrics"].items()},
    }))


if __name__ == "__main__":
    main()

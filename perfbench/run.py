#!/usr/bin/env python3
"""Builds and runs the mtdgrid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--workload NAME]

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from the checkout's own sources) into
.bench_build/ as a Release build; later calls only rebuild what changed.

stdout carries, in order: a "context" line (machine, pool size, build type,
load average, source revision), a "detail" line with every metric the
workload measured, and as the last line the result object
{"correct", "attempted", "failed", "metrics"} restricted to the metrics
BENCHMARK.json names: its end_to_end list with --trace 0, its per_layer list
with --trace 1. Build output and progress go to stderr.

--smoke runs every workload (or the one named) at tiny budgets with and
without tracing and checks that each metric BENCHMARK.json names is reported
with its unit; it measures nothing worth keeping.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_BIN = os.path.join(BUILD, "mtd_bench")
WORKLOADS = ("rekey_case57", "keying_case118", "serve_mix_case14")
BENCH_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at %s: run from the root of a full checkout"
             % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mtd_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    cache = open(os.path.join(BUILD, "CMakeCache.txt")).read()
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        fail("refusing to report: %s is not a Release build" % BUILD, 3)


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "data", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_bench(workload, seed, seconds, trace, smoke=False):
    cmd = [BENCH_BIN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, BENCH_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("mtd_bench exited with code %d" % proc.returncode)
    detail = json.loads(lines[-1])
    if detail["build_type"] != "Release" or not detail["ndebug"]:
        fail("refusing to report from a %s build" % detail["build_type"], 3)
    return detail


def result(detail, spec, trace):
    """The result line: the metrics BENCHMARK.json names."""
    group = "per_layer" if trace else "end_to_end"
    measured = detail[group]
    metrics = {}
    for m in spec[group]:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("%s did not report %s in %s" %
                 (detail["workload"], m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    finite = all(math.isfinite(v["value"]) for v in metrics.values())
    return {"correct": detail["failed"] == 0 and finite,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": metrics}


def context(detail):
    return {"nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "pool_threads": detail["pool_threads"],
            "client_threads": detail["client_threads"],
            "build_type": detail["build_type"],
            "loadavg": list(os.getloadavg()),
            "commit": source_revision()}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def smoke(spec, workloads):
    for workload in workloads:
        for trace in (0, 1):
            detail = run_bench(workload, 1, 1, trace, smoke=True)
            out = result(detail, spec, trace)
            if not out["correct"]:
                fail("smoke %s --trace %d: %d of %d operations failed" %
                     (workload, trace, out["failed"], out["attempted"]))
            print(json.dumps({"smoke": workload, "trace": trace,
                              "metrics": sorted(out["metrics"])}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    build()
    if args.smoke:
        smoke(spec, [args.workload] if args.workload else WORKLOADS)
        return
    detail = run_bench(args.workload, args.seed, args.seconds, args.trace)
    out = result(detail, spec, args.trace)
    print(json.dumps({"context": context(detail)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()

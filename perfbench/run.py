#!/usr/bin/env python3
"""Kelpie repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train|explain|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the library sources under
src/ plus the benchmark binaries) into .bench_build/perfbench; later calls
rebuild incrementally. A workload run prints notes, then as its last line one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. `--workload all` runs the three workloads in turn and
prints each one's notes and result line. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
TRACES_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("train", "explain", "serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark binaries."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no kelpie sources at %s; run from a repository checkout"
             % os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                      "perfbench", "perfbench_selftest"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed; see " + log_path)


def load_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_digest(workload, seed, seconds):
    """The output digest kept for (workload, seed, seconds), if any."""
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    if seed != digests["seed"] or seconds != digests["seconds"]:
        return None
    return digests["digests"].get(workload)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (notes, result) with result the parsed
    last line."""
    work_dir = os.path.join(RUNS_DIR, "%s-%d-%d" % (workload, seed,
                                                    os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--work-dir", work_dir]
    digest = None if trace else expected_digest(workload, seed, seconds)
    if digest:
        command += ["--expect-digest", digest]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        if trace and os.path.isfile(os.path.join(work_dir, "trace.json")):
            os.makedirs(TRACES_DIR, exist_ok=True)
            shutil.move(os.path.join(work_dir, "trace.json"),
                        os.path.join(TRACES_DIR, "%s-seed%d.json"
                                     % (workload, seed)))
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail("%s run exited with %d" % (workload, done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s run printed nothing" % workload)
    return lines[:-1], json.loads(lines[-1])


def check_result(result, spec, trace):
    """The result line has exactly the metrics BENCHMARK.json lists."""
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in expected]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(names):
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(set(metrics) ^ set(names)))
    for m in expected:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail("metric %s: %r" % (m["name"], got))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(result))


def run_checked(workload, seed, seconds, trace, spec):
    """Runs one workload, checks its result line and prints it with its
    notes."""
    notes, result = run_workload(workload, seed, seconds, trace)
    check_result(result, spec, trace)
    for note in notes:
        print(note)
    sys.stdout.flush()
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    build()
    if args.selftest:
        done = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S)
        sys.exit(done.returncode)

    spec = load_benchmark_json()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if len(workloads) > 1:
            print("# workload " + workload)
        run_checked(workload, args.seed, seconds, args.trace == 1, spec)


if __name__ == "__main__":
    main()

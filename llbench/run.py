#!/usr/bin/env python3
"""Build the llio benchmark program and run one workload.

    python3 llbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an llio source tree.  The llbench program is built (Release)
from llbench/CMakeLists.txt, which pulls in the library sources one
directory up, into $CARGO_TARGET_DIR/llbench (default .bench_build/llbench).
The first run builds; later runs only check that the build is current.

--trace 0 runs the workload in 3 fresh processes for a third of the
seconds each, and prints each end-to-end metric as the best of the three
(the direction comes from BENCHMARK.json).  On a shared host a process
can stay in a slow state for its whole life (allocator state, a noisy
neighbour), and slowness is all that noise adds; with one process per
run, runs of the same code disagreed by up to 17% on p50.
--trace 1 runs it twice, each in its own process: untraced for half the
seconds, then traced for the other half, and prints the per-layer metrics
with the tracing overhead measured against the untraced run.  The trace
itself is written to <build dir>/trace-<workload>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Build and run problems exit non-zero
without printing one.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("coll-fine", "coll-fine-list", "tiles-ckpt", "indep-psrv")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 50
PROCESSES = 3


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build llbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no llio sources under {ROOT}")
    top = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, top, "llbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A tree configured from another checkout cannot be reused.
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "llbench",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir, os.path.join(build_dir, "llbench")


def run_llbench(exe, args, seconds, trace, extra=()):
    """Run llbench once; returns its parsed result line."""
    # The library reads LLIO_* variables (tracing, metrics, sampling);
    # none of them may leak into a measured run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LLIO_")}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace), *extra]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} timed out")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"{args.workload} exited with {r.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(r.stdout)
        fail("llbench printed no result line")
    print("\n".join(lines[:-1]))
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir, exe = build()
    if args.trace == 0:
        runs = [run_llbench(exe, args, args.seconds / PROCESSES, 0)
                for _ in range(PROCESSES)]
        best = {m["name"]: min if m["better"] == "lower" else max
                for m in spec["end_to_end"]}
        result = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                name: {"value": best.get(name, min)(
                           r["metrics"][name]["value"] for r in runs),
                       "unit": m["unit"]}
                for name, m in runs[0]["metrics"].items()},
        }
        want = "end_to_end"
    else:
        half = args.seconds / 2
        base = run_llbench(exe, args, half, 0)
        m = base["metrics"]
        untraced_ms = m["write_p50_ms"]["value"] + m["read_p50_ms"]["value"]
        trace_file = os.path.join(build_dir, f"trace-{args.workload}.json")
        result = run_llbench(exe, args, half, 1,
                             ["--trace-file", trace_file,
                              "--untraced-ms", repr(untraced_ms)])
        result["correct"] = result["correct"] and base["correct"]
        result["attempted"] += base["attempted"]
        result["failed"] += base["failed"]
        want = "per_layer"

    # The metric names must be exactly those BENCHMARK.json declares.
    declared = [m["name"] for m in spec[want]]
    if sorted(declared) != sorted(result["metrics"]):
        fail(f"metrics differ from BENCHMARK.json {want}: "
             f"{sorted(set(declared) ^ set(result['metrics']))}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

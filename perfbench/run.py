#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload fleet_detnet --seed 1 --seconds 10 --trace 0

Builds perfbench (and the rrp libraries it links) into .bench_build/cmake,
provisions the lenet and detnet artifacts into .bench_build/cache when they
are missing (a one-off warm-up that trains; never part of a timed run), then
runs one benchmark process with a single-thread pool.  The process's log goes
to standard error; the last line of standard output is the result JSON.

    python3 perfbench/run.py --warm-up     # build + provision only
"""
import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
CACHE_DIR = os.path.join(BUILD_ROOT, "cache")
BINARY = os.path.join(BUILD_DIR, "perfbench_run")
WORKLOADS = ("fleet_detnet", "fleet_lenet_overload", "campaign_faults")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"error: {msg}")
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    """Runs cmd with its output in log_path; on failure shows the tail."""
    with open(log_path, "w") as out:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-30:]))
        fail(f"{' '.join(cmd[:3])} … failed (log: {log_path})")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rrp sources next to perfbench (src/CMakeLists.txt missing)", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(BUILD_ROOT, "configure.log"), 600)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "perfbench_run",
                "-j", jobs],
               os.path.join(BUILD_ROOT, "build.log"), 900)


def warm_up():
    """Provisions the artifacts unless every one is already cached."""
    check = subprocess.run([BINARY, "--check-artifacts", "--cache", CACHE_DIR],
                           cwd=ROOT, timeout=60)
    if check.returncode == 0:
        return
    if check.returncode != 3:
        fail("artifact check failed")
    log("provisioning lenet and detnet (one-off warm-up, trains)")
    run_logged([BINARY, "--warm-up", "--cache", CACHE_DIR],
               os.path.join(BUILD_ROOT, "warm_up.log"), 900)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_benchmark(args):
    env = dict(os.environ, RRP_THREADS="1")
    cmd = [BINARY, "--workload", args.workload,
           "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cache", CACHE_DIR]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark process exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has unexpected keys")
    names = list(result["metrics"])
    if names != expected_metrics(args.trace):
        fail("emitted metrics differ from BENCHMARK.json")
    if not result["correct"]:
        fail("outputs are not correct")
    print(json.dumps(result), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--warm-up", action="store_true",
                    help="build and provision the artifacts, then exit")
    args = ap.parse_args()
    if not args.warm_up and args.workload is None:
        ap.error("--workload is required")

    t0 = time.monotonic()
    build()
    warm_up()
    if args.warm_up:
        log(f"ready ({time.monotonic() - t0:.1f} s)")
        return
    run_benchmark(args)


if __name__ == "__main__":
    try:
        main()
    except subprocess.TimeoutExpired as e:
        fail(f"timed out: {' '.join(e.cmd[:3])} …")

#!/usr/bin/env python3
"""Build and run the layered LDS benchmark (perfbench/).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first call configures and builds the
store library and lds_perfbench from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild incrementally.  The
last stdout line of lds_perfbench is the JSON result; the exit code is
non-zero on a build failure or any verification failure.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["edge-small", "backend-large", "hot-write", "durable-write"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build; returns the lds_perfbench path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    exe = os.path.join(build_dir, "lds_perfbench")
    return exe if os.path.isfile(exe) else None


def run_one(exe, work_root, workload, args):
    work_dir = os.path.join(work_root, "perfbench-work-%d" % os.getpid())
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 3


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    exe = build(os.path.join(target, "perfbench"))
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        status = run_one(exe, target, workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repository benchmark: build, generate the seeded input, measure.

    python3 perfbench/run.py --workload coreness-ranks --seed 7 \
        --seconds 20 --trace 0

Run from the root of a checkout. The first call builds the kcore library
and the measuring program (perfbench/src) into .bench_build/ with CMake;
later calls only re-check the build. Each call then writes the
workload's input graph for --seed in its own work directory, runs the
measurement in a separate process, and removes the input again. The
last line of standard output is the one-line JSON result; build logs go
to standard error. With --trace 1 the Chrome trace of the traced
repetitions is left in .bench_build/traces/.

Exit status: 0 when every output check passed, 1 when one failed (the
result line then says "correct": false), 2 when the program cannot be
built or run (no result line).
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"  # relative to ROOT; keeps socket paths short
WORKLOADS = ("coreness-ranks", "densest-p2p", "server-churn")
TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns the program's path or None."""
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    cmake_dir = os.path.join(BUILD, "cmake")
    if not os.path.exists(os.path.join(ROOT, cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
            shutil.rmtree(os.path.join(ROOT, cmake_dir), ignore_errors=True)
            return None
    cmd = ["cmake", "--build", cmake_dir, "-j", "3"]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode:
        return None
    return os.path.join(cmake_dir, "kcore_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    prog = build()
    if prog is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work = os.path.join(BUILD, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(os.path.join(ROOT, work), exist_ok=True)
    os.makedirs(os.path.join(ROOT, traces), exist_ok=True)
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--dir={work}"]
    deadline = time.monotonic() + TIMEOUT_S
    try:
        gen = subprocess.run([prog, "gen"] + common, cwd=ROOT,
                             stdout=sys.stderr, timeout=TIMEOUT_S)
        if gen.returncode:
            return 2
        trace_file = os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")
        run = subprocess.run(
            [prog, "run"] + common +
            [f"--seconds={args.seconds}", f"--trace={args.trace}",
             f"--trace-file={trace_file}"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: measurement timed out", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

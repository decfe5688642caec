#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the cps library and the benchmark from source (CMake, Release)
into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), then runs
one workload and relays its result:

    python3 e2ebench/run.py --workload alloc_tail --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --selftest

Run from the repository root.  The last line of standard output is the
JSON result of the workload; diagnostics go to standard error.  The exit
code is non-zero when the build fails, an output check fails or the
workload does not finish in time.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_LIMIT_S = 170


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no library sources under src/ next to the benchmark")
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(build_root, "e2ebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "--target", target, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, target)


def main(argv):
    if argv == ["--selftest"]:
        return subprocess.run([build("e2e_selftest")]).returncode
    binary = build("cps_e2e")
    # Relative to the repository root: keeps the daemon's Unix socket path
    # short wherever the checkout lives.
    work_dir = ".e2ebench_work"
    try:
        done = subprocess.run([binary, "--work-dir", work_dir] + argv, cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
        sys.exit("e2ebench: workload did not finish within %d s" % TIME_LIMIT_S)
    sys.stdout.write(done.stdout.decode())
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

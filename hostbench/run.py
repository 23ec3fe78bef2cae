#!/usr/bin/env python3
"""Build and run hostbench, the host-cost benchmark (see README.md).

    python3 hostbench/run.py --workload sim_8B --seed 1 --seconds 20 --trace 0
    python3 hostbench/run.py --selftest

Run from the root of a checkout. The benchmark and the library under
../src are compiled (Release) into $CARGO_TARGET_DIR/hostbench, default
.bench_build/hostbench; later runs rebuild only what changed. The last line
of standard output is the result JSON printed by the benchmark binary.
With --trace 1 the spans are also written as a chrome://tracing file to
<build dir>/traces/<workload>.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim_8B", "sim_1MB_striped", "tcp_pingpong", "sim_8B_threaded")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("hostbench: library sources (../src) not found next to the benchmark")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the analysis self-tests only")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "hostbench"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"hostbench: build failed: {err}")

    if args.selftest:
        return subprocess.run([os.path.join(build_dir, "hostbench_selftest")]).returncode

    cmd = [os.path.join(build_dir, "hostbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"hostbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

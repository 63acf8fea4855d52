#!/usr/bin/env python3
"""Build bench_e2e from source if needed, then run one workload.

    python3 bench_e2e/run.py --workload dacsdc_fp32 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The first call configures and builds
bench_e2e/ (which compiles ../src) with CMake in Release under
.bench_build/e2e; later calls rebuild only when a source or CMake file is
newer than the binary.  --trace 1 runs the traced pass and writes its Chrome
trace to .bench_build/traces/.  Every other argument (--seconds S,
--json PATH) goes to the binary unchanged.  The binary prints one
`name value unit` line per metric and, as the last line, the JSON result;
its exit status is ours.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
SOURCES = ("src", "bench_e2e")
BUILD_INPUTS = (".cpp", ".hpp", ".h", ".txt")  # sources and CMakeLists.txt
RUN_TIMEOUT_S = 170


def newest_source_mtime():
    newest = 0.0
    for top in SOURCES:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(BUILD_INPUTS):
                    newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no skynet sources (src/CMakeLists.txt) next to bench_e2e/")
    if os.path.isfile(BINARY) and os.path.getmtime(BINARY) >= newest_source_mtime():
        return
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "bench_e2e"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace",
                os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        # run() kills and reaps the child if it overruns.
        return subprocess.run(cmd + passthrough, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: bench_e2e did not finish within %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())

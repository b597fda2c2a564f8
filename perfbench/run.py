#!/usr/bin/env python3
"""Builds and runs the zpm end-to-end benchmark for one workload and seed.

    python3 perfbench/run.py --workload <campus-tap|meeting-dense|query-mix>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--spans <file>]

Run from the repository root. The benchmark binary is built from source
(perfbench/CMakeLists.txt plus ../src) into the directory named by
CARGO_TARGET_DIR, default .bench_build. Every file a run writes lives in a
fresh directory under <build dir>/runs that is removed when the run ends.
All build output goes to stderr; the last line on stdout is the result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    binary_dir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", binary_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", binary_dir, "--target", "zpm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(binary_dir, "zpm_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 1
    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    if args.spans:
        cmd += ["--spans", os.path.abspath(args.spans)]
    # A terminated run still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

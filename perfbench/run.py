#!/usr/bin/env python3
"""Builds the PAST benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <web-trace|durable-files|scale-churn>
                             --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --selfcheck

Run from the repository root. The build goes to perfbench/ under
$CARGO_TARGET_DIR (default .bench_build), configured from
perfbench/CMakeLists.txt over the repository's src/ library targets. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero, without a result, when the build fails (for instance
when src/ is missing).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "past_perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(build_dir, "past_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    if shutil.which("cmake") is None:
        print("error: cmake not found", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("error: benchmark build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())

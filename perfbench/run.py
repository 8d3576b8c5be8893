#!/usr/bin/env python3
"""Builds the end-to-end INS benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload anycast|resolve|churn --seed N \
        --seconds T --trace 0|1

Configures and builds perfbench/ (which compiles libins from src/) in
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs the benchmark binary with the same arguments. Build output goes to
stderr; the binary's report goes to stdout and ends with one JSON line. On a
failed build or run the script exits non-zero and prints no result line.
Traced runs also write their spans to <build dir>/traces/.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(build_dir):
    source = os.path.join(ROOT, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=600)
    subprocess.run(["cmake", "--build", build_dir, "--target", "ins_e2e_bench", "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=840)
    return os.path.join(build_dir, "ins_e2e_bench")


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ, PERFBENCH_TRACE_DIR=trace_dir)
    try:
        run = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE, text=True, env=env,
                             timeout=170)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = run.returncode == 0 and isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(run.stdout)
        print(f"benchmark failed (exit code {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout's sources and runs it.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload paper_campaign|sharded_fleet|hybrid_fleet \
        --seed N --seconds S --trace 0|1

`--workload all` runs every workload BENCHMARK.json lists, one after the
other, each with its own checks, and prints one result line per workload.
It exits non-zero if any workload exits non-zero or reports
`"correct": false`.

The first call configures and builds a Release tree under .bench_build/
(the emptcp library from src/ plus the harness in perfbench/src/); later
calls only rebuild what changed. Build output goes to standard error, so
the harness's result stays the last line of standard output. The harness's
scratch files live under .bench_build/ and are removed after the run.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources at src/; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def run(binary, args, capture=False):
    """Runs the harness once; returns its exit code and, when `capture` is
    set, its standard output (which is still passed through)."""
    out = ROOT / ".bench_build" / f"perfbench-out-{os.getpid()}"
    try:
        proc = subprocess.run([str(binary), *args, "--out", str(out)],
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if capture:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, proc.stdout


def correct(stdout):
    """Whether the result on the last line of a harness run reads correct."""
    lines = (stdout or "").strip().splitlines()
    try:
        return json.loads(lines[-1])["correct"] is True
    except (IndexError, ValueError, KeyError, TypeError):
        return False


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at:at + 1] != ["all"]:
        return run(binary, args)[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for w in spec["workloads"]:
        code, stdout = run(binary, args[:at] + [w["name"]] + args[at + 1:],
                           capture=True)
        if code != 0 or not correct(stdout):
            print(f"perfbench: {w['name']} failed", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the campaign-runner benchmark.

    python3 perfbench/run.py --workload fig1|fig4|store --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It builds the onebit library and the
benchmark program (perfbench.cpp) with CMake into the build directory named
by CARGO_TARGET_DIR (default .bench_build, relative to the repository root),
then runs the program. Build output goes to stderr; the last line on stdout
is the program's JSON result. Exits non-zero, printing no result, when the
repository sources are missing or the build or run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base


def configured_source(cache):
    prefix = "CMAKE_HOME_DIRECTORY:INTERNAL="
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(prefix):
            return Path(line[len(prefix):]).resolve()
    return None


def build(out):
    """Configure (once) and build the perfbench target; returns the binary."""
    cache = out / "CMakeCache.txt"
    if cache.is_file() and configured_source(cache) != HERE:
        shutil.rmtree(out)  # configured for another source tree
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd)} exited {done.returncode}")
    return out / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fig1", "fig4", "store"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no onebit sources (CMakeLists.txt, src/) in {ROOT}")

    out = build_dir()
    binary = build(out)
    scratch = out / f"run-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scratch", str(scratch)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run failed: {e}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"benchmark exited {done.returncode} without a result")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the emulator from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first call configures and builds
perfbench/ (a Release build of the library sources plus the measuring
binary) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only let the build check that nothing changed. Build output goes
to standard error. The measuring binary writes per-run details and span files
under .bench_out/. The last line of standard output is the run's JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lb-profile-threaded", "paper-teragrid-scalapack", "hier-300k-cbr")
# A measured run is set-up plus --seconds of rounds plus one round's overrun;
# nothing the benchmark does legitimately takes this long.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    """Configure once, then build; returns the binary path or None."""
    os.makedirs(directory, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(directory, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        generated = ("build.ninja", "Makefile")
        if not any(os.path.exists(os.path.join(directory, g)) for g in generated):
            configure = ["cmake", "-S", HERE, "-B", directory,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", directory, "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                print(f"perfbench: build step failed: {error}", file=sys.stderr)
                return None
            if done.returncode != 0:
                print(f"perfbench: build step {' '.join(step)} exited with "
                      f"{done.returncode}", file=sys.stderr)
                return None
    binary = os.path.join(directory, "perfbench")
    return binary if os.path.exists(binary) else None


def valid_result(result):
    if not isinstance(result, dict):
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        return False
    return result["attempted"] >= 1 and isinstance(result["metrics"], dict)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    binary = build(build_dir())
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        # The binary writes its details under .bench_out/ of its working
        # directory, the checkout's root.
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if done.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited with {done.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not valid_result(result):
        print(f"perfbench: malformed result line: {lines[-1]!r}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

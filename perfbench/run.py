#!/usr/bin/env python3
"""The repository benchmark: builds the Spire library and the perfbench
runner from source, runs one workload and prints its result.

  python3 perfbench/run.py --workload cost-report --seed 1 --seconds 30 \\
      --trace 0

Run it from the repository root. Workloads: cost-report, compile-emit,
circuit-in (perfbench/README.md says what each measures), or `all`,
which runs each workload untraced and traced in fresh processes and
prints every metric. The build goes to .bench_build/perfbench; inputs,
artifacts and traces to .bench_build/perfbench-work, which every run
empties again. The last stdout line of a single-workload run is the
JSON result; a trace run also checks its trace with
tools/validate_trace.py. Exits non-zero, without a result, when the
source tree or the build is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
RUNNER = os.path.join(BUILD, "perfbench")
EXPECTED = os.path.join(HERE, "expected.txt")
VALIDATOR = os.path.join(ROOT, "tools", "validate_trace.py")
WORKLOADS = ["cost-report", "compile-emit", "circuit-in"]
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no Spire source tree next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True, timeout=600)


def run_workload(workload, seed, seconds, trace):
    """Runs the runner in a fresh process; returns (stdout lines, result).

    Pending write-back and the discards of freed blocks are flushed with
    sync before the run and after its files are deleted, so neither the
    build nor an earlier run does disk work inside a measured pass.
    """
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.sync()
    trace_file = os.path.join(WORK, "trace.json")
    cmd = [RUNNER, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK, "--expected", EXPECTED]
    if trace:
        cmd += ["--trace-out", trace_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: runner exited {proc.returncode}")
        result = json.loads(lines[-1])
        if trace:
            check = subprocess.run(
                [sys.executable, VALIDATOR, "--trace", trace_file,
                 "--require-span", "request"],
                stdout=sys.stderr, timeout=120)
            if check.returncode != 0:
                result["correct"] = False
        return lines[:-1], result
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        os.sync()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    if args.workload != "all":
        lines, result = run_workload(args.workload, args.seed, args.seconds,
                                     args.trace)
        print("\n".join(lines))
        print(json.dumps(result))
        return 0
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_workload(workload, args.seed, args.seconds,
                                         trace)
            print("\n".join(lines))
            print(f"  correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}\n")
            correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

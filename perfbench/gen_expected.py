#!/usr/bin/env python3
"""Regenerates perfbench/expected.txt, the values every benchmark output
is checked against:

  python3 perfbench/gen_expected.py

Builds the runner like perfbench/run.py, then runs `perfbench expect`:
cost-report figures come from gate counts of the compiled circuits
(never from the cost model); every artifact and generated input is
recorded by the runner's own line scan (bytes, gates, T-complexity,
content hash). Takes a few minutes and about 2 GB of memory. Only
regenerate when a change is meant to alter the outputs, and say so.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the shared build step)


def main():
    run.build()
    work = os.path.join(run.ROOT, ".bench_build", "perfbench-expect")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        subprocess.run([run.RUNNER, "expect", "--work-dir", work,
                        "--out", run.EXPECTED], check=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the test suite once under each OpenBLAS kernel numpy's OpenBLAS ships.

OpenBLAS picks its sgemm kernels by CPU; `OPENBLAS_CORETYPE` forces one.
The engine's bits are pinned where sgemm rounds a row alike whatever the
product's shape, as the SkylakeX kernels do, so a change that cuts
products differently can pass on one kernel and fail on another.  This
runs the suite under SkylakeX, Haswell, Nehalem and Prescott, one after
another, each in a child process, and prints the passed and failed
counts and the failing test ids of each.  Some counts depend on the BLAS
thread count too, so each child runs one OpenBLAS thread unless the
caller sets `OPENBLAS_NUM_THREADS`, and each line names the count:

    python3 scripts/coretype_tier1.py
    python3 scripts/coretype_tier1.py --kernels Haswell -- tests/test_autodiff.py
    OPENBLAS_NUM_THREADS=2 python3 scripts/coretype_tier1.py

Arguments after `--` go to pytest in place of the whole suite.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "Nehalem", "Prescott")
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS", "1")


def run(kernel: str, tests: list[str]) -> tuple[dict[str, int], list[str]]:
    """The outcome counts and failing test ids of one pytest run under kernel."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    lines = child.stdout.splitlines()
    failing = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    counts = {}
    if lines:
        counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", lines[-1])}
    if not counts:
        sys.stderr.write(child.stdout[-2000:] + child.stderr[-2000:])
    return counts, failing


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernels", nargs="+", default=list(KERNELS),
                        help="OPENBLAS_CORETYPE values to run (default: %(default)s)")
    parser.add_argument("tests", nargs="*", help="pytest arguments (default: the whole suite)")
    args = parser.parse_args()
    for kernel in args.kernels:
        counts, failing = run(kernel, args.tests)
        errors = counts.get("error", 0) + counts.get("errors", 0)
        print(f"{kernel}, OPENBLAS_NUM_THREADS={BLAS_THREADS}: {counts.get('passed', 0)} passed, "
              f"{counts.get('failed', 0)} failed"
              + (f", {errors} errors" if errors else ""), flush=True)
        for test in failing:
            print(f"  {test}", flush=True)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Seeded benchmark of the c2f codec and its training loop.

One workload, in this process:

    python3 perfbench/run.py --workload zoo-rd-64 --seed 1 --seconds 40 --trace 0

prints a human-readable summary on stderr and, as the last line of
stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  The line before it is {"detail": ...}: the machine, every
named metric of the workload and, when traced, per-layer seconds.

Every workload, each in its own process, untraced and then traced:

    python3 perfbench/run.py [--seed 1] [--seconds 40] [--out bench.json]

prints each workload's summary, the tracing overhead (traced minus
untraced median operation time) and, with --out, writes every result to
a JSON file.

The benchmark imports c2f from src/ of the checkout it sits in and runs
BLAS single-threaded unless OPENBLAS_NUM_THREADS / OMP_NUM_THREADS are
set.  Exit code 0 means every run produced a result (check "correct");
2 means no result could be produced.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("zoo-rd-64", "kodak-n128", "train-n32")
CHILD_TIMEOUT_S = 600


def blas_threads() -> int | None:
    """Threads OpenBLAS actually uses, asked of the library numpy loaded."""
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or "unknown"


def source_digest() -> str:
    """sha-256 over src/c2f/*.py, naming the code under test without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "c2f").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def _number(value) -> float:
    return value if isinstance(value, (int, float)) and math.isfinite(value) else 0.0


def run_one(args) -> int:
    import report
    from workloads import run_workload

    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = machine_info(args.seed)
    err = sys.stderr
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", file=err)
    print("  machine: " + " ".join(f"{k}={v}" for k, v in info.items()), file=err)
    print("\n".join(report.summary(run, rss_mb)), file=err)
    for text in run.errors:
        print("  failure:\n" + text, file=err)

    if args.trace:
        print("\n".join(report.layer_table(run)), file=err)
        values, units = report.per_layer(run), report.PER_LAYER
    else:
        values, units = report.end_to_end(run, rss_mb), report.END_TO_END
    named = report.named_metrics(run, rss_mb)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()}}
    if args.trace:
        detail["layer_seconds_p50"] = report.layer_seconds(run)
    correct = (run.failed == 0 and run.attempted > 0
               and all(math.isfinite(v) for v in values.values()))
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": {k: {"value": _number(values[k]), "unit": units[k]}
                                  for k in units}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: no result (exit {proc.returncode})",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            result.update(json.loads(lines[-2]))
            results[workload, trace] = result
            status |= 0 if result["correct"] else 1

    print("\nworkload     metric                  value          unit")
    for workload in WORKLOADS:
        plain, traced = results.get((workload, 0)), results.get((workload, 1))
        if plain is not None:
            for name, m in plain["detail"]["metrics"].items():
                value = "n/a (<10 beyond)" if m["value"] is None else f"{m['value']:.6g}"
                print(f"{workload:12s} {name:22s} {value:>14s} {m['unit']}")
        if plain is not None and traced is not None:
            untraced_op = plain["metrics"]["op_s_p50"]["value"]
            traced_op = traced["metrics"]["traced_op_s_p50"]["value"]
            # one pair of runs: drift of the machine between them shows here too
            print(f"{workload:12s} {'trace_overhead_s':22s} {traced_op - untraced_op:14.6g} s "
                  f"(traced {traced_op:.6g} - untraced {untraced_op:.6g} median op)")
    if args.out:
        Path(args.out).write_text(json.dumps(list(results.values()), indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload here; default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write all results as JSON here (all-workloads mode)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "c2f" / "__init__.py").is_file():
        print(f"perfbench: no c2f sources under {ROOT / 'src'}; run from a c2f checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return run_one(args) if args.workload else run_all(args)
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

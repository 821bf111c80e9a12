"""Benchmark of rqmc-median: one process per workload, BLAS pinned to one thread.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The program is imported from ./src, which
this script byte-compiles first, so set-up timings never include
compilation.  With --workload the last line of standard output is that
workload's JSON result; without it the three workloads run one after
another and the last line combines their results, metrics named
"<workload>/<metric>".  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("hist-small-m", "conv-large-m", "accept")
CHILD_TIMEOUT_S = 170

# a second BLAS or OpenMP thread spins in the small float products of the
# linear scramblers, doubling CPU time without saving wall time
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED_ENV},
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rqmc_median" / "__init__.py").is_file():
        print(f"error: no rqmc_median sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", BENCH):
        if not compileall.compile_dir(str(path), quiet=1):
            print(f"error: byte-compiling {path} failed", file=sys.stderr)
            return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        if res is None:
            return 1
        results[name] = res
        if len(names) > 1:
            print(name, json.dumps(res), flush=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": v for name, r in results.items()
                        for metric, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload in this process and print one JSON result line.

Started by run.py with BLAS and OpenMP pinned to one thread.  The process
runs whole rounds of the workload's CLI calls, each after two timed
set-ups, until --seconds have passed, checks every round's outputs, and
prints {"correct", "attempted", "failed", "metrics"} as its last line.  With
--trace 1 it runs untraced rounds for the first half of the time and traced
rounds for the second, and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PER_ROUND = 2  # set-ups timed before each round; their median is reported
WARM_SEED = 1

sys.path.insert(0, str(SRC))
# numpy is imported before any set-up timing: its import cost is a dependency's,
# and no change to rqmc_median moves it
import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import PER_LAYER, LayerTotals, Tracer  # noqa: E402

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
              ("replicates_per_s", "1/s"), ("peak_rss_mib", "MiB"))


@dataclass(frozen=True)
class Workload:
    """What one round runs, what set-up warms, and how outputs are checked.

    check_round runs the arithmetic checks on one round's outputs and adds
    its samples to the run's pool; check_pool runs the statistical checks on
    the samples of every round, so their power grows with the run.
    """

    argvs: Callable[[int, Path], list[list[str]]]  # (round seed, out dir) -> CLI calls
    warm_cells: tuple[tuple[str, str, int, int], ...]  # (scrambler, integrand, base, m)
    ops_per_round: int
    replicates_per_round: int
    check_round: Callable  # (calls, out dir, pick rng, pool) -> (failed ops, errors)
    check_pool: Callable  # (pool) -> errors


def _no_pool_checks(pool) -> list[str]:
    return []


# -- hist-small-m: the grid of scripts/run_histograms.py at reduced repetitions

HIST_KINDS, HIST_FNAMES, HIST_MS = ("nested", "matousek"), ("f1", "f2"), (4, 6)
HIST_REPS = {1: 400, 15: 60}
HIST_CELLS = len(HIST_KINDS) * len(HIST_FNAMES) * len(HIST_MS)


def hist_argvs(seed: int, out: Path) -> list[list[str]]:
    return [["histogram", "--scramblers", ",".join(HIST_KINDS), "--integrands",
             ",".join(HIST_FNAMES), "--m", ",".join(map(str, HIST_MS)), "--r", str(r),
             "--reps", str(reps), "--seed", str(seed), "--out", str(out)]
            for r, reps in HIST_REPS.items()]


def regenerate(scrambler: str, integrand: str, base: int, m: int, r: int, seed: int) -> str:
    """The value text the program writes for one repetition with this batch seed."""
    pkg = sys.modules["rqmc_median"]
    spec = pkg.ScramblerSpec(scrambler, base=base)
    batch = pkg.replicate_batch(pkg.builtin(integrand), spec, m, r, seed)
    return f"{pkg.median_estimator(batch):.17g}"


def hist_check_round(calls, out: Path, rng, pool: dict) -> tuple[int, list[str]]:
    """Per cell file: arithmetic checks and two regenerated rows.  Pools the
    r = 1 estimates and the rescaled r > 1 medians by cell."""
    failed, errs = 0, []
    for (_, code, _), (r, reps) in zip(calls, HIST_REPS.items()):
        for kind in HIST_KINDS:
            for fname in HIST_FNAMES:
                for m in HIST_MS:
                    path = out / f"hist_{kind}_{fname}_m{m}_r{r}.csv"
                    if code != 0 or not path.is_file():
                        failed += 1
                        continue
                    header, rows = checks.read_csv(path)
                    cell_errs = checks.check_hist_cell(rows, header, kind, fname, m, r, reps)
                    if not cell_errs:
                        picks = [0, int(rng.integers(1, reps))]
                        cell_errs = checks.check_regenerated(rows["raw"], picks, regenerate)
                    errs += cell_errs
                    if not cell_errs:
                        raw = rows["raw"]
                        pool.setdefault((kind, fname, m, r), []).append(
                            raw.value if r == 1 else raw.rescaled)
    return failed, errs


def hist_check_pool(pool: dict) -> list[str]:
    errs = []
    cells = {key: np.concatenate(v) for key, v in pool.items()}
    for (kind, fname, m, r), values in cells.items():
        if r == 1:
            errs += checks.check_single_variance(values, fname, 2**m, f"{kind}/{fname}/m{m}/r1")
    r = max(HIST_REPS)
    nested = [(cells[("nested", f, m, r)], f, 2**m) for f in HIST_FNAMES for m in HIST_MS
              if ("nested", f, m, r) in cells]
    if nested:
        errs += checks.check_nested_median_law(nested, r, checks.median_normal_variance(r))
    for fname in HIST_FNAMES:
        for m in HIST_MS:
            lin, nes = cells.get(("matousek", fname, m, r)), cells.get(("nested", fname, m, r))
            if lin is not None and nes is not None:
                errs += checks.check_linear_below_nested(lin, nes, f"{fname}/m{m}/r{r}")
    return errs


# -- conv-large-m: the convergence sweep, m = 4..12, one outer repetition per
# round; the rounds of a run supply the outer repetitions of the slope checks

CONV_KINDS, CONV_FNAMES, CONV_MS = ("nested", "matousek"), ("f1", "f2"), tuple(range(4, 13))
CONV_R, CONV_REPS = 101, 1
CONV_CELLS = len(CONV_KINDS) * len(CONV_FNAMES) * len(CONV_MS)


def conv_argvs(seed: int, out: Path) -> list[list[str]]:
    return [["convergence", "--scramblers", ",".join(CONV_KINDS), "--integrands",
             ",".join(CONV_FNAMES), "--m", ",".join(map(str, CONV_MS)), "--r", str(CONV_R),
             "--reps", str(CONV_REPS), "--seed", str(seed), "--out", str(out)]]


def conv_check_round(calls, out: Path, rng, pool: dict) -> tuple[int, list[str]]:
    path = out / "convergence.csv"
    if calls[0][1] != 0 or not path.is_file():
        return CONV_CELLS, []
    header, rows = checks.read_csv(path)
    errs, values = checks.check_convergence(rows, header, CONV_KINDS, CONV_FNAMES, CONV_MS,
                                            CONV_R, CONV_REPS)
    if not errs:
        for key, v in values.items():
            pool.setdefault(key, []).append(v)
    return 0, errs


def conv_check_pool(pool: dict) -> list[str]:
    if not pool:
        return []
    values = {key: np.concatenate(v) for key, v in pool.items()}
    reps = len(next(iter(values.values())))
    return checks.check_slopes(values, CONV_FNAMES, CONV_MS,
                               checks.log_median_abs_normal_sd(reps))


# -- accept: acceptance criteria 3, 7, 8 and 9 at the program's pinned seed

ACCEPT_CRITERIA = (3, 7, 8, 9)
C7_GRID = tuple((b, m) for b in (2, 3, 5) for m in range(7))


def accept_argvs(seed: int, out: Path) -> list[list[str]]:
    # the criteria's tolerances are pinned at the program's default seed;
    # at other seeds they are statistical tests that fail now and then
    return [["acceptance", "--criteria", ",".join(map(str, ACCEPT_CRITERIA)), "--out", str(out)]]


def accept_check_round(calls, out: Path, rng, pool: dict) -> tuple[int, list[str]]:
    _, code, stdout = calls[0]
    verdicts = checks.parse_report(stdout)
    path = out / "acceptance_metrics.csv"
    if code is None or not path.is_file():
        return len(ACCEPT_CRITERIA), []
    failed = sum(1 for c in ACCEPT_CRITERIA if verdicts.get(c) == "FAIL")
    return failed, checks.check_acceptance(code, verdicts, checks.read_metrics(path),
                                           ACCEPT_CRITERIA)


WORKLOADS = {
    "hist-small-m": Workload(
        hist_argvs,
        tuple((k, f, 2, m) for k in HIST_KINDS for f in HIST_FNAMES for m in HIST_MS),
        HIST_CELLS * len(HIST_REPS),
        HIST_CELLS * sum(r * reps for r, reps in HIST_REPS.items()),
        hist_check_round, hist_check_pool),
    "conv-large-m": Workload(
        conv_argvs,
        tuple((k, f, 2, m) for k in CONV_KINDS for f in CONV_FNAMES for m in CONV_MS),
        CONV_CELLS,
        CONV_CELLS * CONV_R * CONV_REPS,
        conv_check_round, conv_check_pool),
    "accept": Workload(
        accept_argvs,
        # c3 (nested, m = 6), c8 (nested, m = 4) and every c7 cell
        (("nested", "f2", 2, 6), ("nested", "f2", 2, 4))
        + tuple((k, "f2", b, m) for k in checks.ACCEPT_KINDS for b, m in C7_GRID),
        len(ACCEPT_CRITERIA),
        # scrambled nets: c3 10^4 estimates, c7 1008 per kind, c8 10^4 offsets
        10_000 + len(checks.ACCEPT_KINDS) * checks.ACCEPT_C7_TOTAL + 10_000,
        accept_check_round, _no_pool_checks),
}


# -- set-up and rounds

def purge_program_modules():
    for name in [n for n in sys.modules if n == "rqmc_median" or n.startswith("rqmc_median.")]:
        del sys.modules[name]
    gc.collect()


def set_up(wl: Workload, tracer: Tracer | None = None) -> float:
    """Import the program afresh, build every net the workload uses (cold) and
    run one warm-up replicate per cell; returns the seconds it took."""
    purge_program_modules()
    t0 = time.perf_counter()
    importlib.import_module("rqmc_median.cli")
    pkg = sys.modules["rqmc_median"]
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"rqmc_median imported from {pkg.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install()
    for kind, fname, base, m in wl.warm_cells:
        pkg.replicate_batch(pkg.builtin(fname), pkg.ScramblerSpec(kind, base=base), m, 1,
                            WARM_SEED)
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    return dt


def round_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint32)[0])


def run_round(wl: Workload, seed: int, out: Path, tracer: Tracer | None):
    """Run one round's CLI calls; returns (wall s, cpu s, [(argv, exit code or None
    if the call raised, stdout)])."""
    shutil.rmtree(out, ignore_errors=True)
    cli = sys.modules["rqmc_median.cli"]
    argvs = wl.argvs(seed, out)
    calls = []
    if tracer is not None:
        tracer.install()
    w0, c0 = time.perf_counter(), time.process_time()
    for argv in argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call("cli.main", cli.main, argv)
        except Exception:  # a crash fails this call's operations; the run goes on
            traceback.print_exc()
            code = None
        calls.append((argv, code, buf.getvalue()))
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()
    return wall, cpu, calls


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    out = OUT / args.workload
    pick_rng = np.random.default_rng([args.seed, 7])

    setup_tracer = Tracer() if args.trace else None
    setup_times: list[float] = []
    tracer = Tracer() if args.trace else None
    totals = LayerTotals()
    walls = {False: [], True: []}
    cpus = []
    attempted = failed = 0
    errors: list[str] = []
    first_spans = None
    pool: dict = {}
    cpu_ids = sorted(os.sched_getaffinity(0))
    t_start = time.perf_counter()
    i = 0
    while True:
        # each CPU of a shared machine runs at its own, drifting speed; moving
        # the process to the next CPU every round lets one run sample them all
        os.sched_setaffinity(0, {cpu_ids[i % len(cpu_ids)]})
        # set-up is repeated before every round, so that its median spans the
        # same stretch of machine time as the rounds' median
        for k in range(SETUP_PER_ROUND):
            setup_times.append(set_up(wl, setup_tracer if i == k == 0 else None))
        traced = bool(args.trace) and (time.perf_counter() - t_start >= args.seconds / 2
                                       and bool(walls[False]))
        wall, cpu, calls = run_round(wl, round_seed(args.seed, i), out,
                                     tracer if traced else None)
        walls[traced].append(wall)
        cpus.append(cpu)
        attempted += wl.ops_per_round
        f, e = wl.check_round(calls, out, pick_rng, pool)
        failed += f
        errors += [f"round {i}: {msg}" for msg in e]
        if traced:
            spans = tracer.drain()
            totals.add(spans)
            totals.bytes_written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            if first_spans is None:
                first_spans = spans
        i += 1
        if time.perf_counter() - t_start >= args.seconds and (walls[True] or not args.trace):
            break

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors += wl.check_pool(pool)
    out.mkdir(parents=True, exist_ok=True)
    (out / "rounds.json").write_text(json.dumps({
        "setup_s": setup_times, "untraced_round_s": walls[False],
        "traced_round_s": walls[True], "round_cpu_s": cpus}) + "\n", encoding="utf-8")
    for msg in errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)

    if args.trace:
        untraced, traced_w = statistics.median(walls[False]), statistics.median(walls[True])
        setup_totals = LayerTotals()
        setup_totals.add(setup_tracer.drain())
        values = totals.metrics(len(walls[True]), setup_totals, traced_w - untraced)
        units = dict(PER_LAYER)
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in first_spans:
                fh.write(json.dumps(span) + "\n")
        (out / "trace_summary.json").write_text(json.dumps({
            "environment": environment(),
            "untraced_round_s": walls[False], "traced_round_s": walls[True],
            "per_layer": values,
            "scramble_cost": totals.scramble_table(),
        }, indent=1) + "\n", encoding="utf-8")
    else:
        run_s = statistics.median(walls[False])
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "cpu_s": statistics.median(cpus),
            "replicates_per_s": wl.replicates_per_round / run_s,
            "peak_rss_mib": peak_rss_mib,
        }
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment driver: histogram, convergence, variance, and acceptance modes.

Every run is keyed by one master seed.  Each (scrambler, integrand, m, r)
cell derives its per-repetition batch seeds from (master seed, cell index,
repetition), and every CSV row echoes its cell key and seed, so any row can
be regenerated in isolation.  Output uses fixed 17-significant-digit
formatting and is bit-identical across runs with the same configuration.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import acceptance, stats
from .estimators import median_estimator, replicate_batch
from .integrands import BUILTINS, IntegrandSpec, builtin
from .nets import van_der_corput_net
from .scramble import ScramblerKind, ScramblerSpec, derive_seed

__all__ = ["DEFAULT_SEED", "entry", "main"]

DEFAULT_SEED = 20250809
CSV_HEADER = "scrambler,integrand,base,m,N,r,rep,value,rescaled,kind,seed"


class UsageError(Exception):
    pass


def _names(text: str) -> tuple[str, ...]:
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if not names:
        raise argparse.ArgumentTypeError(f"expected a nonempty comma list, got {text!r}")
    return names


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in _names(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from None


# Each mode's settings, exactly those it reads: flag, namespace attribute,
# type, default text, help.  The type parses the default text and the flag's.
_SEED = ("--seed", "master_seed", int, str(DEFAULT_SEED), "master seed")
_OUT = ("--out", "out_dir", Path, "results", "output directory")
_BASE = ("--base", "base", int, "2", "net base")
_KINDS = ",".join(kind.value for kind in ScramblerKind)
_INTEGRANDS = f"comma list: {','.join(BUILTINS)}"
_M = "comma list of net exponents (n = base**m)"
_SETTINGS = {
    "histogram": (
        ("--scramblers", "scramblers", _names, "nested,matousek", f"comma list: {_KINDS}"),
        ("--integrands", "integrands", _names, "f1,f2", _INTEGRANDS),
        ("--m", "m_values", _ints, "4,6", _M),
        ("--r", "r_values", _ints, "1", "comma list of replicate counts per median"),
        ("--reps", "repetitions", int, "10000", "repetitions per cell"),
        _BASE, _SEED, _OUT),
    "convergence": (
        ("--scramblers", "scramblers", _names, "nested,matousek", f"comma list: {_KINDS}"),
        ("--integrands", "integrands", _names, "f1,f2", _INTEGRANDS),
        ("--m", "m_values", _ints, "4,5,6,7,8,9,10,11,12", _M),
        ("--r", "r_values", _ints, "101", "comma list of replicate counts per median"),
        ("--reps", "repetitions", int, "32", "repetitions per cell"),
        _BASE, _SEED, _OUT),
    "variance": (
        ("--scramblers", "scramblers", _names, _KINDS, f"comma list: {_KINDS}"),
        ("--integrands", "integrands", _names, "f1,f2,linear", _INTEGRANDS),
        ("--m", "m_values", _ints, "6", _M),
        ("--reps", "repetitions", int, "10000", "repetitions per cell, one batch"),
        _BASE, _SEED, _OUT),
    "acceptance": (
        ("--criteria", "criteria", _ints, "1,2,3,4,5,6,7,8,9,10", "criteria to run, e.g. 1,2,7"),
        _SEED, _OUT),
}


def validate(cfg: argparse.Namespace):
    """Raise UsageError for a bad seed or criterion; the sweep modes' other
    settings are checked where `_plan` builds their cells."""
    if cfg.master_seed < 0:
        raise UsageError(f"seed must be nonnegative, got {cfg.master_seed}")
    if cfg.mode == "acceptance" and any(c not in range(1, 11) for c in cfg.criteria):
        raise UsageError("criteria must be in 1..10")


@dataclass(frozen=True)
class _Cell:
    """One (scrambler, integrand, m, r) cell: its specs, built once, and the
    key columns of its CSV rows.  `index` keys the cell's batch seeds."""

    index: int
    spec: ScramblerSpec
    f: IntegrandSpec
    m: int
    n: int
    r: int

    def row(self, rep: int, value: float, rescaled: float, kind: str, seed: int) -> str:
        return (f"{self.spec.kind.value},{self.f.name},{self.spec.base},{self.m},{self.n},"
                f"{self.r},{rep},{value:.17g},{rescaled:.17g},{kind},{seed}")


def _plan(cfg: argparse.Namespace) -> list[_Cell]:
    """A sweep's cells in seed order, or UsageError before a run writes anything.

    Scrambler and integrand names, the base, its pairing with each scrambler
    kind and the net size are checked by building the specs, integrands and
    nets once, whose constructors own those rules.  A repeated value would
    repeat or overwrite a cell's output.  Variance mode has no r values: a
    cell's one batch is its repetitions.
    """
    r_values = getattr(cfg, "r_values", (cfg.repetitions,))
    if cfg.repetitions < 1:
        raise UsageError("repetitions must be >= 1")
    if any(r < 1 for r in r_values):
        raise UsageError("r values must be positive")
    for key, values in (("scramblers", cfg.scramblers), ("integrands", cfg.integrands),
                        ("m", cfg.m_values), ("r", r_values)):
        if len(set(values)) < len(values):
            raise UsageError(f"{key} lists a value twice: {','.join(map(str, values))}")
    if cfg.mode == "convergence" and len(cfg.m_values) < 3:
        raise UsageError("convergence mode needs at least 3 m values")
    try:
        specs = [ScramblerSpec(name, base=cfg.base) for name in cfg.scramblers]
        fs = [builtin(name) for name in cfg.integrands]
        nets = [van_der_corput_net(cfg.base, m) for m in cfg.m_values]
    except (ValueError, MemoryError) as exc:
        raise UsageError(str(exc)) from None
    zero_energy = [f.name for f in fs if f.exact_sigma2 <= 0]
    if cfg.mode == "histogram" and zero_energy:
        raise UsageError(f"integrand {zero_energy[0]!r} has zero gradient energy; "
                         "rescaled errors are undefined")
    for r in getattr(cfg, "r_values", ()):  # a variance batch takes no median
        if r > 1 and r % 2 == 0:
            print(f"warning: r={r} is even; the median uses the midpoint of the "
                  "two central order statistics", file=sys.stderr)
    grid = itertools.product(specs, fs, nets, r_values)
    return [_Cell(idx, spec, f, net.m, net.n, r)
            for idx, (spec, f, net, r) in enumerate(grid)]


def _median_estimates(cfg: argparse.Namespace, cell: _Cell) -> tuple[list[int], np.ndarray]:
    """The batch seed and the median-of-r estimate of each repetition of a cell."""
    seeds = [derive_seed(cfg.master_seed, cell.index, rep) for rep in range(cfg.repetitions)]
    batches = [replicate_batch(cell.f, cell.spec, cell.m, cell.r, seed) for seed in seeds]
    return seeds, median_estimator(np.array(batches))


def _write(path: Path, lines: list[str]):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_histogram_mode(cfg: argparse.Namespace) -> int:
    """Per cell: repeated (median-of-r) estimates with rescaled errors and a
    60-bin density histogram on [-5, 5]; r = 1 rescales single estimates.

    Summary rows: rep 0 holds (variance of rescaled errors, out-of-range
    count), the variance 0 at one repetition; rep 1, written only from 100
    repetitions on, holds the KS statistic against the standard normal.
    """
    cells = _plan(cfg)
    for cell in cells:
        seeds, values = _median_estimates(cfg, cell)
        rescaled = stats.rescale(values, cell.f, cell.n, cell.r)
        lines = [CSV_HEADER]
        lines += [cell.row(rep, v, scaled, "raw", seed)
                  for rep, (seed, v, scaled) in enumerate(zip(seeds, values, rescaled))]
        hist = stats.histogram(rescaled)
        bins = zip(hist.bin_centers.tolist(), hist.densities.tolist())
        lines += [cell.row(b, center, density, "hist", cfg.master_seed)
                  for b, (center, density) in enumerate(bins)]
        var = float(np.var(rescaled, ddof=1)) if cfg.repetitions > 1 else 0.0
        lines.append(cell.row(0, var, float(hist.n_outside), "summary", cfg.master_seed))
        if cfg.repetitions >= 100:
            lines.append(cell.row(1, stats.ks_statistic_normal(rescaled), 0.0,
                                  "summary", cfg.master_seed))
        _write(cfg.out_dir / f"hist_{cell.spec.kind.value}_{cell.f.name}_m{cell.m}_r{cell.r}.csv",
               lines)
    print(f"histogram mode: wrote {len(cells)} cell files to {cfg.out_dir}")
    return 0


def run_convergence_mode(cfg: argparse.Namespace) -> int:
    """Median-estimator error against n with fitted log-log slopes.

    Raw rows carry each outer repetition's median estimate and absolute
    error; a summary row per (scrambler, integrand, m, r) holds the median
    absolute error (rep 0); slope rows use m = -1, n = 0 and hold
    (slope, intercept).
    """
    lines = [CSV_HEADER]
    sweeps: dict[tuple, tuple[_Cell, list]] = {}
    for cell in _plan(cfg):
        seeds, meds = _median_estimates(cfg, cell)
        abs_errs = np.abs(meds - cell.f.exact_integral)
        lines += [cell.row(rep, med, abs_err, "raw", seed)
                  for rep, (seed, med, abs_err) in enumerate(zip(seeds, meds, abs_errs))]
        err = float(np.median(abs_errs))
        lines.append(cell.row(0, err, 0.0, "summary", cfg.master_seed))
        sweep = sweeps.setdefault((cell.spec.kind.value, cell.f.name, cell.r),
                                  (replace(cell, m=-1, n=0), []))
        sweep[1].append((cell.n, err))
    for key in sorted(sweeps):
        slope_cell, pts = sweeps[key]
        try:
            slope, intercept = stats.fit_slope(pts)
        except ValueError as exc:
            print(f"slope fit skipped for {key[0]}/{key[1]}/r={key[2]}: {exc}",
                  file=sys.stderr)
            continue
        lines.append(slope_cell.row(0, slope, intercept, "summary", cfg.master_seed))
    _write(cfg.out_dir / "convergence.csv", lines)
    print(f"convergence mode: wrote {cfg.out_dir / 'convergence.csv'}")
    return 0


def run_variance_mode(cfg: argparse.Namespace) -> int:
    """Per cell: empirical Var(Q) over the repetitions against sigma^2/n^3.

    The repetitions are one batch, whose size the rows give as r.  Summary
    rows: rep 0 holds (empirical variance, theoretical variance), the first 0
    at one repetition; rep 1 holds their ratio (0 when the theoretical
    variance is 0).
    """
    lines = [CSV_HEADER]
    for cell in _plan(cfg):
        seed = derive_seed(cfg.master_seed, cell.index, 0)
        est = replicate_batch(cell.f, cell.spec, cell.m, cell.r, seed)
        lines += [cell.row(rep, val, 0.0, "raw", seed) for rep, val in enumerate(est)]
        emp = float(np.var(est, ddof=1)) if cfg.repetitions > 1 else 0.0
        theo = cell.f.exact_sigma2 / cell.n**3
        lines.append(cell.row(0, emp, theo, "summary", cfg.master_seed))
        lines.append(cell.row(1, emp / theo if theo > 0 else 0.0, 0.0, "summary",
                              cfg.master_seed))
    _write(cfg.out_dir / "variance.csv", lines)
    print(f"variance mode: wrote {cfg.out_dir / 'variance.csv'}")
    return 0


def run_acceptance_mode(cfg: argparse.Namespace) -> int:
    """Run the acceptance criteria, print one line per criterion, write the
    report and metrics CSV, and exit nonzero when anything fails."""
    results = acceptance.run_acceptance(cfg.master_seed, list(cfg.criteria))
    lines = []
    for res in results:
        summary = " ".join(f"{k}={v:.6g}" for k, v in res.measured.items())
        lines.append(f"{'PASS' if res.passed else 'FAIL'} {res.index:>2} "
                     f"{res.name}: {summary}")
    report = "\n".join(lines)
    print(report)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "acceptance_report.txt").write_text(report + "\n", encoding="utf-8")
    (cfg.out_dir / "acceptance_metrics.csv").write_text(
        acceptance.metrics_csv(results), encoding="utf-8")
    return 0 if all(res.passed for res in results) else 1


_MODE_RUNNERS = {
    "histogram": run_histogram_mode,
    "convergence": run_convergence_mode,
    "variance": run_variance_mode,
    "acceptance": run_acceptance_mode,
}


def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with one subcommand parser per mode from _SETTINGS."""
    parser = argparse.ArgumentParser(
        prog="rqmc-median", allow_abbrev=False,
        description="Scrambled-net experiments: error histograms, convergence "
                    "sweeps, variance tables, and the acceptance suite.")
    modes = parser.add_subparsers(dest="mode", required=True)
    for mode, settings in _SETTINGS.items():
        sub = modes.add_parser(mode, allow_abbrev=False)
        for flag, field, kind, default, text in settings:
            sub.add_argument(flag, dest=field, type=kind, default=default,
                             metavar=flag[2:].upper(), help=f"{text} (default {default})")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        validate(args)
        return _MODE_RUNNERS[args.mode](args)
    except SystemExit as exc:  # argparse printed the help or a usage error
        return 2 if exc.code not in (0, None) else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

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
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import acceptance, stats
from .digits import default_depth
from .estimators import median_estimator, replicate_batch
from .integrands import IntegrandSpec, builtin
from .scramble import ScramblerSpec, derive_seed

__all__ = ["DEFAULT_SEED", "ExperimentConfig", "entry", "main"]

DEFAULT_SEED = 20250809
CSV_HEADER = "scrambler,integrand,base,m,N,r,rep,value,rescaled,kind,seed"

_MODES = ("histogram", "convergence", "variance", "acceptance")

# Settings are text wherever they come from: these defaults, then the config
# file, then the flags, each overriding the last, all parsed the same way.
_DEFAULTS = dict(base="2", seed=str(DEFAULT_SEED), out="results", shift="on",
                 criteria=",".join(map(str, range(1, 11))))
_MODE_DEFAULTS = {
    "histogram": dict(scramblers="nested,matousek", integrands="f1,f2", m="4,6", r="1",
                      reps="10000"),
    "convergence": dict(scramblers="nested,matousek", integrands="f1,f2",
                        m="4,5,6,7,8,9,10,11,12", r="101", reps="32"),
    "variance": dict(scramblers="nested,jittered,matousek,tezuka,striped",
                     integrands="f1,f2,linear", m="6", r="1", reps="10000"),
    "acceptance": dict(scramblers="", integrands="", m="", r="", reps="0"),
}


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    mode: str
    scramblers: tuple[str, ...] = ()
    integrands: tuple[str, ...] = ()
    base: int = 2
    m_values: tuple[int, ...] = ()
    r_values: tuple[int, ...] = ()
    repetitions: int = 0
    master_seed: int = DEFAULT_SEED
    out_dir: Path = Path("results")
    shift: bool = True
    criteria: tuple[int, ...] = tuple(range(1, 11))

    def validate(self):
        """Raise UsageError for bad settings before a run writes anything.

        Scrambler and integrand names, the base and its pairing with each
        scrambler kind are checked by building the specs, which own those
        rules; no m may exceed the base's digit depth.
        """
        if self.mode not in _MODES:
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.master_seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.master_seed}")
        if self.mode == "acceptance":
            if not self.criteria:
                raise UsageError("empty criteria selection")
            if any(c not in range(1, 11) for c in self.criteria):
                raise UsageError("criteria must be in 1..10")
            return
        if not self.scramblers or not self.integrands:
            raise UsageError("need at least one scrambler and one integrand")
        if self.repetitions < 1:
            raise UsageError("repetitions must be >= 1")
        if not self.m_values or any(m < 0 for m in self.m_values):
            raise UsageError("m values must be nonnegative and nonempty")
        if not self.r_values or any(r < 1 for r in self.r_values):
            raise UsageError("r values must be positive and nonempty")
        if self.mode == "convergence" and len(self.m_values) < 3:
            raise UsageError("convergence mode needs at least 3 m values")
        try:
            specs = [ScramblerSpec(name, base=self.base, shift=self.shift)
                     for name in self.scramblers]
            fs = [builtin(name) for name in self.integrands]
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if max(self.m_values) > default_depth(self.base):
            raise UsageError(f"m={max(self.m_values)} exceeds the digit depth "
                             f"{default_depth(self.base)} in base {self.base}")
        zero_energy = [f.name for f in fs if f.exact_sigma2 <= 0]
        if self.mode == "histogram" and zero_energy:
            raise UsageError(f"integrand {zero_energy[0]!r} has zero gradient energy; "
                             "rescaled errors are undefined")


def _split(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_config_file(path: Path) -> dict:
    keys = {"scramblers", "integrands", "base", "m", "r", "reps", "seed", "out", "shift"}
    out = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = val
    return out


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    raw = {**_DEFAULTS, **_MODE_DEFAULTS[args.mode]}
    if args.config:
        raw.update(_parse_config_file(args.config))
    raw.update((k, v) for k, v in vars(args).items() if k in raw and v is not None)
    ints = {}
    for key in ("base", "m", "r", "reps", "seed", "criteria"):
        try:
            ints[key] = tuple(int(tok) for tok in _split(raw[key]))
        except ValueError:
            raise UsageError(f"could not parse integers for {key}: {raw[key]!r}") from None
        if key in ("base", "reps", "seed") and len(ints[key]) != 1:
            raise UsageError(f"{key} takes one integer, got {raw[key]!r}")
    shift = raw["shift"].lower()
    if shift not in ("on", "off"):
        raise UsageError(f"shift must be 'on' or 'off', got {shift!r}")
    cfg = ExperimentConfig(
        mode=args.mode,
        scramblers=_split(raw["scramblers"]),
        integrands=_split(raw["integrands"]),
        base=ints["base"][0],
        m_values=ints["m"],
        r_values=ints["r"],
        repetitions=ints["reps"][0],
        master_seed=ints["seed"][0],
        out_dir=Path(raw["out"]),
        shift=shift == "on",
        criteria=ints["criteria"],
    )
    cfg.validate()
    return cfg


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


def _cells(cfg: ExperimentConfig):
    grid = itertools.product(cfg.scramblers, cfg.integrands, cfg.m_values, cfg.r_values)
    for idx, (scrambler, integrand, m, r) in enumerate(grid):
        spec = ScramblerSpec(scrambler, base=cfg.base, shift=cfg.shift)
        yield _Cell(idx, spec, builtin(integrand), m, cfg.base**m, r)


def _median_estimates(cfg: ExperimentConfig, cell: _Cell) -> tuple[list[int], np.ndarray]:
    """The batch seed and the median-of-r estimate of each repetition of a cell."""
    seeds = [derive_seed(cfg.master_seed, cell.index, rep) for rep in range(cfg.repetitions)]
    meds = [median_estimator(replicate_batch(cell.f, cell.spec, cell.m, cell.r, seed))
            for seed in seeds]
    return seeds, np.array(meds)


def _write(path: Path, lines: list[str]):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _warn_even_r(cfg: ExperimentConfig):
    for r in cfg.r_values:
        if r > 1 and r % 2 == 0:
            print(f"warning: r={r} is even; the median uses the midpoint of the "
                  "two central order statistics", file=sys.stderr)


def run_histogram_mode(cfg: ExperimentConfig) -> int:
    """Per cell: repeated (median-of-r) estimates with rescaled errors and a
    60-bin density histogram on [-5, 5]; r = 1 rescales single estimates.

    Summary rows: rep 0 holds (variance of rescaled errors, out-of-range
    count); rep 1 holds the KS statistic against the standard normal.
    """
    _warn_even_r(cfg)
    n_cells = 0
    for cell in _cells(cfg):
        seeds, values = _median_estimates(cfg, cell)
        f, sigma = cell.f, math.sqrt(cell.f.exact_sigma2)
        if cell.r == 1:
            sample = stats.rescale_single(values, f.exact_integral, sigma, cell.n)
        else:
            sample = stats.rescale_median(values, f.exact_integral, sigma, cell.n, cell.r)
        lines = [CSV_HEADER]
        lines += [cell.row(rep, v, scaled, "raw", seed)
                  for rep, (seed, v, scaled) in enumerate(zip(seeds, values, sample.values))]
        hist = stats.histogram(sample)
        lines += [cell.row(b, center, density, "hist", cfg.master_seed)
                  for b, (center, density) in enumerate(hist.pairs)]
        var = float(np.var(sample.values, ddof=1)) if cfg.repetitions > 1 else 0.0
        lines.append(cell.row(0, var, float(hist.n_outside), "summary", cfg.master_seed))
        if cfg.repetitions >= 100:
            lines.append(cell.row(1, stats.ks_statistic_normal(sample), 0.0,
                                  "summary", cfg.master_seed))
        _write(cfg.out_dir / f"hist_{cell.spec.kind.value}_{f.name}_m{cell.m}_r{cell.r}.csv",
               lines)
        n_cells += 1
    print(f"histogram mode: wrote {n_cells} cell files to {cfg.out_dir}")
    return 0


def run_convergence_mode(cfg: ExperimentConfig) -> int:
    """Median-estimator error against n with fitted log-log slopes.

    Raw rows carry each outer repetition's median estimate and absolute
    error; a summary row per (scrambler, integrand, m, r) holds the median
    absolute error (rep 0); slope rows use m = -1, n = 0 and hold
    (slope, intercept).
    """
    _warn_even_r(cfg)
    lines = [CSV_HEADER]
    sweeps: dict[tuple, tuple[_Cell, list]] = {}
    for cell in _cells(cfg):
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


def run_variance_mode(cfg: ExperimentConfig) -> int:
    """Per cell: empirical Var(Q) over the repetitions against sigma^2/n^3.

    The repetitions are one batch, whose size the rows give as r.  Summary
    rows: rep 0 holds (empirical variance, theoretical variance); rep 1
    holds their ratio (0 when the theoretical variance is 0).
    """
    lines = [CSV_HEADER]
    for cell in _cells(cfg):
        cell = replace(cell, r=cfg.repetitions)
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


def run_acceptance_mode(cfg: ExperimentConfig) -> int:
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
    parser = argparse.ArgumentParser(
        prog="rqmc-median",
        description="Scrambled-net experiments: error histograms, convergence "
                    "sweeps, variance tables, and the acceptance suite.")
    parser.add_argument("mode", choices=_MODES)
    parser.add_argument("--config", type=Path, help="flat key=value config file")
    parser.add_argument("--seed", metavar="S", help="master seed (default 20250809)")
    parser.add_argument("--out", help="output directory (default results/)")
    parser.add_argument("--scramblers",
                        help="comma list: nested,jittered,matousek,tezuka,striped")
    parser.add_argument("--integrands", help="comma list: f1,f2,linear,constant")
    parser.add_argument("--m", help="comma list of net exponents (n = base**m)")
    parser.add_argument("--r", help="comma list of replicate counts")
    parser.add_argument("--reps", help="repetitions per cell")
    parser.add_argument("--base", help="net base (default 2)")
    parser.add_argument("--shift", choices=["on", "off"],
                        help="digital shift for linear kinds (default on)")
    parser.add_argument("--criteria", help="acceptance subset, e.g. 1,2,7")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = build_config(args)
        return _MODE_RUNNERS[cfg.mode](cfg)
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

"""Acceptance checks: pinned statistical gates over the whole pipeline.

Each criterion recomputes its quantities from the library under one master
seed and compares against fixed tolerances.  Heavy simulation cells
(scrambled-net estimate arrays) are memoized inside a run context and shared
across criteria; every replicate is keyed by (cell seed, stream id), so any
value is reproducible in isolation and the full run is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import stats
from .estimators import estimates, median_estimator, scrambles
from .integrands import builtin
from .nets import is_net
from .scramble import RandomStream, ScramblerKind, ScramblerSpec, derive_seed

__all__ = ["CriterionResult", "metrics_csv", "run_acceptance"]

_KINDS = list(ScramblerKind)
_KIND_INDEX = {kind: i for i, kind in enumerate(_KINDS)}

# integrands evaluated while a cell's scrambles are hot; fixed per cell so
# cache growth never needs to re-scramble
_TRACKED = {
    (ScramblerKind.NESTED, 6): ("f1", "f2", "linear"),
    (ScramblerKind.JITTERED, 6): ("linear",),
}
_DEFAULT_TRACKED = ("f1", "f2")


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    measured: dict[str, float] = field(default_factory=dict)


class _RunContext:
    """Memoized per-seed computation cells shared by the criteria."""

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._cells: dict[tuple[ScramblerKind, int], np.ndarray] = {}

    def estimates(self, kind: ScramblerKind, m: int, count: int) -> dict[str, np.ndarray]:
        """Single-net estimates for streams 0..count-1 of one scrambler cell.

        Growing `count` extends the same stream sequence, so smaller requests
        are prefixes of larger ones and results do not depend on the order in
        which criteria run.
        """
        names = _TRACKED.get((kind, m), _DEFAULT_TRACKED)
        cell = self._cells.get((kind, m), np.empty((0, len(names))))
        if count > len(cell):
            seed = derive_seed(self.master_seed, 0, _KIND_INDEX[kind], m)
            new = estimates([builtin(n) for n in names], ScramblerSpec(kind, base=2), m, seed,
                            range(len(cell), count))
            cell = self._cells[kind, m] = np.vstack([cell, new])
        return dict(zip(names, cell[:count].T.copy()))


def _rescaled_median_variance(estimates: np.ndarray, reps: int, r: int,
                              f, n_points: int) -> float:
    med = median_estimator(estimates[: reps * r].reshape(reps, r))
    return float(np.var(stats.rescale(med, f, n_points, r), ddof=1))


def _c1(ctx: _RunContext) -> CriterionResult:
    """Exact finite-n variance of the linear integrand under stratified kinds."""
    n = 64
    exact = 1.0 / (12.0 * n**3)
    measured = {}
    ok = True
    for kind in (ScramblerKind.JITTERED, ScramblerKind.NESTED):
        est = ctx.estimates(kind, 6, 100_000)["linear"]
        ratio = float(np.var(est, ddof=1) / exact)
        measured[f"ratio_{kind.value}"] = ratio
        ok = ok and 0.99 <= ratio <= 1.01
    return CriterionResult(1, "exact-variance-oracle", ok, measured)


def _c2(ctx: _RunContext) -> CriterionResult:
    """Variance agreement of nested and the linear kinds against sigma^2/n^3."""
    n = 64
    kinds = (ScramblerKind.NESTED, ScramblerKind.MATOUSEK,
             ScramblerKind.TEZUKA, ScramblerKind.STRIPED)
    measured = {}
    ok = True
    for fname in ("f1", "f2"):
        f = builtin(fname)
        theo = f.exact_sigma2 / n**3
        variances = {}
        for kind in kinds:
            est = ctx.estimates(kind, 6, 10_000)[fname]
            variances[kind] = float(np.var(est, ddof=1))
            measured[f"{fname}_{kind.value}_over_theory"] = variances[kind] / theo
            ok = ok and abs(variances[kind] / theo - 1.0) <= 0.10
        spread = max(variances.values()) / min(variances.values())
        measured[f"{fname}_max_over_min"] = spread
        ok = ok and spread <= 1.05
    return CriterionResult(2, "variance-equality-across-scramblers", ok, measured)


def _c3(ctx: _RunContext) -> CriterionResult:
    """Rescaled single-replicate nested errors look standard normal."""
    f = builtin("f2")
    est = ctx.estimates(ScramblerKind.NESTED, 6, 10_000)["f2"]
    ks = stats.ks_statistic_normal(stats.rescale(est, f, 64, 1))
    return CriterionResult(3, "nested-clt-normality", ks < 0.03, {"ks": ks})


def _c4(ctx: _RunContext) -> CriterionResult:
    """Finite-r median law: empirical variance matches the quadrature oracle."""
    r, reps = 15, 10_000
    f = builtin("f2")
    est = ctx.estimates(ScramblerKind.NESTED, 6, reps * r)["f2"]
    sample_var = _rescaled_median_variance(est, reps, r, f, 64)
    oracle = (2.0 * r / math.pi) * stats.median_variance(r)
    big_r = 1001
    tail_ratio = big_r * stats.median_variance(big_r) / (math.pi / 2.0)
    measured = {"sample_var": sample_var, "oracle": oracle,
                "ratio": sample_var / oracle, "r1001_over_limit": tail_ratio}
    ok = abs(sample_var / oracle - 1.0) <= 0.10 and abs(tail_ratio - 1.0) <= 0.005
    return CriterionResult(4, "median-law-finite-r", ok, measured)


def _c5(ctx: _RunContext) -> CriterionResult:
    """Linear-scramble medians concentrate: below nested and tightening with n."""
    r, reps = 15, 10_000
    f = builtin("f2")
    nested = _rescaled_median_variance(
        ctx.estimates(ScramblerKind.NESTED, 6, reps * r)["f2"], reps, r, f, 64)
    mat64 = _rescaled_median_variance(
        ctx.estimates(ScramblerKind.MATOUSEK, 6, reps * r)["f2"], reps, r, f, 64)
    mat16 = _rescaled_median_variance(
        ctx.estimates(ScramblerKind.MATOUSEK, 4, reps * r)["f2"], reps, r, f, 16)
    measured = {"nested_n64": nested, "matousek_n64": mat64, "matousek_n16": mat16,
                "decay_factor": mat16 / mat64}
    ok = mat64 < nested and mat16 >= 2.0 * mat64
    return CriterionResult(5, "linear-median-concentration", ok, measured)


def _c6(ctx: _RunContext) -> CriterionResult:
    """Convergence slopes of the median estimator over n = 2^4 .. 2^12."""
    r, outer = 101, 32
    windows = {
        (ScramblerKind.NESTED, "f1"): (-1.65, -1.35),
        (ScramblerKind.NESTED, "f2"): (-1.65, -1.35),
        (ScramblerKind.MATOUSEK, "f1"): (None, -1.7),
        (ScramblerKind.MATOUSEK, "f2"): (None, -2.0),
    }
    measured = {}
    ok = True
    for (kind, fname), (lo, hi) in windows.items():
        f = builtin(fname)
        pts_err = []
        for m in range(4, 13):
            est = ctx.estimates(kind, m, outer * r)[fname]
            meds = median_estimator(est.reshape(outer, r))
            err = float(np.median(np.abs(meds - f.exact_integral)))
            pts_err.append((2**m, err))
        slope, _ = stats.fit_slope(pts_err)
        measured[f"slope_{kind.value}_{fname}"] = slope
        ok = ok and slope <= hi and (lo is None or slope >= lo)
    return CriterionResult(6, "convergence-slopes", ok, measured)


def _c7(ctx: _RunContext) -> CriterionResult:
    """Every scramble of every valid net is again a net, over a (base, m) grid."""
    grid = [(b, m) for b in (2, 3, 5) for m in range(7)]
    per_cell = -(-1000 // len(grid))  # ceil: >= 1000 scrambles per kind
    measured = {}
    ok = True
    for kind in _KINDS:
        failures = 0
        for b, m in grid:
            seed = derive_seed(ctx.master_seed, 2, _KIND_INDEX[kind], b, m)
            nets = scrambles(ScramblerSpec(kind, base=b), m, seed, range(per_cell))
            failures += sum(not is_net(net) for net in nets)
        measured[f"failures_{kind.value}"] = failures
        measured[f"total_{kind.value}"] = per_cell * len(grid)
        ok = ok and failures == 0
    return CriterionResult(7, "net-preservation", ok, measured)


def _c8(ctx: _RunContext) -> CriterionResult:
    """Nested scrambling behaves as jittered sampling: iid uniform offsets."""
    m, reps = 4, 10_000
    n = 2**m
    seed = derive_seed(ctx.master_seed, 1, m)
    off = np.empty((reps, n))  # within-stratum offsets n*x - i
    nets = scrambles(ScramblerSpec(ScramblerKind.NESTED, base=2), m, seed, range(reps))
    for j, net in enumerate(nets):
        off[j, net.strata] = net.points * n - net.strata
    ks_max = max(stats.ks_statistic(off[:, s], lambda u: u) for s in range(off.shape[1]))
    corr = np.corrcoef(off, rowvar=False)
    np.fill_diagonal(corr, 0.0)
    rho_max = float(np.max(np.abs(corr)))
    measured = {"ks_max": ks_max, "rho_max": rho_max}
    ok = ks_max < 0.02 and rho_max < 0.05
    return CriterionResult(8, "nested-jittered-equivalence", ok, measured)


def _c9(ctx: _RunContext) -> CriterionResult:
    """Median order-statistic density: unit mass and simulation-backed variance."""
    measured = {}
    ok = True
    for r in (1, 3, 15, 101):
        mass = stats.median_density_mass(r)
        measured[f"mass_defect_r{r}"] = abs(mass - 1.0)
        ok = ok and abs(mass - 1.0) <= 1e-8
    rng = RandomStream(ctx.master_seed, 3).generator()
    sim_var = float(np.var(median_estimator(rng.standard_normal((1_000_000, 3))), ddof=1))
    quad_var = stats.median_variance(3)
    measured["sim_var_r3"] = sim_var
    measured["quad_var_r3"] = quad_var
    ok = ok and abs(sim_var / quad_var - 1.0) <= 0.01
    return CriterionResult(9, "order-statistics-oracle", ok, measured)


_CRITERIA = {1: _c1, 2: _c2, 3: _c3, 4: _c4, 5: _c5, 6: _c6, 7: _c7, 8: _c8, 9: _c9}


def metrics_csv(results: list[CriterionResult]) -> str:
    lines = ["criterion,metric,value"]
    for res in results:
        for metric, val in res.measured.items():
            lines.append(f"{res.index},{metric},{val:.17g}")
    return "\n".join(lines) + "\n"


def _run_pass(master_seed: int, indices: list[int]) -> list[CriterionResult]:
    ctx = _RunContext(master_seed)
    return [_CRITERIA[i](ctx) for i in sorted(indices)]


def run_acceptance(master_seed: int, selected: list[int] | None = None) -> list[CriterionResult]:
    """Run the selected criteria (default: all ten) under one master seed.

    Criterion 10 reruns criteria 1-9 from a fresh context and demands
    bit-identical metric output, so selecting it costs a second full pass.
    """
    selected = sorted(set(selected)) if selected is not None else list(range(1, 11))
    if not selected or any(i not in range(1, 11) for i in selected):
        raise ValueError("criteria selection must be a nonempty subset of 1..10")
    base_indices = [i for i in selected if i <= 9]
    if 10 in selected:
        first = _run_pass(master_seed, list(range(1, 10)))
        second = _run_pass(master_seed, list(range(1, 10)))
        csv_a, csv_b = metrics_csv(first), metrics_csv(second)
        results = [r for r in first if r.index in base_indices]
        results.append(CriterionResult(
            10, "determinism", csv_a == csv_b,
            {"bytes_first": float(len(csv_a)), "bytes_second": float(len(csv_b))}))
        return results
    return _run_pass(master_seed, base_indices)

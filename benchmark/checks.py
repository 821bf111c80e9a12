"""Correctness checks on the program's outputs, computed apart from the program.

Every check returns a list of failure messages; an empty list means the
output passed.  Reference values come from closed forms or from numerical
work done here with numpy and the standard library, never from the
program's own statistics.  Each statistical window is Z standard errors of
the sampling error of the quantity it bounds (see README.md, "Correctness
checks").
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

Z = 6.0  # half-width of every statistical window, in standard errors
CSV_HEADER = "scrambler,integrand,base,m,N,r,rep,value,rescaled,kind,seed"
HIST_BINS, HIST_LO, HIST_HI = 60, -5.0, 5.0
FLOAT_RTOL = 1e-12  # recomputations that follow the program's arithmetic
RESOLVABLE_ULPS = 1000  # errors below this many ulps of the integral are rounding


@dataclass(frozen=True)
class Integrand:
    """f with its antiderivative F and the antiderivative G of f**2."""

    integral: float
    sigma2: float  # (1/12) * integral of f'(x)**2
    F: Callable[[float], float]
    G: Callable[[float], float]


INTEGRANDS = {
    # f1(x) = x**1.5: F = x**2.5 / 2.5, f1**2 = x**3, f1' ** 2 = 2.25 x
    "f1": Integrand(0.4, 2.25 / 2.0 / 12.0,
                    lambda x: x**2.5 / 2.5, lambda x: x**4 / 4.0),
    # f2(x) = exp(-x): F = -exp(-x), f2**2 = f2' ** 2 = exp(-2x)
    "f2": Integrand(1.0 - math.exp(-1.0), (1.0 - math.exp(-2.0)) / 2.0 / 12.0,
                    lambda x: -math.exp(-x), lambda x: -math.exp(-2.0 * x) / 2.0),
}


def stratified_variance(f: Integrand, n: int) -> float:
    """Exact Var of (1/n) sum_i f(U_i), U_i ~ U[i/n, (i+1)/n) independent.

    n**-2 sum_i Var f(U_i) = n**-1 int_0^1 f**2 - sum_i (int_{I_i} f)**2.
    """
    cells = [f.F((i + 1) / n) - f.F(i / n) for i in range(n)]
    return math.fsum([(f.G(1.0) - f.G(0.0)) / n] + [-c * c for c in cells])


def normal_cdf(x: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])


def median_normal_variance(r: int) -> float:
    """Var of the median of r = 2k+1 iid N(0, 1), by the trapezoid rule.

    The integrand is analytic and negligible beyond |x| = 9, where the
    trapezoid rule converges geometrically; 9001 nodes put the error far
    below 1e-12.
    """
    k = (r - 1) // 2
    x = np.linspace(-9.0, 9.0, 9001)
    cdf = normal_cdf(x)
    log_comb = math.lgamma(r + 1) - 2.0 * math.lgamma(k + 1)
    dens = np.exp(log_comb - 0.5 * x * x) / math.sqrt(2.0 * math.pi) * (cdf * (1.0 - cdf)) ** k
    h = x[1] - x[0]
    return float(h * np.sum(x * x * dens))


def log_median_abs_normal_sd(reps: int, draws: int = 200_000) -> float:
    """Standard deviation of log10(median of `reps` iid |N(0, 1)|), by simulation.

    With draws = 2e5 the estimate is within ~0.3% of the exact value.
    """
    rng = np.random.default_rng(12345)
    chunk = max(1, 2_000_000 // reps)  # bounds the memory this takes
    logs = np.concatenate([
        np.log10(np.median(np.abs(rng.standard_normal((min(chunk, draws - i), reps))), axis=1))
        for i in range(0, draws, chunk)])
    return float(np.std(logs))


def variance_se(x: np.ndarray) -> float:
    """Standard error of the sample variance, from the sample's fourth moment."""
    d = x - x.mean()
    m2, m4 = np.mean(d * d), np.mean(d**4)
    return math.sqrt(max(m4 - m2 * m2, 0.0) / len(x))


def _close(a: float, b: float, rtol: float = FLOAT_RTOL, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def ols_slope(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


# --------------------------------------------------------------------------
# CSV parsing

@dataclass
class Rows:
    """Rows of one kind from a CSV, as parallel columns."""

    key: list[tuple]        # (scrambler, integrand, base, m, N, r)
    rep: np.ndarray
    value_text: list[str]
    value: np.ndarray
    rescaled: np.ndarray
    seed: list[int]


def read_csv(path: Path) -> tuple[list[str], dict[str, Rows]]:
    """Header fields and the rows grouped by their `kind` column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: dict[str, dict[str, list]] = {}
        for row in reader:
            c = cols.setdefault(row[9], {k: [] for k in Rows.__dataclass_fields__})
            c["key"].append((row[0], row[1], int(row[2]), int(row[3]), int(row[4]), int(row[5])))
            c["rep"].append(int(row[6]))
            c["value_text"].append(row[7])
            c["value"].append(float(row[7]))
            c["rescaled"].append(float(row[8]))
            c["seed"].append(int(row[10]))
    out = {}
    for kind, c in cols.items():
        out[kind] = Rows(c["key"], np.array(c["rep"]), c["value_text"],
                         np.array(c["value"]), np.array(c["rescaled"]), c["seed"])
    return header, out


# --------------------------------------------------------------------------
# hist-small-m

def check_hist_cell(rows: dict[str, Rows], header: list[str], kind: str, fname: str,
                    m: int, r: int, reps: int) -> list[str]:
    """Arithmetic checks of one `histogram` cell file against its own raw rows."""
    errs = []
    tag = f"{kind}/{fname}/m{m}/r{r}"
    if ",".join(header) != CSV_HEADER:
        return [f"{tag}: header {header!r}"]
    raw, hist, summ = rows.get("raw"), rows.get("hist"), rows.get("summary")
    if raw is None or hist is None or summ is None:
        return [f"{tag}: missing raw, hist or summary rows"]
    n = 2**m
    if len(raw.rep) != reps or list(raw.rep) != list(range(reps)):
        errs.append(f"{tag}: raw reps {len(raw.rep)} != {reps}")
        return errs
    if any(k != (kind, fname, 2, m, n, r) for k in raw.key):
        errs.append(f"{tag}: raw rows carry another cell key")
    f = INTEGRANDS[fname]
    scale = math.sqrt(2.0 * r / math.pi) if r > 1 else 1.0
    expect = scale * n**1.5 * (raw.value - f.integral) / math.sqrt(f.sigma2)
    bad = ~np.isclose(raw.rescaled, expect, rtol=1e-9, atol=1e-12)
    if bad.any():
        errs.append(f"{tag}: {int(bad.sum())} rescaled values disagree with value")
    resc = raw.rescaled
    width = (HIST_HI - HIST_LO) / HIST_BINS
    inside = (resc >= HIST_LO) & (resc < HIST_HI)
    idx = np.clip(np.floor((resc[inside] - HIST_LO) / width).astype(int), 0, HIST_BINS - 1)
    dens = np.bincount(idx, minlength=HIST_BINS) / (reps * width)
    if len(hist.value) != HIST_BINS or not np.allclose(hist.rescaled, dens, rtol=1e-12, atol=0):
        errs.append(f"{tag}: histogram densities disagree with the raw rows")
    mass = math.fsum(hist.rescaled * width)
    if not _close(mass, inside.sum() / reps, 1e-12, 1e-15):
        errs.append(f"{tag}: histogram mass {mass} != in-range fraction {inside.sum() / reps}")
    s0 = [i for i, rep in enumerate(summ.rep) if rep == 0]
    if len(s0) != 1:
        errs.append(f"{tag}: expected one summary row 0")
    else:
        i = s0[0]
        if not _close(summ.value[i], float(np.var(resc, ddof=1)), 1e-9):
            errs.append(f"{tag}: summary variance disagrees with the raw rows")
        if summ.rescaled[i] != reps - inside.sum():
            errs.append(f"{tag}: out-of-range count {summ.rescaled[i]} != {reps - inside.sum()}")
    if reps >= 100:
        s1 = [i for i, rep in enumerate(summ.rep) if rep == 1]
        xs = np.sort(resc)
        cdf = normal_cdf(xs)
        i_n = np.arange(1, reps + 1) / reps
        ks = float(max(np.max(i_n - cdf), np.max(cdf - (i_n - 1.0 / reps))))
        if len(s1) != 1 or not _close(summ.value[s1[0]], ks, 1e-9):
            errs.append(f"{tag}: KS summary row disagrees with the raw rows")
    return errs


def check_regenerated(rows: Rows, picks: list[int], regenerate) -> list[str]:
    """Rows `picks` must be reproduced bit for bit from their seed column.

    `regenerate(scrambler, integrand, base, m, r, seed)` returns the value
    text the program produces for one repetition.
    """
    errs = []
    for i in picks:
        scrambler, integrand, base, m, _, r = rows.key[i]
        got = regenerate(scrambler, integrand, base, m, r, rows.seed[i])
        if got != rows.value_text[i]:
            errs.append(f"{scrambler}/{integrand}/m{m}/r{r} rep {rows.rep[i]}: "
                        f"regenerated {got} != {rows.value_text[i]}")
    return errs


def check_single_variance(values: np.ndarray, fname: str, n: int, tag: str) -> list[str]:
    """r = 1: the sample variance of the estimates matches the exact stratified variance."""
    exact = stratified_variance(INTEGRANDS[fname], n)
    s2 = float(np.var(values, ddof=1))
    se = variance_se(values)
    if abs(s2 - exact) > Z * se:
        return [f"{tag}: variance {s2:.6g} vs exact {exact:.6g}, window {Z} x {se:.3g}"]
    return []


def check_nested_median_law(cells: list[tuple[np.ndarray, str, int]], r: int,
                            var_median: float) -> list[str]:
    """Nested median-of-r: rescaled variance over its normal-theory value.

    cells holds (rescaled values, integrand, n).  Each cell's expectation is
    (2r/pi) * Var(median of r N(0,1)) * Var_exact * n**3 / sigma**2; the last
    factor is the exact finite-n correction of the single-net variance.  The
    cells' ratios are averaged and the mean must lie within Z standard errors
    of 1.
    """
    ratios, ses = [], []
    for vals, fname, n in cells:
        f = INTEGRANDS[fname]
        expect = 2.0 * r / math.pi * var_median * stratified_variance(f, n) * n**3 / f.sigma2
        ratios.append(float(np.var(vals, ddof=1)) / expect)
        ses.append(variance_se(vals) / expect)
    mean = float(np.mean(ratios))
    se = math.sqrt(sum(s * s for s in ses)) / len(ses)
    if abs(mean - 1.0) > Z * se:
        return [f"nested r={r}: mean variance ratio {mean:.4f}, window 1 +- {Z} x {se:.3g}"]
    return []


def check_linear_below_nested(linear: np.ndarray, nested: np.ndarray, tag: str) -> list[str]:
    """The paper's claim: the linear-scramble median varies less than the nested one."""
    lv, nv = float(np.var(linear, ddof=1)), float(np.var(nested, ddof=1))
    return [] if lv < nv else [f"{tag}: matousek variance {lv:.4g} not below nested {nv:.4g}"]


# --------------------------------------------------------------------------
# conv-large-m

def check_convergence(rows: dict[str, Rows], header: list[str], kinds, fnames, ms,
                      r: int, reps: int) -> tuple[list[str], dict]:
    """Summary and slope rows of one convergence.csv, recomputed from its raw rows.

    Returns the error messages and the raw median estimates by
    (scrambler, integrand, m), for pooling across rounds.
    """
    if ",".join(header) != CSV_HEADER:
        return [f"convergence: header {header!r}"], {}
    raw, summ = rows.get("raw"), rows.get("summary")
    if raw is None or summ is None:
        return ["convergence: missing raw or summary rows"], {}
    errs = []
    by_cell: dict[tuple, list[int]] = {}
    for i, key in enumerate(raw.key):
        by_cell.setdefault(key, []).append(i)
    summary_rows = {summ.key[i]: i for i in range(len(summ.rep)) if summ.key[i][3] >= 0}
    slope_rows = {(summ.key[i][0], summ.key[i][1]): i
                  for i in range(len(summ.rep)) if summ.key[i][3] == -1}
    lx = np.log10([2.0**m for m in ms])
    values = {}
    for kind in kinds:
        for fname in fnames:
            f = INTEGRANDS[fname]
            cell_err = []
            for m in ms:
                key = (kind, fname, 2, m, 2**m, r)
                idx = by_cell.get(key, [])
                if [int(raw.rep[i]) for i in idx] != list(range(reps)) or key not in summary_rows:
                    return errs + [f"convergence: cell {key} incomplete"], {}
                abs_err = np.abs(raw.value[idx] - f.integral)
                if not np.allclose(raw.rescaled[idx], abs_err, rtol=FLOAT_RTOL, atol=1e-18):
                    errs.append(f"convergence: {key} error column disagrees with value")
                err = float(np.median(abs_err))
                if not _close(summ.value[summary_rows[key]], err):
                    errs.append(f"convergence: {key} summary error disagrees with raw rows")
                cell_err.append(err)
                values[(kind, fname, m)] = raw.value[idx]
            i = slope_rows.get((kind, fname))
            if min(cell_err) == 0.0:
                # log10(0): the program skips the fit and writes no slope row
                if i is not None:
                    errs.append(f"convergence: slope row {kind}/{fname} despite a zero error")
                continue
            slope, intercept = ols_slope(lx, np.log10(cell_err))
            if i is None or not (_close(summ.value[i], slope, 1e-9, 1e-12)
                                 and _close(summ.rescaled[i], intercept, 1e-9, 1e-12)):
                errs.append(f"convergence: slope row {kind}/{fname} disagrees with raw rows")
    return errs, values


def check_slopes(values: dict, fnames, ms, log_sd: float) -> list[str]:
    """The slope claims, on median estimates pooled over outer repetitions.

    values maps (scrambler, integrand, m) to the median-of-r estimates of
    every outer repetition.  A cell's error is the median of their absolute
    errors, as the program computes it.  Cells whose error is below
    RESOLVABLE_ULPS units in the last place of the integral measure rounding,
    not sampling error (matousek f2 reaches that at m >= 11), and are left
    out of the fit.  log_sd is the standard deviation of log10 of one error
    when the median-of-r error is normal (nested scrambling), so a slope's
    standard error is log_sd / sqrt(sum (log10 n - mean)**2) over the fitted
    cells.  Nested slopes must lie within Z standard errors of -1.5; matousek
    slopes must be steeper than nested by at least the standard error of a
    difference of two slopes.
    """
    errs = []
    for fname in fnames:
        f = INTEGRANDS[fname]
        floor = RESOLVABLE_ULPS * math.ulp(f.integral)
        slope, se = {}, {}
        for kind in ("nested", "matousek"):
            pts = [(m, float(np.median(np.abs(values[(kind, fname, m)] - f.integral))))
                   for m in ms]
            pts = [(m, e) for m, e in pts if e > floor]
            if len(pts) < 3:
                errs.append(f"convergence: {kind} {fname} has {len(pts)} resolvable cells")
                return errs
            lx = np.log10([2.0**m for m, _ in pts])
            slope[kind] = ols_slope(lx, np.log10([e for _, e in pts]))[0]
            se[kind] = log_sd / math.sqrt(float(np.sum((lx - lx.mean()) ** 2)))
        if abs(slope["nested"] + 1.5) > Z * se["nested"]:
            errs.append(f"convergence: nested {fname} slope {slope['nested']:.3f} outside "
                        f"-1.5 +- {Z} x {se['nested']:.3f}")
        margin = math.hypot(se["nested"], se["matousek"])
        if not slope["matousek"] < slope["nested"] - margin:
            errs.append(f"convergence: matousek {fname} slope {slope['matousek']:.3f} not "
                        f"below nested {slope['nested']:.3f} by {margin:.3f}")
    return errs


# --------------------------------------------------------------------------
# accept

ACCEPT_QUAD_VAR_R3 = 1.0 - math.sqrt(3.0) / math.pi  # Var(median of 3 N(0,1))
ACCEPT_KINDS = ("nested", "jittered", "matousek", "tezuka", "striped")
ACCEPT_C7_TOTAL = 21 * -(-1000 // 21)  # 21 (base, m) cells, >= 1000 scrambles per kind


def parse_report(stdout: str) -> dict[int, str]:
    """Criterion index -> 'PASS' or 'FAIL' from the acceptance report lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("PASS", "FAIL") and parts[1].isdigit():
            out[int(parts[1])] = parts[0]
    return out


def read_metrics(path: Path) -> dict[tuple[int, str], float]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["criterion", "metric", "value"]:
            raise ValueError(f"{path}: unexpected header")
        return {(int(c), name): float(v) for c, name, v in reader}


def check_acceptance(code: int, verdicts: dict[int, str], metrics: dict, criteria) -> list[str]:
    """Exit code, one verdict line per criterion, and closed-form metric values.

    Criteria that report FAIL are counted as failed operations by the caller;
    their metrics are not checked here.
    """
    errs = []
    missing = [c for c in criteria if c not in verdicts]
    if missing:
        errs.append(f"acceptance: no PASS/FAIL line for criteria {missing}")
    passed = {c for c in criteria if verdicts.get(c) == "PASS"}
    want = 0 if len(passed) == len(criteria) else 1
    if code != want:
        errs.append(f"acceptance: exit code {code}, expected {want}")
    if 9 in passed:
        q = metrics.get((9, "quad_var_r3"))
        if q is None or abs(q - ACCEPT_QUAD_VAR_R3) > 1e-9:
            errs.append(f"acceptance: quad_var_r3 {q} != 1 - sqrt(3)/pi")
        for r in (1, 3, 15, 101):
            d = metrics.get((9, f"mass_defect_r{r}"))
            if d is None or not 0.0 <= d <= 1e-8:
                errs.append(f"acceptance: mass_defect_r{r} {d} above 1e-8")
    if 7 in passed:
        for kind in ACCEPT_KINDS:
            fails = metrics.get((7, f"failures_{kind}"))
            total = metrics.get((7, f"total_{kind}"))
            if fails != 0 or total != ACCEPT_C7_TOTAL:
                errs.append(f"acceptance: {kind} failures {fails} total {total}, "
                            f"expected 0 of {ACCEPT_C7_TOTAL}")
    for c in passed & {3, 8}:
        if not any(k[0] == c for k in metrics):
            errs.append(f"acceptance: no metrics for criterion {c}")
    return errs

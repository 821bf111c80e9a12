"""Rescaled errors, normality checks, median order statistics, slope fits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Histogram",
    "MedianLawSpec",
    "RescaledSample",
    "fit_slope",
    "histogram",
    "ks_statistic_normal",
    "median_density",
    "median_density_mass",
    "median_variance",
    "rescale_median",
    "rescale_single",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class RescaledSample:
    """Rescaled error sample from repeated estimates (see rescale_single and
    rescale_median)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise ValueError("rescaled values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def repetitions(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class MedianLawSpec:
    """Median of r = 2k+1 iid centered normals with scale sigma."""

    r: int
    sigma: float

    def __post_init__(self):
        if self.r < 1 or self.r % 2 == 0:
            raise ValueError(f"r must be a positive odd integer, got {self.r}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def rescale_single(estimates: Sequence[float], exact_integral: float, sigma: float,
                   n_points: int) -> RescaledSample:
    """values[j] = n**1.5 * (estimates[j] - I) / sigma."""
    if not sigma > 0:
        raise ValueError("sigma must be positive (constant integrands cannot be rescaled)")
    est = np.asarray(estimates, dtype=np.float64)
    vals = n_points**1.5 * (est - exact_integral) / sigma
    return RescaledSample(vals)


def rescale_median(medians: Sequence[float], exact_integral: float, sigma: float,
                   n_points: int, r: int) -> RescaledSample:
    """values[j] = sqrt(2r/pi) * n**1.5 * (medians[j] - I) / sigma.

    The sqrt(2r/pi) factor makes the large-r limit standard normal.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive (constant integrands cannot be rescaled)")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    med = np.asarray(medians, dtype=np.float64)
    vals = math.sqrt(2.0 * r / math.pi) * n_points**1.5 * (med - exact_integral) / sigma
    return RescaledSample(vals)


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    # math.erf is correctly rounded, far inside the 1e-7 budget
    return np.array([0.5 * (1.0 + math.erf(v / _SQRT2)) for v in np.asarray(x).ravel()])


def ks_statistic_normal(sample: RescaledSample) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF."""
    n = sample.repetitions
    if n < 100:
        raise ValueError(f"need at least 100 values for a meaningful statistic, got {n}")
    xs = np.sort(sample.values)
    cdf = _std_normal_cdf(xs)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus))


def median_density(x: float, law: MedianLawSpec) -> float:
    """Density of the median of r = 2k+1 iid N(0, sigma**2) variables at x.

    r! / (k! k!) * Phi(x)**k * (1 - Phi(x))**k * phi(x), evaluated in log
    space so large r stays finite; both CDF tails come from erfc for
    accuracy far from the center.
    """
    r, sigma = law.r, law.sigma
    k = (r - 1) // 2
    z = x / sigma
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * z * z) / sigma
    if k == 0:
        return pdf
    lower = 0.5 * math.erfc(-z / _SQRT2)
    upper = 0.5 * math.erfc(z / _SQRT2)
    if lower <= 0.0 or upper <= 0.0:
        return 0.0
    log_comb = math.lgamma(r + 1) - 2.0 * math.lgamma(k + 1)
    return math.exp(log_comb + k * (math.log(lower) + math.log(upper))) * pdf


def _adaptive_simpson(fn: Callable[[float], float], a: float, b: float,
                      tol: float, seed_panels: int = 32) -> float:
    """Adaptive Simpson quadrature with Richardson correction.

    The interval is pre-split into seed panels so sharply peaked integrands
    (large-r median densities) cannot slip between probe points.
    """

    def simpson(l, r, fl, fm, fr):
        return (r - l) / 6.0 * (fl + 4.0 * fm + fr)

    def recurse(l, r, fl, fm, fr, whole, tol, depth):
        mid = 0.5 * (l + r)
        lm = 0.5 * (l + mid)
        rm = 0.5 * (mid + r)
        flm = fn(lm)
        frm = fn(rm)
        left = simpson(l, mid, fl, flm, fm)
        right = simpson(mid, r, fm, frm, fr)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(l, mid, fl, flm, fm, left, tol / 2.0, depth - 1)
                + recurse(mid, r, fm, frm, fr, right, tol / 2.0, depth - 1))

    edges = np.linspace(a, b, seed_panels + 1)
    total = 0.0
    for l, r in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (l + r)
        fl, fm, fr = fn(l), fn(mid), fn(r)
        total += recurse(l, r, fl, fm, fr, simpson(l, r, fl, fm, fr),
                         tol / seed_panels, 48)
    return total


def median_density_mass(law: MedianLawSpec) -> float:
    """Total mass of the median density over [-10 sigma, 10 sigma] (should be 1)."""
    fn = lambda x: median_density(x, law)
    return 2.0 * _adaptive_simpson(fn, 0.0, 10.0 * law.sigma, 5e-12)


def median_variance(r: int, sigma: float) -> float:
    """Exact finite-r variance of the normal sample median, by quadrature.

    Integrates x**2 times the median density over [-10 sigma, 10 sigma]; the
    mass beyond the truncation is far below 1e-12.  As r grows,
    r * median_variance(r, sigma) approaches pi * sigma**2 / 2.
    """
    law = MedianLawSpec(r, sigma)
    fn = lambda x: x * x * median_density(x, law)
    return 2.0 * _adaptive_simpson(fn, 0.0, 10.0 * sigma, 1e-9 * sigma**2)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Density histogram normalized to the in-range mass.

    Each bin's density is count / (sample size * bin_width), so the histogram
    integrates to the fraction of values inside [lo, hi); values outside are
    counted in `n_outside`.
    """

    bin_centers: np.ndarray
    densities: np.ndarray
    n_outside: int

    @property
    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.bin_centers.tolist(), self.densities.tolist()))


def histogram(sample: RescaledSample, bins: int = 60,
              value_range: tuple[float, float] = (-5.0, 5.0)) -> Histogram:
    """Bin the sample on [lo, hi) into equal-width density bins."""
    lo, hi = value_range
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {value_range}")
    vals = sample.values
    width = (hi - lo) / bins
    inside = (vals >= lo) & (vals < hi)
    idx = np.floor((vals[inside] - lo) / width).astype(np.int64)
    np.clip(idx, 0, bins - 1, out=idx)
    counts = np.bincount(idx, minlength=bins)
    centers = lo + (np.arange(bins) + 0.5) * width
    n_total = len(vals)
    densities = counts / (n_total * width) if n_total else np.zeros(bins)
    return Histogram(centers, densities, int(n_total - inside.sum()))


def fit_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Ordinary least squares of log10(error) on log10(n).

    Returns (slope, intercept).  Exact power laws come back exactly; errors
    must all be positive.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points to fit a slope, got {len(points)}")
    ns = np.array([p[0] for p in points], dtype=np.float64)
    errs = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(errs <= 0.0):
        raise ValueError("slope fit needs strictly positive error values")
    lx = np.log10(ns)
    ly = np.log10(errs)
    lx_c = lx - lx.mean()
    slope = float(np.dot(lx_c, ly - ly.mean()) / np.dot(lx_c, lx_c))
    intercept = float(ly.mean() - slope * lx.mean())
    return slope, intercept

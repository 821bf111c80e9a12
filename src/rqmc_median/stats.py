"""Rescaled errors, normality checks, median order statistics, slope fits."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .integrands import IntegrandSpec

__all__ = [
    "Histogram",
    "fit_slope",
    "histogram",
    "ks_statistic",
    "ks_statistic_normal",
    "median_density",
    "median_density_mass",
    "median_variance",
    "rescale",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _finite(values) -> np.ndarray:
    vals = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    return vals


def rescale(estimates: Sequence[float], f: IntegrandSpec, n_points: int,
            r: int) -> np.ndarray:
    """Rescaled errors of single (r = 1) or median-of-r estimates of f.

    With sigma = sqrt(f.exact_sigma2): n**1.5 * (est - I) / sigma at r = 1,
    and sqrt(2r/pi) * n**1.5 * (est - I) / sigma above, whose large-r limit
    is standard normal.  Returns a finite, read-only array.
    """
    if not f.exact_sigma2 > 0:
        raise ValueError("sigma must be positive (constant integrands cannot be rescaled)")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    sigma = math.sqrt(f.exact_sigma2)
    factor = 1.0 if r == 1 else math.sqrt(2.0 * r / math.pi)
    est = np.asarray(estimates, dtype=np.float64)
    vals = _finite(factor * n_points**1.5 * (est - f.exact_integral) / sigma)
    vals.flags.writeable = False
    return vals


def _std_normal_cdf(x: np.ndarray) -> np.ndarray:
    # math.erf is within an ulp of the exact value, not always correctly rounded
    return np.array([0.5 * (1.0 + math.erf(v / _SQRT2)) for v in np.asarray(x).ravel()])


def ks_statistic(values: Sequence[float],
                 cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup distance between the empirical CDF of finite values and `cdf`,
    which maps a sorted array to its CDF values."""
    xs = np.sort(_finite(values))
    n = len(xs)
    cdf_xs = cdf(xs)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf_xs), np.max(cdf_xs - (i - 1) / n)))


def ks_statistic_normal(values: Sequence[float]) -> float:
    """KS distance of at least 100 finite values from the standard normal."""
    n = len(values)
    if n < 100:
        raise ValueError(f"need at least 100 values for a meaningful statistic, got {n}")
    return ks_statistic(values, _std_normal_cdf)


def median_density(x: float, r: int) -> float:
    """Density of the median of r = 2k+1 iid standard normals at x.

    r! / (k! k!) * Phi(x)**k * (1 - Phi(x))**k * phi(x), as the correctly
    rounded r! / (k! k! 4**k) times (4 Phi(x) (1 - Phi(x)))**k, whose base is
    at most 1, so the power underflows to 0 far out and never overflows; both
    CDF tails come from erfc for accuracy far from the center.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"r must be a positive odd integer, got {r}")
    k = (r - 1) // 2
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    lower = 0.5 * math.erfc(-x / _SQRT2)
    upper = 0.5 * math.erfc(x / _SQRT2)
    return math.comb(r, k) * (k + 1) / 4**k * (4.0 * lower * upper) ** k * pdf


@functools.cache
def _half_line_rule() -> tuple[list[float], np.ndarray]:
    """Nodes and weights of 20-point Gauss-Legendre on each of 32 equal
    panels of [0, 10], built on first use: numpy.polynomial loads lazily."""
    t, w = np.polynomial.legendre.leggauss(20)
    half = 10.0 / 32 / 2.0
    nodes = (half * (2.0 * np.arange(32) + 1.0))[:, None] + half * t
    return nodes.ravel().tolist(), np.tile(half * w, 32)


def _median_law_integral(fn: Callable[[float], float], r: int) -> float:
    """Integral over [-10, 10] of an even fn of the median density of r: twice
    the rule on [0, 10], within 4e-14 relative up to r = 1001 but 7.7e-12 off
    at r = 1501, where the density's peak narrows past it; larger r raises."""
    if r > 1001:
        raise ValueError(f"the median law is computed only for r <= 1001, got {r}")
    nodes, weights = _half_line_rule()
    return 2.0 * float(np.dot(weights, [fn(x) for x in nodes]))


def median_density_mass(r: int) -> float:
    """Total mass of the median density over [-10, 10] (should be 1), for odd
    r <= 1001."""
    return _median_law_integral(lambda x: median_density(x, r), r)


def median_variance(r: int) -> float:
    """Exact finite-r variance of the median of r standard normals, by quadrature,
    for odd r <= 1001.

    Integrates x**2 times the median density over [-10, 10]; the mass beyond
    the truncation is far below 1e-12.  As r grows, r * median_variance(r)
    approaches pi / 2.
    """
    return _median_law_integral(lambda x: x * x * median_density(x, r), r)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Density histogram normalized to the in-range mass.

    Each bin's density is count / (sample size * bin_width), so the histogram
    integrates to the fraction of values inside [-5, 5); values outside are
    counted in `n_outside`.
    """

    bin_centers: np.ndarray
    densities: np.ndarray
    n_outside: int


def histogram(values: Sequence[float]) -> Histogram:
    """Bin finite values on [-5, 5) into 60 equal-width density bins."""
    lo, hi, n_bins = -5.0, 5.0, 60
    vals = _finite(values)
    width = (hi - lo) / n_bins
    inside = (vals >= lo) & (vals < hi)
    idx = np.floor((vals[inside] - lo) / width).astype(np.int64)
    np.clip(idx, 0, n_bins - 1, out=idx)
    counts = np.bincount(idx, minlength=n_bins)
    centers = lo + (np.arange(n_bins) + 0.5) * width
    n_total = len(vals)
    densities = counts / (n_total * width) if n_total else np.zeros(n_bins)
    return Histogram(centers, densities, int(n_total - inside.sum()))


def fit_slope(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Ordinary least squares of log10(error) on log10(n).

    Returns (slope, intercept).  Exact power laws come back exactly; every n
    and every error must be finite and positive.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points to fit a slope, got {len(points)}")
    ns = _finite([p[0] for p in points])
    errs = _finite([p[1] for p in points])
    if np.any(ns <= 0.0) or np.any(errs <= 0.0):
        raise ValueError("slope fit needs strictly positive n and error values")
    if np.all(ns == ns[0]):
        raise ValueError("slope fit needs at least two distinct n")
    lx = np.log10(ns)
    ly = np.log10(errs)
    lx_c = lx - lx.mean()
    slope = float(np.dot(lx_c, ly - ly.mean()) / np.dot(lx_c, lx_c))
    intercept = float(ly.mean() - slope * lx.mean())
    return slope, intercept

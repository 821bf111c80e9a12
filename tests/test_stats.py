import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqmc_median import stats
from rqmc_median.estimators import replicate_batch
from rqmc_median.integrands import IntegrandSpec, builtin
from rqmc_median.scramble import ScramblerKind, ScramblerSpec


# ------------------------------------------------------------- rescaling

# I = 0.4 and sigma = 0.5
F = IntegrandSpec("unit", lambda x: x, exact_integral=0.4, exact_sigma2=0.25)


def test_rescale_single_units():
    assert stats.rescale([0.4], F, n_points=64, r=1)[0] == 0.0
    shifted = 0.4 + 0.5 * 64**-1.5
    assert stats.rescale([shifted], F, 64, 1)[0] == pytest.approx(1.0)


def test_rescale_median_units():
    assert stats.rescale([0.4], F, 64, 15)[0] == 0.0
    shifted = 0.4 + 0.5 * math.sqrt(math.pi / 30.0) * 64**-1.5
    assert stats.rescale([shifted], F, 64, 15)[0] == pytest.approx(1.0)


def test_rescale_rejects_zero_sigma():
    for r in (1, 3):
        with pytest.raises(ValueError):
            stats.rescale([0.5], builtin("constant"), 16, r)


def test_rescaled_jittered_linear_variance_is_one():
    # f(x) = x: Var(Q) = 1/(12 n^3) exactly, so the rescaled variance is 1
    f = builtin("linear")
    spec = ScramblerSpec(ScramblerKind.JITTERED, base=2)
    batch = replicate_batch(f, spec, 6, 10_000, master_seed=606)
    assert 0.97 <= np.var(stats.rescale(batch, f, 64, 1), ddof=1) <= 1.03


# ------------------------------------------------------------- KS statistic

def _norm_quantile(p):
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_ks_on_ideal_quantiles():
    n = 1000
    vals = [_norm_quantile((i - 0.5) / n) for i in range(1, n + 1)]
    assert stats.ks_statistic_normal(vals) <= 0.001


def test_ks_point_mass():
    assert stats.ks_statistic_normal(np.zeros(500)) == pytest.approx(0.5)
    # far tails: the distance above the CDF (left) and below it (right)
    assert stats.ks_statistic_normal(np.full(500, -9.0)) == pytest.approx(1.0)
    assert stats.ks_statistic_normal(np.full(500, 9.0)) == pytest.approx(1.0)


def test_ks_minimum_sample_size():
    with pytest.raises(ValueError):
        stats.ks_statistic_normal(np.zeros(99))


def test_ks_on_true_normal_draws():
    # 5% critical value 1.358/sqrt(n); expect at least 95 of 100 trials below
    rng = np.random.default_rng(11)
    crit = 1.358 / math.sqrt(10_000)
    below = sum(
        stats.ks_statistic_normal(rng.standard_normal(10_000)) < crit
        for _ in range(100))
    assert below >= 95


# ------------------------------------------------------------- median law

def test_median_density_r1_is_normal_pdf():
    for x in (-2.0, -0.3, 0.0, 1.7):
        assert stats.median_density(x, 1) == pytest.approx(
            math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), rel=1e-12)


def test_median_density_r3_at_zero():
    # 6 * (1/2)(1/2) * phi(0)
    assert stats.median_density(0.0, 3) == pytest.approx(1.5 * 0.3989422804014327, rel=1e-9)


def test_median_density_symmetry_and_tails():
    for x in (0.15, 0.55, 2.0):
        assert stats.median_density(x, 15) == pytest.approx(
            stats.median_density(-x, 15), rel=1e-12)
    assert stats.median_density(15.0, 15) == 0.0


@pytest.mark.parametrize("r", [1, 3, 15, 101])
def test_median_density_normalized(r):
    assert abs(stats.median_density_mass(r) - 1.0) <= 1e-8


@pytest.mark.parametrize("r", [101, 1001])
def test_median_density_at_zero_to_ulps(r):
    # at 0, r! / (k! k!) / 4**k = (2k + 1) * prod_{j <= k} (2j - 1) / (2j), exactly
    k = (r - 1) // 2
    coef = Fraction(2 * k + 1)
    for j in range(1, k + 1):
        coef *= Fraction(2 * j - 1, 2 * j)
    exact = float(coef) / math.sqrt(2.0 * math.pi)
    assert abs(stats.median_density(0.0, r) - exact) <= 4 * math.ulp(exact)


def test_median_density_mass_at_largest_r():
    assert abs(stats.median_density_mass(1001) - 1.0) <= 1e-13


def test_median_law_refuses_r_beyond_its_rule():
    # the fixed rule under-resolves the peak past c4's largest r, 1001
    stats.median_variance(1001)
    for law in (stats.median_density_mass, stats.median_variance):
        with pytest.raises(ValueError, match="r <= 1001"):
            law(1003)


def test_median_law_validation():
    for r in (4, 0, -1):
        with pytest.raises(ValueError, match="positive odd integer"):
            stats.median_density(0.0, r)
    with pytest.raises(ValueError, match="positive odd integer"):
        stats.median_density_mass(4)
    with pytest.raises(ValueError, match="positive odd integer"):
        stats.median_variance(2)


def test_median_variance_r1_exact():
    # Var(median of 3 standard normals) = 1 - sqrt(3)/pi in closed form
    assert stats.median_variance(1) == pytest.approx(1.0, abs=1e-14)
    assert stats.median_variance(3) == pytest.approx(1.0 - math.sqrt(3.0) / math.pi, abs=1e-14)


@pytest.mark.parametrize("r", [1, 3, 15, 101, 1001])
def test_median_law_matches_denser_gauss_legendre(r):
    # an independent, denser rule: 40 nodes on each of 128 panels
    t, w = np.polynomial.legendre.leggauss(40)
    half = 10.0 / 128 / 2.0
    x = ((half * (2.0 * np.arange(128) + 1.0))[:, None] + half * t).ravel()
    wx = np.tile(half * w, 128)
    dens = np.array([stats.median_density(v, r) for v in x])
    assert stats.median_variance(r) == pytest.approx(2.0 * np.dot(wx, x * x * dens), rel=1e-12)
    assert stats.median_density_mass(r) == pytest.approx(2.0 * np.dot(wx, dens), rel=1e-13)


def test_median_variance_approaches_asymptote_from_below():
    # r * Var(median) climbs monotonically toward pi/2
    table = [r * stats.median_variance(r) for r in (3, 15, 101, 1001)]
    assert all(a < b for a, b in zip(table, table[1:]))
    assert all(t < math.pi / 2 for t in table)
    assert table[-1] == pytest.approx(math.pi / 2, rel=5e-3)


def test_median_variance_matches_simulation():
    rng = np.random.default_rng(21)
    sim = np.var(np.median(rng.standard_normal((1_000_000, 3)), axis=1), ddof=1)
    assert stats.median_variance(3) == pytest.approx(sim, rel=0.01)


# ------------------------------------------------------------- histogram

def test_histogram_point_mass():
    # 60 bins on [-5, 5): width 1/6, so a point mass has density 6
    hist = stats.histogram(np.full(50, 0.3))
    assert hist.densities[31] == pytest.approx(6.0, rel=1e-12)
    assert np.count_nonzero(hist.densities) == 1
    assert hist.bin_centers[31] - 1 / 12 <= 0.3 < hist.bin_centers[31] + 1 / 12
    assert hist.n_outside == 0


def test_histogram_all_outside():
    hist = stats.histogram(np.full(30, 9.0))
    assert np.all(hist.densities == 0.0)
    assert hist.n_outside == 30


def test_histogram_uniform_density():
    rng = np.random.default_rng(8)
    n = 600_000
    hist = stats.histogram(rng.uniform(-5, 5, n))
    assert len(hist.densities) == 60
    assert np.all(np.abs(hist.densities - 0.1) < 0.1 * 0.05)
    total = np.sum(hist.densities) * (10.0 / 60)
    assert total == pytest.approx(1.0 - hist.n_outside / n, rel=1e-12)


# ------------------------------------------------------------- slope fit

def test_fit_slope_exact_power_law():
    pts = [(n, 3.7 * n**-1.5) for n in (16, 64, 256, 1024)]
    slope, intercept = stats.fit_slope(pts)
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert intercept == pytest.approx(math.log10(3.7), abs=1e-12)


def test_fit_slope_constant():
    slope, _ = stats.fit_slope([(16, 2.0), (64, 2.0), (256, 2.0)])
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_fit_slope_perturbed_power_law():
    pts = [(2**m, 2**(-2 * m) * (1 + 0.01 * (-1) ** m)) for m in range(4, 13)]
    slope, _ = stats.fit_slope(pts)
    assert -2.02 <= slope <= -1.98


def test_fit_slope_validation():
    with pytest.raises(ValueError):
        stats.fit_slope([(16, 1.0), (64, 0.5)])
    with pytest.raises(ValueError):
        stats.fit_slope([(16, 1.0), (64, 0.0), (256, 0.1)])
    for bad in ([(1, math.nan), (2, 1.0), (4, 0.5)], [(1, math.inf), (2, 1.0), (4, 0.5)],
                [(0, 1.0), (2, 1.0), (4, 0.5)], [(-1, 1.0), (2, 1.0), (4, 0.5)]):
        with pytest.raises(ValueError):
            stats.fit_slope(bad)


def test_fit_slope_rejects_equal_n():
    # equal n leave the slope undefined: a zero variance in log n, not a nan
    with pytest.raises(ValueError, match="at least two distinct n"):
        stats.fit_slope([(16, 0.1)] * 3)
    stats.fit_slope([(16, 0.1), (16, 0.2), (64, 0.05)])  # two distinct n suffice


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=40)
def test_fit_slope_invariant_to_error_rescaling(c):
    pts = [(n, n**-1.2 * (1 + 0.05 * math.sin(n))) for n in (16, 64, 256, 1024)]
    scaled = [(n, c * e) for n, e in pts]
    s1, i1 = stats.fit_slope(pts)
    s2, i2 = stats.fit_slope(scaled)
    assert s2 == pytest.approx(s1, rel=1e-9, abs=1e-12)
    assert i2 - i1 == pytest.approx(math.log10(c), rel=1e-6, abs=1e-9)


def test_nonfinite_values_are_rejected():
    # rescale checks its output, ks_statistic_normal and histogram their input
    checks = (lambda v: stats.rescale(v, F, 64, 1), lambda v: stats.rescale(v, F, 64, 15),
              stats.ks_statistic_normal, stats.histogram)
    for bad in (np.inf, -np.inf, np.nan):
        vals = np.zeros(200)
        vals[7] = bad
        for fn in checks:
            with pytest.raises(ValueError, match="finite"):
                fn(vals)
    out = stats.rescale(np.full(200, 0.4), F, 64, 1)
    assert out.dtype == np.float64 and not out.flags.writeable
    with pytest.raises(ValueError):
        out[0] = 1.0

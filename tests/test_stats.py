import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqmc_median import stats
from rqmc_median.estimators import replicate_batch
from rqmc_median.integrands import builtin
from rqmc_median.scramble import ScramblerKind, ScramblerSpec


# ------------------------------------------------------------- rescaling

def test_rescale_single_units():
    s = stats.rescale_single([0.4], exact_integral=0.4, sigma=0.5, n_points=64)
    assert s.values[0] == 0.0
    shifted = 0.4 + 0.5 * 64**-1.5
    s = stats.rescale_single([shifted], 0.4, 0.5, 64)
    assert s.values[0] == pytest.approx(1.0)


def test_rescale_median_units():
    s = stats.rescale_median([0.4], 0.4, 0.5, 64, 15)
    assert s.values[0] == 0.0
    shifted = 0.4 + 0.5 * math.sqrt(math.pi / 30.0) * 64**-1.5
    s = stats.rescale_median([shifted], 0.4, 0.5, 64, 15)
    assert s.values[0] == pytest.approx(1.0)


def test_rescale_rejects_zero_sigma():
    with pytest.raises(ValueError):
        stats.rescale_single([0.5], 0.5, 0.0, 16)
    with pytest.raises(ValueError):
        stats.rescale_median([0.5], 0.5, 0.0, 16, 3)


def test_rescaled_jittered_linear_variance_is_one():
    # f(x) = x: Var(Q) = 1/(12 n^3) exactly, so the rescaled variance is 1
    f = builtin("linear")
    spec = ScramblerSpec(ScramblerKind.JITTERED, base=2)
    batch = replicate_batch(f, spec, 6, 10_000, master_seed=606)
    sample = stats.rescale_single(batch, f.exact_integral,
                                  math.sqrt(f.exact_sigma2), 64)
    assert 0.97 <= np.var(sample.values, ddof=1) <= 1.03


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
    sample = stats.RescaledSample(np.array(vals))
    assert stats.ks_statistic_normal(sample) <= 0.001


def test_ks_point_mass():
    sample = stats.RescaledSample(np.zeros(500))
    assert stats.ks_statistic_normal(sample) == pytest.approx(0.5)


def test_ks_minimum_sample_size():
    with pytest.raises(ValueError):
        stats.ks_statistic_normal(stats.RescaledSample(np.zeros(99)))


def test_ks_on_true_normal_draws():
    # 5% critical value 1.358/sqrt(n); expect at least 95 of 100 trials below
    rng = np.random.default_rng(11)
    crit = 1.358 / math.sqrt(10_000)
    below = sum(
        stats.ks_statistic_normal(
            stats.RescaledSample(rng.standard_normal(10_000))) < crit
        for _ in range(100))
    assert below >= 95


# ------------------------------------------------------------- median law

def test_median_density_r1_is_normal_pdf():
    law = stats.MedianLawSpec(1, 1.0)
    for x in (-2.0, -0.3, 0.0, 1.7):
        assert stats.median_density(x, law) == pytest.approx(
            math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), rel=1e-12)


def test_median_density_r3_at_zero():
    # 6 * (1/2)(1/2) * phi(0)
    law = stats.MedianLawSpec(3, 1.0)
    assert stats.median_density(0.0, law) == pytest.approx(1.5 * 0.3989422804014327,
                                                           rel=1e-9)


def test_median_density_symmetry_and_tails():
    law = stats.MedianLawSpec(15, 2.0)
    for x in (0.3, 1.1, 4.0):
        assert stats.median_density(x, law) == pytest.approx(
            stats.median_density(-x, law), rel=1e-12)
    assert stats.median_density(30.0, law) == 0.0


@pytest.mark.parametrize("r", [1, 3, 15, 101])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_median_density_normalized(r, sigma):
    mass = stats.median_density_mass(stats.MedianLawSpec(r, sigma))
    assert abs(mass - 1.0) <= 1e-8


def test_median_law_validation():
    with pytest.raises(ValueError):
        stats.MedianLawSpec(4, 1.0)
    with pytest.raises(ValueError):
        stats.MedianLawSpec(3, 0.0)
    with pytest.raises(ValueError):
        stats.median_variance(2, 1.0)


def test_median_variance_r1_exact():
    assert stats.median_variance(1, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert stats.median_variance(1, 2.0) == pytest.approx(4.0, rel=1e-9)


def test_median_variance_scales_with_sigma_squared():
    assert stats.median_variance(15, 2.0) == pytest.approx(
        4.0 * stats.median_variance(15, 1.0), rel=1e-8)


def test_median_variance_approaches_asymptote_from_below():
    # r * Var(median) climbs monotonically toward pi/2
    table = [r * stats.median_variance(r, 1.0) for r in (3, 15, 101, 1001)]
    assert all(a < b for a, b in zip(table, table[1:]))
    assert all(t < math.pi / 2 for t in table)
    assert table[-1] == pytest.approx(math.pi / 2, rel=5e-3)


def test_median_variance_matches_simulation():
    rng = np.random.default_rng(21)
    sim = np.var(np.median(rng.standard_normal((1_000_000, 3)), axis=1), ddof=1)
    assert stats.median_variance(3, 1.0) == pytest.approx(sim, rel=0.01)


# ------------------------------------------------------------- histogram

def test_histogram_point_mass():
    sample = stats.RescaledSample(np.full(50, 0.3))
    hist = stats.histogram(sample, bins=1, value_range=(0.0, 1.0))
    assert hist.densities.tolist() == [1.0]
    assert hist.n_outside == 0


def test_histogram_all_outside():
    sample = stats.RescaledSample(np.full(30, 9.0))
    hist = stats.histogram(sample, bins=4, value_range=(-1.0, 1.0))
    assert np.all(hist.densities == 0.0)
    assert hist.n_outside == 30


def test_histogram_uniform_density():
    rng = np.random.default_rng(8)
    sample = stats.RescaledSample(rng.uniform(-2, 2, 200_000))
    hist = stats.histogram(sample, bins=20, value_range=(-2.0, 2.0))
    assert np.all(np.abs(hist.densities - 0.25) < 0.25 * 0.05)
    total = np.sum(hist.densities) * (4.0 / 20)
    assert total == pytest.approx(1.0 - hist.n_outside / 200_000, rel=1e-12)


def test_histogram_validation():
    sample = stats.RescaledSample(np.zeros(5))
    with pytest.raises(ValueError):
        stats.histogram(sample, bins=0)
    with pytest.raises(ValueError):
        stats.histogram(sample, value_range=(1.0, -1.0))


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


@given(st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=40)
def test_fit_slope_invariant_to_error_rescaling(c):
    pts = [(n, n**-1.2 * (1 + 0.05 * math.sin(n))) for n in (16, 64, 256, 1024)]
    scaled = [(n, c * e) for n, e in pts]
    s1, i1 = stats.fit_slope(pts)
    s2, i2 = stats.fit_slope(scaled)
    assert s2 == pytest.approx(s1, rel=1e-9, abs=1e-12)
    assert i2 - i1 == pytest.approx(math.log10(c), rel=1e-6, abs=1e-9)


def test_rescaled_sample_rejects_nonfinite():
    with pytest.raises(ValueError):
        stats.RescaledSample(np.array([0.0, np.inf]))

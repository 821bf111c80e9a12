"""Acceptance gates shown to catch a wrong law, not only to pass the right one.

Each criterion is fed synthetic input at its own sample sizes: c3 and c4
through a stub run context whose `estimates` returns a stated law, c8
through a replacement for `acceptance.scrambles`, and c9 through a
replacement for its median-law oracle.  The passing side of c3 and c4 is an
exact sample of its law (the normal quantiles at (i - 0.5)/n); the passing
side of c8 and c9 is the real pipeline at the default seed.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest

from rqmc_median import acceptance, stats
from rqmc_median.cli import DEFAULT_SEED
from rqmc_median.integrands import builtin
from rqmc_median.nets import NetPoints
from rqmc_median.scramble import ScramblerKind


class _Stub:
    """A run context whose f2 estimates have the given rescaled errors."""

    def __init__(self, rescaled_law):
        self.rescaled_law = rescaled_law

    def estimates(self, kind, m, count):
        assert (kind, m) == (ScramblerKind.NESTED, 6)
        f = builtin("f2")
        errors = self.rescaled_law(count) * np.sqrt(f.exact_sigma2) / 64**1.5
        return {"f2": f.exact_integral + errors}


def _normal_quantiles(count):
    return np.array([NormalDist().inv_cdf((i - 0.5) / count) for i in range(1, count + 1)])


def test_c3_passes_exact_normal_quantiles():
    res = acceptance._c3(_Stub(_normal_quantiles))
    assert res.passed, res.measured
    assert res.measured["ks"] < 1e-3


def test_c3_fails_a_wider_normal():
    # N(0, 1.25**2) is 0.054 from N(0, 1) in KS distance
    res = acceptance._c3(_Stub(lambda count: 1.25 * _normal_quantiles(count)))
    assert not res.passed
    assert res.measured["ks"] == pytest.approx(0.054, abs=0.001)


def _median_groups(variance_factor):
    """Groups of 15 equal rescaled errors whose common values are the normal
    quantiles scaled to variance_factor * median_variance(15), ddof 1.

    Each group's median is its shared value, so c4's rescaled median
    variance is variance_factor times its oracle, up to rounding."""

    def law(count):
        q = _normal_quantiles(count // 15)
        q *= math.sqrt(variance_factor * stats.median_variance(15) / np.var(q, ddof=1))
        return np.repeat(q, 15)

    return law


def test_c4_passes_the_oracle_variance():
    res = acceptance._c4(_Stub(_median_groups(1.0)))
    assert res.passed, res.measured
    assert res.measured["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_c4_fails_a_wider_median_law():
    # the window is 10 %
    res = acceptance._c4(_Stub(_median_groups(1.25)))
    assert not res.passed
    assert res.measured["ratio"] == pytest.approx(1.25, abs=1e-9)
    assert res.measured["r1001_over_limit"] == pytest.approx(1.0, abs=0.005)


def _offset_scrambles(draw_offsets):
    """A stand-in for estimators.scrambles whose replicate j puts stratum i's
    point at (i + offsets[j, i]) / n."""
    rng = np.random.default_rng(8)

    def scrambles(spec, m, keys):
        assert (spec.kind, spec.base) == (ScramblerKind.NESTED, 2)
        n, strata = 2**m, np.arange(2**m)
        for offsets in draw_offsets(rng, (len(keys), n)):
            yield NetPoints(2, m, (strata + offsets) / n, strata)

    return scrambles


def test_c8_passes_the_real_pipeline():
    res = acceptance._c8(acceptance._RunContext(DEFAULT_SEED))
    assert res.passed, res.measured


def test_c8_fails_one_offset_shared_by_every_stratum(monkeypatch):
    # each stratum's offsets are uniform, but all strata move together (rho = 1)
    shared = lambda rng, shape: np.repeat(rng.random((shape[0], 1)), shape[1], axis=1)
    monkeypatch.setattr(acceptance, "scrambles", _offset_scrambles(shared))
    res = acceptance._c8(acceptance._RunContext(DEFAULT_SEED))
    assert not res.passed
    assert res.measured["rho_max"] == pytest.approx(1.0)
    assert res.measured["ks_max"] < 0.02  # caught by the correlation alone


def test_c8_fails_squared_uniform_offsets(monkeypatch):
    # independent offsets, but u**2 is 0.25 from Uniform(0, 1) in KS distance
    squared = lambda rng, shape: rng.random(shape) ** 2
    monkeypatch.setattr(acceptance, "scrambles", _offset_scrambles(squared))
    res = acceptance._c8(acceptance._RunContext(DEFAULT_SEED))
    assert not res.passed
    assert res.measured["ks_max"] == pytest.approx(0.25, abs=0.02)
    assert res.measured["rho_max"] < 0.05  # caught by the KS statistic alone


def test_c9_passes_the_real_oracle():
    res = acceptance._c9(acceptance._RunContext(DEFAULT_SEED))
    assert res.passed, res.measured


def test_c9_fails_a_variance_2_percent_high(monkeypatch):
    # the window on simulated over quadrature variance is 1 %
    exact = stats.median_variance
    monkeypatch.setattr(stats, "median_variance", lambda r: 1.02 * exact(r))
    res = acceptance._c9(acceptance._RunContext(DEFAULT_SEED))
    assert not res.passed
    assert res.measured["sim_var_r3"] / res.measured["quad_var_r3"] == pytest.approx(
        1 / 1.02, abs=0.005)
    assert max(v for k, v in res.measured.items() if k.startswith("mass_defect")) <= 1e-8


def test_c9_fails_a_mass_2e_8_high(monkeypatch):
    # the window on each density's mass is 1e-8
    monkeypatch.setattr(stats, "median_density_mass", lambda r: 1.0 + 2e-8)
    res = acceptance._c9(acceptance._RunContext(DEFAULT_SEED))
    assert not res.passed
    assert res.measured["mass_defect_r1"] == pytest.approx(2e-8)
    assert abs(res.measured["sim_var_r3"] / res.measured["quad_var_r3"] - 1.0) <= 0.01

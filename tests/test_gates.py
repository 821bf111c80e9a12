"""Acceptance gates shown to catch a wrong law, not only to pass the right one.

Each criterion is fed synthetic input at its own sample sizes: c1 to c6
through a stub run context whose `estimates` returns a stated law per
(kind, m), c7 and c8 through a replacement for `acceptance.scrambles`, and
c9 through a replacement for its median-law oracle.  The passing side of c1
to c5 is an exact sample of its law (the normal quantiles at (i - 0.5)/n,
scaled to the sample variance the criterion tests), and of c6 an exact
power of n; the passing side of c7, c8 and c9 is the real pipeline at the
default seed.  c10 runs over nine constant stand-in criteria.
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

NESTED, JITTERED = ScramblerKind.NESTED, ScramblerKind.JITTERED
MATOUSEK, TEZUKA, STRIPED = ScramblerKind.MATOUSEK, ScramblerKind.TEZUKA, ScramblerKind.STRIPED


class _Stub:
    """A run context whose estimates for (kind, m) are laws[kind, m](count),
    a map from integrand name to estimates."""

    def __init__(self, laws):
        self.laws = laws

    def estimates(self, kind, m, count):
        return self.laws[kind, m](count)


def _normal_quantiles(count):
    return np.array([NormalDist().inv_cdf((i - 0.5) / count) for i in range(1, count + 1)])


def _normal_sample(count, variance):
    """The normal quantiles scaled to the given sample variance, ddof 1."""
    q = _normal_quantiles(count)
    return q * math.sqrt(variance / np.var(q, ddof=1))


def _errors(fnames, m, rescaled_law):
    """A law whose estimates of each named integrand at n = 2**m have the
    rescaled errors rescaled_law(count)."""

    def law(count):
        errors = rescaled_law(count)
        return {name: builtin(name).exact_integral
                + errors * np.sqrt(builtin(name).exact_sigma2) / (2**m) ** 1.5
                for name in fnames}

    return law


def _f2_at_64(rescaled_law):
    return _Stub({(NESTED, 6): _errors(["f2"], 6, rescaled_law)})


def _normal_law(fnames, variance_factor):
    """Estimates at n = 64 whose rescaled errors have sample variance
    variance_factor: sigma^2/64**3 times it in the estimates."""
    return _errors(fnames, 6, lambda count: _normal_sample(count, variance_factor))


def test_c1_passes_the_exact_variance():
    law = _normal_law(["linear"], 1.0)
    res = acceptance._c1(_Stub({(JITTERED, 6): law, (NESTED, 6): law}))
    assert res.passed, res.measured
    assert res.measured["ratio_nested"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("factor", [1.05, 0.95])
def test_c1_fails_a_variance_5_percent_off(factor):
    # the window is 1 %; only jittered is off
    res = acceptance._c1(_Stub({(JITTERED, 6): _normal_law(["linear"], factor),
                                (NESTED, 6): _normal_law(["linear"], 1.0)}))
    assert not res.passed
    assert res.measured["ratio_jittered"] == pytest.approx(factor, abs=1e-9)


def _c2_stub(striped_factor):
    """Every kind's f1 and f2 estimates at sigma^2/64**3, striped's times a factor."""
    return _Stub({(kind, 6): _normal_law(["f1", "f2"], striped_factor if kind == STRIPED else 1.0)
                  for kind in (NESTED, MATOUSEK, TEZUKA, STRIPED)})


def test_c2_passes_equal_exact_variances():
    res = acceptance._c2(_c2_stub(1.0))
    assert res.passed, res.measured
    assert res.measured["f2_max_over_min"] == pytest.approx(1.0, abs=1e-9)


def test_c2_fails_striped_15_percent_low():
    res = acceptance._c2(_c2_stub(0.85))
    assert not res.passed
    assert res.measured["f1_striped_over_theory"] == pytest.approx(0.85, abs=1e-9)


def test_c2_fails_a_spread_of_6_percent():
    # each kind within c2's 10 % of theory, but max/min 1/0.94 > 1.05
    res = acceptance._c2(_c2_stub(0.94))
    assert not res.passed
    assert all(abs(v - 1) <= 0.1 for k, v in res.measured.items() if k.endswith("_theory"))
    assert res.measured["f1_max_over_min"] == pytest.approx(1 / 0.94, abs=1e-9)


def test_c3_passes_exact_normal_quantiles():
    res = acceptance._c3(_f2_at_64(_normal_quantiles))
    assert res.passed, res.measured
    assert res.measured["ks"] < 1e-3


def test_c3_fails_a_wider_normal():
    # N(0, 1.25**2) is 0.054 from N(0, 1) in KS distance
    res = acceptance._c3(_f2_at_64(lambda count: 1.25 * _normal_quantiles(count)))
    assert not res.passed
    assert res.measured["ks"] == pytest.approx(0.054, abs=0.001)


def _median_groups(variance_factor):
    """Groups of 15 equal rescaled errors whose common values are the normal
    quantiles scaled to variance_factor * median_variance(15), ddof 1.

    Each group's median is its shared value, so c4's rescaled median
    variance is variance_factor times its oracle, up to rounding."""
    return lambda count: np.repeat(
        _normal_sample(count // 15, variance_factor * stats.median_variance(15)), 15)


def test_c4_passes_the_oracle_variance():
    res = acceptance._c4(_f2_at_64(_median_groups(1.0)))
    assert res.passed, res.measured
    assert res.measured["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_c4_fails_a_wider_median_law():
    # the window is 10 %
    res = acceptance._c4(_f2_at_64(_median_groups(1.25)))
    assert not res.passed
    assert res.measured["ratio"] == pytest.approx(1.25, abs=1e-9)
    assert res.measured["r1001_over_limit"] == pytest.approx(1.0, abs=0.005)


def _c5_stub(mat64, mat16):
    """f2 medians of 15 whose rescaled variances are nested's times mat64
    (matousek, n = 64) and mat16 (matousek, n = 16)."""
    return _Stub({(NESTED, 6): _errors(["f2"], 6, _median_groups(1.0)),
                  (MATOUSEK, 6): _errors(["f2"], 6, _median_groups(mat64)),
                  (MATOUSEK, 4): _errors(["f2"], 4, _median_groups(mat16))})


def test_c5_passes_matousek_below_nested_and_falling():
    res = acceptance._c5(_c5_stub(0.1, 0.4))
    assert res.passed, res.measured
    assert res.measured["decay_factor"] == pytest.approx(4.0, rel=1e-9)


@pytest.mark.parametrize("mat64, mat16", [(1.0, 4.0), (0.1, 0.15)],
                         ids=["matousek-as-nested", "decay-1.5"])
def test_c5_fails(mat64, mat16):
    res = acceptance._c5(_c5_stub(mat64, mat16))
    assert not res.passed
    assert res.measured["decay_factor"] == pytest.approx(mat16 / mat64, rel=1e-9)


def _c6_stub(nested_slope, matousek_slope):
    """Constant f1 and f2 estimates whose errors are n**slope at n = 2**m."""
    law = lambda slope, m: lambda count: {
        name: np.full(count, builtin(name).exact_integral + 2.0 ** (m * slope))
        for name in ("f1", "f2")}
    return _Stub({(kind, m): law(slope, m) for m in range(4, 13)
                  for kind, slope in ((NESTED, nested_slope), (MATOUSEK, matousek_slope))})


def test_c6_passes_the_paper_rates():
    res = acceptance._c6(_c6_stub(-1.5, -2.5))
    assert res.passed, res.measured
    assert res.measured["slope_nested_f1"] == pytest.approx(-1.5, abs=1e-7)
    assert res.measured["slope_matousek_f2"] == pytest.approx(-2.5, abs=1e-7)


@pytest.mark.parametrize("nested, matousek", [(-1.5, -1.5), (-1.2, -2.5)],
                         ids=["matousek-at-nested-rate", "nested-too-slow"])
def test_c6_fails(nested, matousek):
    res = acceptance._c6(_c6_stub(nested, matousek))
    assert not res.passed
    assert res.measured["slope_nested_f2"] == pytest.approx(nested, abs=1e-7)
    assert res.measured["slope_matousek_f2"] == pytest.approx(matousek, abs=1e-7)


def test_c7_passes_the_real_pipeline():
    res = acceptance._c7(acceptance._RunContext(DEFAULT_SEED))
    assert res.passed, res.measured


def test_c7_fails_a_repeated_stratum(monkeypatch):
    # the first scramble of each cell with m >= 1 puts points 0 and 1 in one stratum
    real = acceptance.scrambles

    def scrambles(spec, m, seed, streams):
        for j, net in enumerate(real(spec, m, seed, streams)):
            if j == 0 and m >= 1:
                points, strata = net.points.copy(), net.strata.copy()
                points[1], strata[1] = points[0], strata[0]
                net = NetPoints(net.base, m, points, strata)
            yield net

    monkeypatch.setattr(acceptance, "scrambles", scrambles)
    res = acceptance._c7(acceptance._RunContext(DEFAULT_SEED))
    assert not res.passed
    # 18 of the 3 x 7 (base, m) cells have m >= 1
    assert {v for k, v in res.measured.items() if k.startswith("failures_")} == {18}


def _offset_scrambles(draw_offsets):
    """A stand-in for estimators.scrambles whose replicate j puts stratum i's
    point at (i + offsets[j, i]) / n."""
    rng = np.random.default_rng(8)

    def scrambles(spec, m, seed, streams):
        assert (spec.kind, spec.base) == (ScramblerKind.NESTED, 2)
        n, strata = 2**m, np.arange(2**m)
        for offsets in draw_offsets(rng, (len(streams), n)):
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


def _constant_criteria():
    """Nine stand-in criteria, each passing with one fixed measured value."""
    return {i: (lambda ctx, i=i: acceptance.CriterionResult(i, f"stub-{i}", True, {"value": i}))
            for i in range(1, 10)}


def test_c10_passes_two_equal_passes(monkeypatch):
    monkeypatch.setattr(acceptance, "_CRITERIA", _constant_criteria())
    (res,) = acceptance.run_acceptance(DEFAULT_SEED, [10])
    assert res.index == 10 and res.passed


def test_c10_fails_a_value_that_changes_on_the_second_pass(monkeypatch):
    calls = []

    def drifting(ctx):
        calls.append(ctx)
        return acceptance.CriterionResult(4, "stub-4", True, {"value": 3 + len(calls)})

    monkeypatch.setattr(acceptance, "_CRITERIA", {**_constant_criteria(), 4: drifting})
    (res,) = acceptance.run_acceptance(DEFAULT_SEED, [10])
    assert len(calls) == 2 and not res.passed
    # 4 and 5 print alike in length: the passes differ in bytes, not in size
    assert res.measured["bytes_first"] == res.measured["bytes_second"]

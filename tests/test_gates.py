"""Acceptance gates shown to catch a wrong law, not only to pass the right one.

Each criterion is fed synthetic input at its own sample sizes: c3 through a
stub run context whose `estimates` returns a stated law, c8 through a
replacement for `acceptance.scrambles`.  The passing side of c3 is an exact
sample of its law (the normal quantiles at (i - 0.5)/n); the passing side of
c8 is the real pipeline at the default seed.
"""

from statistics import NormalDist

import numpy as np
import pytest

from rqmc_median import acceptance
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

"""Independent oracle: scipy's scrambled Sobol' sequence against `matousek`.

The first coordinate of `scipy.stats.qmc.Sobol(d=1, scramble=True, bits=53)`
is the base-2 van der Corput net under a random lower-triangular matrix
scramble with unit diagonal plus a random digital shift (scipy's LMS +
shift), which is matousek scrambling in base 2 written independently of
this package.  Fixed seeds, m = 6, and two checks:

* each side's single-net variance lies within 5 standard errors of
  sigma**2 / n**3.  The estimates are heavy-tailed (excess kurtosis about
  30), so the standard error of a sample variance comes from the sample's
  own fourth moment: about 6 % for our 10 000 replicates and 9 % for
  scipy's 4 000, which cost 0.7 ms each;
* a two-sample KS test of the two sides' estimates has p >= 0.001, and so
  does one of their medians of 15, cut from the same estimates (666
  medians on our side, 266 on scipy's).
"""

import pytest

pytest.importorskip("scipy")

import numpy as np  # noqa: E402
from scipy.stats import ks_2samp, qmc  # noqa: E402

from rqmc_median.estimators import estimates  # noqa: E402
from rqmc_median.integrands import builtin  # noqa: E402
from rqmc_median.scramble import ScramblerSpec  # noqa: E402

M = 6


def _scipy_estimates(fs, seed, reps):
    out = np.empty((reps, len(fs)))
    for j in range(reps):
        engine = qmc.Sobol(d=1, scramble=True, bits=53, rng=np.random.default_rng([seed, j]))
        x = engine.random_base2(M)[:, 0]
        out[j] = [np.mean(f.eval(x)) for f in fs]
    return out


def _relative_se_of_variance(est):
    """Standard error of the sample variance over the variance, from the sample's kurtosis."""
    r = len(est)
    dev = est - est.mean()
    kurt = np.mean(dev**4) / np.mean(dev**2) ** 2
    return np.sqrt(kurt / r - (r - 3) / (r * (r - 1)))


@pytest.fixture(scope="module")
def both_sides():
    fs = [builtin("f1"), builtin("f2")]
    ours = estimates(fs, ScramblerSpec("matousek"), M, 20251018, range(10_000))
    return fs, ours, _scipy_estimates(fs, 20251019, 4_000)


def test_matousek_matches_scipy_sobol(both_sides):
    fs, ours, theirs = both_sides
    n = 2**M
    for k, f in enumerate(fs):
        theory = f.exact_sigma2 / n**3
        for side, est in (("matousek", ours[:, k]), ("scipy Sobol", theirs[:, k])):
            ratio = np.var(est, ddof=1) / theory
            se = _relative_se_of_variance(est)
            assert abs(ratio - 1.0) <= 5 * se, (
                f"{side} {f.name}: variance / (sigma^2/n^3) = {ratio:.3f}, standard error {se:.3f}")
        p = ks_2samp(ours[:, k], theirs[:, k]).pvalue
        assert p >= 1e-3, f"{f.name}: two-sample KS p = {p:.2e}"


def _medians_of(est, r):
    """Medians of consecutive, disjoint groups of r estimates."""
    return np.median(est[:len(est) // r * r].reshape(-1, r), axis=1)


def test_median_of_15_matches_scipy_sobol(both_sides):
    fs, ours, theirs = both_sides
    for k, f in enumerate(fs):
        p = ks_2samp(_medians_of(ours[:, k], 15), _medians_of(theirs[:, k], 15)).pvalue
        assert p >= 1e-3, f"{f.name}: two-sample KS p = {p:.2e} on the medians of 15"

"""Randomized quasi-Monte Carlo on one-dimensional digital nets.

Scrambled (0, m, 1)-nets under nested (permutation-tree), jittered, and
affine matrix randomizations; average and median replicate estimators; and
the statistical tooling (rescaled errors, order-statistic median laws,
KS normality checks, convergence-slope fits) used to compare them.
"""

from . import stats
from .estimators import median_estimator, replicate_batch
from .integrands import builtin
from .scramble import ScramblerSpec

__all__ = ["ScramblerSpec", "builtin", "median_estimator", "replicate_batch", "stats"]

__version__ = "0.1.0"

"""Randomized quasi-Monte Carlo on one-dimensional digital nets.

Scrambled (0, m, 1)-nets under nested (permutation-tree), jittered, and
affine matrix randomizations; average and median replicate estimators; and
the statistical tooling (rescaled errors, order-statistic median laws,
KS normality checks, convergence-slope fits) used to compare them.
"""

from . import stats
from .digits import DigitVector, default_depth, expand, value
from .estimators import (
    ReplicateBatch,
    average_estimator,
    estimates,
    median_estimator,
    q_estimate,
    replicate_batch,
)
from .integrands import IntegrandSpec, builtin, builtin_names, sigma2_by_quadrature
from .nets import NetPoints, is_net, van_der_corput_net
from .scramble import (
    LINEAR_KINDS,
    RandomStream,
    ScramblerKind,
    ScramblerSpec,
    apply_scrambler,
    scramble_jittered,
    scramble_linear,
    scramble_nested,
)

__all__ = [
    "DigitVector",
    "IntegrandSpec",
    "LINEAR_KINDS",
    "NetPoints",
    "RandomStream",
    "ReplicateBatch",
    "ScramblerKind",
    "ScramblerSpec",
    "apply_scrambler",
    "average_estimator",
    "builtin",
    "builtin_names",
    "default_depth",
    "estimates",
    "expand",
    "is_net",
    "median_estimator",
    "q_estimate",
    "replicate_batch",
    "scramble_jittered",
    "scramble_linear",
    "scramble_nested",
    "sigma2_by_quadrature",
    "stats",
    "value",
    "van_der_corput_net",
]

__version__ = "0.1.0"

"""Single-net, average-of-replicates, and median-of-replicates estimators.

`estimates` is the one replicate loop: every estimate in the library comes
from it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .integrands import IntegrandSpec
from .nets import NetPoints, van_der_corput_net
from .scramble import RandomStream, ScramblerSpec, apply_scrambler

__all__ = [
    "ReplicateBatch",
    "average_estimator",
    "estimates",
    "median_estimator",
    "q_estimate",
    "replicate_batch",
]


@dataclass(frozen=True)
class ReplicateBatch:
    """r independent single-net estimates of one integral.

    Replicate j (0-based) was produced with stream_id = j under
    `master_seed`, so any replicate is reproducible in isolation.
    """

    estimates: tuple[float, ...]
    n_points: int
    r: int
    scrambler: ScramblerSpec
    integrand: str
    master_seed: int

    def __post_init__(self):
        if self.r < 1 or len(self.estimates) != self.r:
            raise ValueError("estimates length must equal r >= 1")


def q_estimate(f: IntegrandSpec, pts: NetPoints) -> float:
    """Equal-weight average of f over the points, compensated summation."""
    vals = f.eval(pts.points)
    return math.fsum(np.asarray(vals).tolist()) / pts.n


def estimates(fs: Sequence[IntegrandSpec], spec: ScramblerSpec, m: int,
              keys: Sequence[tuple[int, int]]) -> np.ndarray:
    """Single-net estimates, shape (len(keys), len(fs)).

    Row j scrambles the (spec.base, m) van der Corput net with stream
    keys[j] = (master_seed, stream_id) and averages every integrand over the
    same points.
    """
    pts = van_der_corput_net(spec.base, m)
    out = np.empty((len(keys), len(fs)))
    for j, (seed, stream) in enumerate(keys):
        scrambled = apply_scrambler(pts, spec, RandomStream(seed, stream))
        out[j] = [q_estimate(f, scrambled) for f in fs]
    return out


def replicate_batch(f: IntegrandSpec, spec: ScramblerSpec, m: int, r: int,
                    master_seed: int) -> ReplicateBatch:
    """r independent scrambled-net estimates, one stream per replicate."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    est = estimates([f], spec, m, [(master_seed, j) for j in range(r)])[:, 0]
    return ReplicateBatch(tuple(est.tolist()), spec.base**m, r, spec, f.name, master_seed)


def average_estimator(batch: ReplicateBatch) -> float:
    return math.fsum(batch.estimates) / batch.r


def median_estimator(batch: ReplicateBatch) -> float:
    """Sample median; for even r, the midpoint of the two central order statistics."""
    return float(np.median(batch.estimates))

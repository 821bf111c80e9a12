"""Single-net, average-of-replicates, and median-of-replicates estimators.

`scrambles` is the one replicate loop: every scramble in the library, and
so every estimate, comes from it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .integrands import IntegrandSpec
from .nets import NetPoints, van_der_corput_net
from .scramble import RandomStream, ScramblerSpec, apply_scrambler

__all__ = [
    "average_estimator",
    "estimates",
    "median_estimator",
    "q_estimate",
    "replicate_batch",
    "scrambles",
]


def q_estimate(f: IntegrandSpec, pts: NetPoints) -> float:
    """Equal-weight average of f over the points, compensated summation."""
    vals = f.eval(pts.points)
    return math.fsum(np.asarray(vals).tolist()) / pts.n


def scrambles(spec: ScramblerSpec, m: int,
              keys: Iterable[tuple[int, int]]) -> Iterator[NetPoints]:
    """One scramble of the (spec.base, m) van der Corput net per key.

    Key (master_seed, stream_id) draws from its own stream, so any
    replicate can be reproduced on its own.
    """
    pts = van_der_corput_net(spec.base, m)
    for seed, stream in keys:
        yield apply_scrambler(pts, spec, RandomStream(seed, stream))


def estimates(fs: Sequence[IntegrandSpec], spec: ScramblerSpec, m: int,
              keys: Sequence[tuple[int, int]]) -> np.ndarray:
    """Single-net estimates, shape (len(keys), len(fs)): row j averages every
    integrand over the same scramble, the one of keys[j]."""
    out = np.empty((len(keys), len(fs)))
    for j, net in enumerate(scrambles(spec, m, keys)):
        out[j] = [q_estimate(f, net) for f in fs]
    return out


def replicate_batch(f: IntegrandSpec, spec: ScramblerSpec, m: int, r: int,
                    master_seed: int) -> np.ndarray:
    """r independent scrambled-net estimates, shape (r,); replicate j is
    stream (master_seed, j)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return estimates([f], spec, m, [(master_seed, j) for j in range(r)])[:, 0]


def _check_nonempty(values: Sequence[float]):
    if len(values) == 0:
        raise ValueError("need at least one estimate")


def average_estimator(values: Sequence[float]) -> float:
    _check_nonempty(values)
    return math.fsum(values) / len(values)


def median_estimator(values: Sequence[float]) -> float:
    """Sample median; for even r, the midpoint of the two central order statistics."""
    _check_nonempty(values)
    return float(np.median(values))

"""Single-net and median-of-replicates estimators.

`scrambles` is the one replicate loop: every scramble in the library, and
so every estimate, comes from it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from .integrands import IntegrandSpec
from .nets import NetPoints, van_der_corput_net
from .scramble import RandomStream, ScramblerSpec, apply_scrambler

__all__ = [
    "estimates",
    "median_estimator",
    "q_estimate",
    "replicate_batch",
    "scrambles",
]


_EXACT_SUM_MIN = 1024  # from this many values on, _exact_sum beats math.fsum on a list


def _exact_sum(vals: np.ndarray) -> float:
    """math.fsum(vals), the correctly rounded sum of a float64 array, in numpy.

    A value is a 53-bit integer times 2**(e - 53): bincount sums its halves
    below 2**27 and 2**26 per exponent exactly (n < 2**26), Python ints add the
    buckets.  Non-finite values, values from 2**990 up (fsum's partials may
    overflow) and zero sums (fsum sets their sign) go to math.fsum itself.
    """
    mant, exp = np.frexp(vals)
    if not (np.isfinite(vals).all() and exp.max() <= 990 and len(vals) < 1 << 26):
        return math.fsum(vals.tolist())
    upper = np.trunc(mant * 2.0**27)
    low = int(exp.min())
    halves = (upper, mant * 2.0**53 - upper * 2.0**26)
    sums = [np.bincount(exp - low, weights=half).tolist() for half in halves]
    total = sum(((int(u) << 26) + int(l)) << k for k, (u, l) in enumerate(zip(*sums)))
    if total == 0:
        return math.fsum(vals.tolist())
    return float(total << (low - 53)) if low >= 53 else total / (1 << (53 - low))


def q_estimate(f: IntegrandSpec, pts: NetPoints) -> float:
    """Equal-weight average of f over the points: the correctly rounded sum
    (the bits of math.fsum) over n, summed in numpy from _EXACT_SUM_MIN points on."""
    vals = np.asarray(f.eval(pts.points))
    fast = vals.dtype == np.float64 and len(vals) >= _EXACT_SUM_MIN
    return (_exact_sum(vals) if fast else math.fsum(vals.tolist())) / pts.n


def scrambles(spec: ScramblerSpec, m: int, seed: int, streams: range) -> Iterator[NetPoints]:
    """One scramble of the (spec.base, m) van der Corput net per stream id.

    Replicate j draws from RandomStream(seed, streams[j]) alone, so any
    replicate can be reproduced on its own.
    """
    pts = van_der_corput_net(spec.base, m)
    for stream in streams:
        yield apply_scrambler(pts, spec, RandomStream(seed, stream))


def estimates(fs: Sequence[IntegrandSpec], spec: ScramblerSpec, m: int, seed: int,
              streams: range) -> np.ndarray:
    """Single-net estimates, shape (len(streams), len(fs)): row j averages
    every integrand over the same scramble, that of stream streams[j]."""
    out = np.empty((len(streams), len(fs)))
    for j, net in enumerate(scrambles(spec, m, seed, streams)):
        out[j] = [q_estimate(f, net) for f in fs]
    return out


def replicate_batch(f: IntegrandSpec, spec: ScramblerSpec, m: int, r: int,
                    master_seed: int) -> np.ndarray:
    """r independent scrambled-net estimates, shape (r,); replicate j is
    stream (master_seed, j)."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return estimates([f], spec, m, master_seed, range(r))[:, 0]


def median_estimator(values: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Sample median over the last axis; for even r, the midpoint of the two
    central order statistics.  r values give a float, a (reps, r) array one
    median per row; inf - inf and overflow in the midpoint stay silent."""
    vals = np.asarray(values)
    if vals.size == 0:
        raise ValueError("need at least one estimate")
    with np.errstate(all="ignore"):
        return np.median(vals, axis=-1)

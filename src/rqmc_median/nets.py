"""One-dimensional (0, m, 1)-nets in base b and the net-property check."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["NetPoints", "is_net", "van_der_corput_net"]

_MAX_POINTS = 1 << 53  # strata and n must be exact doubles for pts = strata / n


class NetPoints:
    """An ordered set of base**m points in [0, 1) claimed to be a (0, m, 1)-net.

    Instances are treated as immutable and hold two read-only arrays:
    `points` (float64) and `strata` (int64), each point's exact stratum
    floor(x * n).  The strata are required: the code that builds a net (the
    van der Corput constructor, the scramblers) knows them exactly, where a
    double on a stratum edge may have rounded into the stratum below.
    """

    def __init__(self, base: int, m: int, points: np.ndarray, strata: np.ndarray):
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        n = base**m
        points = np.ascontiguousarray(points, dtype=np.float64)
        strata = np.ascontiguousarray(strata, dtype=np.int64)
        if points.shape != (n,) or strata.shape != (n,):
            raise ValueError(f"expected {n} points and strata for base {base}, m {m}, got "
                             f"shapes {points.shape} and {strata.shape}")
        for arr in (points, strata):
            arr.flags.writeable = False
        self.base = base
        self.m = m
        self.points = points
        self.strata = strata
        self._is_net: bool | None = None

    @property
    def n(self) -> int:
        return self.base**self.m

    def __repr__(self):
        return f"NetPoints(base={self.base}, m={self.m}, n={self.n})"


@functools.lru_cache(maxsize=128)
def van_der_corput_net(base: int, m: int) -> NetPoints:
    """First base**m points of the base-b radical-inverse sequence.

    Point i carries the base-b digits of i mirrored across the radix point,
    which places exactly one point in each interval [i/b**m, (i+1)/b**m).
    The mirrored digits, read as an integer, are the point's exact stratum.
    Results are cached per (base, m); callers share one immutable instance.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    n = base**m
    if n > _MAX_POINTS:
        raise ValueError(f"net size {base}**{m} exceeds 2**53 points")
    quot = np.arange(n, dtype=np.int64)
    strata = np.zeros(n, dtype=np.int64)
    for _ in range(m):  # digit k of the point is the k-th least significant digit of i
        quot, digit = np.divmod(quot, base)
        strata = strata * base + digit
    pts = strata / n  # correctly rounded: strata and n are exact doubles
    return NetPoints(base, m, pts, strata)


def is_net(pts: NetPoints) -> bool:
    """True iff every point lies in [0, 1), so x = 1.0 fails, the strata the
    net states hold exactly one point each, and each point lies within
    2**-50 of the stratum it states (an odd-base double may round onto the
    stratum's edge)."""
    if pts._is_net is not None:
        return pts._is_net
    x = pts.points
    n = pts.n
    ok = bool(np.all((x >= 0.0) & (x < 1.0)))
    if ok:
        strata = pts.strata
        ok = bool(np.all((strata >= 0) & (strata < n)))
        ok = ok and bool(np.all(np.bincount(strata, minlength=n) == 1))
        ok = ok and bool(np.all(np.abs(x * n - strata - 0.5) <= 0.5 + 2.0**-50 * n))
    pts._is_net = ok
    return ok

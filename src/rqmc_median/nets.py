"""One-dimensional (0, m, 1)-nets in base b and the net-property check."""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["NetPoints", "is_net", "van_der_corput_net"]

_MAX_POINTS = 1 << 62  # reject sizes past a signed 64-bit index space

# relative slack when deriving strata from floats: a boundary point stored as
# a double can sit a few ulps below its stratum's left edge
_STRATUM_TOL = 2.0**-50


class NetPoints:
    """An ordered set of base**m points in [0, 1) claimed to be a (0, m, 1)-net.

    Instances are treated as immutable and hold two read-only arrays:
    `points` (float64) and `strata` (int64), each point's stratum
    floor(x * n).  Code that knows the strata exactly (net constructors,
    scramblers) passes them; a float-only net reads them off the floats with
    a few ulps of upward slack, so a boundary point whose double rounded low
    still lands in its intended stratum (a point would need ~50 specific
    digits to be misread, probability ~2**-50 per point).
    """

    def __init__(self, base: int, m: int, points: np.ndarray,
                 strata: np.ndarray | None = None):
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        n = base**m
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.shape != (n,):
            raise ValueError(f"expected {n} points for base {base}, m {m}, got shape {points.shape}")
        if strata is None:
            with np.errstate(all="ignore"):  # a non-finite point fails is_net, not here
                strata = np.floor(points * n + n * _STRATUM_TOL).astype(np.int64)
        else:
            strata = np.ascontiguousarray(strata, dtype=np.int64)
            if strata.shape != (n,):
                raise ValueError(f"expected {n} strata, got shape {strata.shape}")
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
        raise ValueError(f"net size {base}**{m} exceeds the supported index range")
    quot = np.arange(n, dtype=np.int64)
    strata = np.zeros(n, dtype=np.int64)
    for _ in range(m):  # digit k of the point is the k-th least significant digit of i
        quot, digit = np.divmod(quot, base)
        strata = strata * base + digit
    pts = strata / n  # correctly rounded: strata and n are exact doubles below 2**53
    return NetPoints(base, m, pts, strata=strata)


def is_net(pts: NetPoints) -> bool:
    """True iff each stratum [i/n, (i+1)/n) holds exactly one point.

    x = 1.0 is outside the domain and makes the check fail.
    """
    if pts._is_net is not None:
        return pts._is_net
    x = pts.points
    n = pts.n
    ok = bool(np.all((x >= 0.0) & (x < 1.0)))
    if ok:
        strata = pts.strata
        ok = bool(np.all((strata >= 0) & (strata < n)))
        ok = ok and bool(np.all(np.bincount(strata, minlength=n) == 1))
    pts._is_net = ok
    return ok

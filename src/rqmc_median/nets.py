"""One-dimensional (0, m, 1)-nets in base b and the net-property check."""

from __future__ import annotations

import functools

import numpy as np

from .digits import expand

__all__ = ["NetPoints", "is_net", "stratum_indices", "van_der_corput_net"]

_MAX_POINTS = 1 << 62  # reject sizes past a signed 64-bit index space

# relative slack when deriving strata from floats: a boundary point stored as
# a double can sit a few ulps below its stratum's left edge
_STRATUM_TOL = 2.0**-50


class NetPoints:
    """An ordered set of base**m points in [0, 1) claimed to be a (0, m, 1)-net.

    Instances are treated as immutable: `points` is a read-only float64 array.
    Digit matrices at a requested depth are derived lazily and cached, using
    exact digits supplied by the constructing code when available (net
    constructors know their digits exactly and never round-trip through
    floats).  Scramblers, which work on integer codes, pass each point's
    exact stratum index instead.
    """

    def __init__(self, base: int, m: int, points: np.ndarray,
                 exact_digits: np.ndarray | None = None,
                 strata: np.ndarray | None = None):
        if base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        n = base**m
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.shape != (n,):
            raise ValueError(f"expected {n} points for base {base}, m {m}, got shape {points.shape}")
        points.flags.writeable = False
        self.base = base
        self.m = m
        self.points = points
        # exact_digits: (n, k) leading digits with an implicit all-zero tail
        if exact_digits is not None:
            exact_digits = np.ascontiguousarray(exact_digits, dtype=np.uint8)
            exact_digits.flags.writeable = False
        self._exact_digits = exact_digits
        if strata is not None:
            strata = np.ascontiguousarray(strata, dtype=np.int64)
            if strata.shape != (n,):
                raise ValueError(f"expected {n} strata, got shape {strata.shape}")
            strata.flags.writeable = False
        self._strata = strata
        self._digit_cache: dict[int, np.ndarray] = {}
        self._is_net: bool | None = None

    @property
    def n(self) -> int:
        return self.base**self.m

    def digits(self, depth: int) -> np.ndarray:
        """Digit matrix of shape (n, depth), uint8, read-only."""
        if depth < self.m:
            raise ValueError(f"depth {depth} is below the net resolution m={self.m}")
        cached = self._digit_cache.get(depth)
        if cached is not None:
            return cached
        if self._exact_digits is not None and depth >= self._exact_digits.shape[1]:
            k = self._exact_digits.shape[1]
            mat = np.zeros((self.n, depth), dtype=np.uint8)
            mat[:, :k] = self._exact_digits
        else:
            mat = np.array([expand(x, self.base, depth).digits for x in self.points],
                           dtype=np.uint8).reshape(self.n, depth)
        mat.flags.writeable = False
        self._digit_cache[depth] = mat
        return mat

    def __repr__(self):
        return f"NetPoints(base={self.base}, m={self.m}, n={self.n})"


@functools.lru_cache(maxsize=128)
def van_der_corput_net(base: int, m: int) -> NetPoints:
    """First base**m points of the base-b radical-inverse sequence.

    Point i carries the base-b digits of i mirrored across the radix point,
    which places exactly one point in each interval [i/b**m, (i+1)/b**m).
    Results are cached per (base, m); callers share one immutable instance.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    n = base**m
    if n > _MAX_POINTS:
        raise ValueError(f"net size {base}**{m} exceeds the supported index range")
    if base > 256 and m > 0:
        raise ValueError(f"base-{base} digits do not fit the uint8 digit matrix")
    dig = np.empty((n, m), dtype=np.uint8)
    quot = np.arange(n, dtype=np.int64)
    acc = np.zeros(n, dtype=np.int64)
    for k in range(m):  # digit k of the point is the k-th least significant digit of i
        quot, dig[:, k] = np.divmod(quot, base)
        acc = acc * base + dig[:, k]
    pts = acc / n  # correctly rounded: acc and n are exact doubles below 2**53
    return NetPoints(base, m, pts, exact_digits=dig)


def stratum_indices(pts: NetPoints) -> np.ndarray:
    """Stratum index floor(x * n) of each point, int64.

    Nets that carry exact strata (scrambler output) or exact digits
    (constructed nets) read the stratum off them, which is exact in every
    base.  Float-only nets fall back to floor with a few ulps of upward
    slack, so a boundary point whose double rounded low still lands in its
    intended stratum; a point would need ~50 specific digits to be misread,
    which has probability ~2**-50 per point under any of the randomizations.
    """
    if pts._strata is not None:
        return pts._strata
    n = pts.n
    ed = pts._exact_digits
    if ed is not None and ed.shape[1] >= pts.m:
        if pts.m == 0:
            return np.zeros(n, dtype=np.int64)
        powers = pts.base ** np.arange(pts.m - 1, -1, -1, dtype=np.int64)
        return ed[:, :pts.m].astype(np.int64) @ powers
    return np.floor(pts.points * n + n * _STRATUM_TOL).astype(np.int64)


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
        strata = stratum_indices(pts)
        ok = bool(np.all((strata >= 0) & (strata < n)))
        ok = ok and bool(np.all(np.bincount(strata, minlength=n) == 1))
    pts._is_net = ok
    return ok

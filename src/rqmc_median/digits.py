"""Base-b digit expansions of points in [0, 1)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["DigitVector", "default_depth", "expand", "value"]


@functools.cache
def default_depth(base: int) -> int:
    """Digit count at which base**-depth reaches a double's 53-bit resolution."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    return math.ceil(53 * math.log(2) / math.log(base))


@dataclass(frozen=True)
class DigitVector:
    """Finite base-b expansion: the point sum_k digits[k-1] * base**-k.

    Digits are most significant first; all lie in {0, ..., base-1}, so the
    represented value is in [0, 1).
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))
        if len(self.digits) < 1:
            raise ValueError("a DigitVector needs at least one digit")
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} outside range of base {self.base}")

    @property
    def depth(self) -> int:
        return len(self.digits)


def int_digits(n: int, base: int, width: int) -> tuple[int, ...]:
    """Base-b digits of a nonnegative integer, most significant first, zero-padded."""
    out = [0] * width
    for k in range(width - 1, -1, -1):
        n, out[k] = divmod(n, base)
    if n:
        raise ValueError(f"integer does not fit in {width} base-{base} digits")
    return tuple(out)


def expand(x: float, base: int, depth: int) -> DigitVector:
    """Greedy base-b expansion of x in [0, 1), truncated to `depth` digits.

    A double that is the rounded image of j / base**k (k <= depth) sits a few
    ulps off that rational; the plain floor expansion of the perturbed value
    would then produce a run of trailing (base-1)s instead of the intended
    digits of j.  Inputs within a tolerance of such a multiple are therefore
    expanded as that multiple, scanning coarse k first.  The tolerance is
    capped at base**-depth / 2, so |value(result) - x| < base**-depth always.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    x = float(x)
    if not 0.0 <= x < 1.0 or math.isnan(x):
        raise ValueError(f"x must lie in [0, 1), got {x}")

    xf = Fraction(*x.as_integer_ratio())
    tol = min(Fraction(1, 1 << 52), Fraction(1, 2 * base**depth))
    scale = 1
    for k in range(depth + 1):
        if Fraction(1, scale) < 4 * tol:
            break  # multiples of base**-k closer than the window: snapping is meaningless
        q = (xf.numerator * scale) // xf.denominator
        for j in (q, q + 1):
            if 0 <= j < scale and abs(xf - Fraction(j, scale)) <= tol:
                return DigitVector(base, int_digits(j, base, k) + (0,) * (depth - k))
        scale *= base
    q = (xf.numerator * base**depth) // xf.denominator
    return DigitVector(base, int_digits(q, base, depth))


def value(dv: DigitVector) -> float:
    """Real value of a digit vector, correctly rounded to double precision."""
    acc = 0
    for d in dv.digits:
        acc = acc * dv.base + d
    return acc / dv.base**dv.depth

"""Test integrands with exact integrals and exact gradient energy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["BUILTINS", "IntegrandSpec", "builtin"]


@dataclass(frozen=True)
class IntegrandSpec:
    """A test function together with its exact constants.

    `exact_sigma2` is the gradient energy (1/12) * integral of f'(x)**2 over
    [0, 1], the constant that scales the n**-3 variance of scrambled-net
    estimates.
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    exact_integral: float
    exact_sigma2: float

    def __post_init__(self):
        if self.exact_sigma2 < 0:
            raise ValueError("exact_sigma2 must be nonnegative")


BUILTINS = {
    "f1": IntegrandSpec(
        name="f1",
        eval=lambda x: np.power(x, 1.5),
        exact_integral=2.0 / 5.0,
        exact_sigma2=3.0 / 32.0,
    ),
    "f2": IntegrandSpec(
        name="f2",
        eval=lambda x: np.exp(-x),
        exact_integral=1.0 - math.exp(-1.0),
        exact_sigma2=(1.0 - math.exp(-2.0)) / 24.0,
    ),
    "linear": IntegrandSpec(
        name="linear",
        eval=lambda x: np.asarray(x, dtype=np.float64),
        exact_integral=0.5,
        exact_sigma2=1.0 / 12.0,
    ),
    "constant": IntegrandSpec(
        name="constant",
        eval=lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
        exact_integral=1.0,
        exact_sigma2=0.0,
    ),
}


def builtin(name: str) -> IntegrandSpec:
    """Look up a built-in integrand by name."""
    try:
        return BUILTINS[name]
    except KeyError:
        raise ValueError(
            f"unknown integrand {name!r}; choose from {', '.join(BUILTINS)}"
        ) from None


import math

import numpy as np
import pytest

from rqmc_median.integrands import IntegrandSpec, builtin


def sigma2_by_quadrature(f: IntegrandSpec, n_panels: int) -> float:
    """Gradient energy by composite midpoint quadrature with differenced f'.

    Midpoints keep the evaluation away from x = 0, where f1's higher
    derivatives blow up; the central-difference step is three decades below
    the panel width.
    """
    if n_panels < 16:
        raise ValueError(f"n_panels must be >= 16, got {n_panels}")
    width = 1.0 / n_panels
    mids = (np.arange(n_panels) + 0.5) * width
    h = width * 1e-3
    slope = (f.eval(mids + h) - f.eval(mids - h)) / (2.0 * h)
    return math.fsum(slope * slope) * width / 12.0


def test_builtin_constants():
    f1 = builtin("f1")
    assert f1.exact_integral == 0.4
    assert f1.exact_sigma2 == 0.09375  # (1/12) * (3/2)^2 * 1/2 = 3/32
    f2 = builtin("f2")
    assert f2.exact_integral == 1.0 - math.exp(-1.0)
    assert f2.exact_sigma2 == pytest.approx((1.0 - math.exp(-2.0)) / 24.0, rel=0, abs=0)
    assert builtin("linear").exact_sigma2 == 1.0 / 12.0
    assert builtin("constant").exact_sigma2 == 0.0
    assert builtin("constant").exact_integral == 1.0


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        builtin("f3")


def test_builtin_names_cover_cli_surface():
    for name in ("f1", "f2", "linear", "constant"):
        assert builtin(name).name == name


def test_quadrature_linear_is_near_exact():
    assert sigma2_by_quadrature(builtin("linear"), 1024) == pytest.approx(1 / 12, abs=1e-9)


@pytest.mark.parametrize("name", ["f1", "f2"])
def test_quadrature_matches_closed_form(name):
    f = builtin(name)
    assert sigma2_by_quadrature(f, 4096) == pytest.approx(f.exact_sigma2, rel=1e-6)


def test_quadrature_panel_floor():
    with pytest.raises(ValueError):
        sigma2_by_quadrature(builtin("f1"), 8)


def test_eval_accepts_scalars_and_arrays():
    f = builtin("f1")
    assert f.eval(0.25) == 0.125
    assert np.allclose(f.eval(np.array([0.0, 0.25])), [0.0, 0.125])

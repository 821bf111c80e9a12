from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scramble_reference import float_net

from rqmc_median.digits import default_depth, int_digits
from rqmc_median.nets import NetPoints, is_net, van_der_corput_net


def test_vdc_base2_m2():
    # radical inverse of 0,1,2,3 in base 2, by hand
    assert van_der_corput_net(2, 2).points.tolist() == [0.0, 0.5, 0.25, 0.75]


def test_vdc_single_point():
    net = van_der_corput_net(2, 0)
    assert net.points.tolist() == [0.0]
    assert is_net(net)


def test_vdc_base3_m1():
    assert van_der_corput_net(3, 1).points.tolist() == [0.0, 1 / 3, 2 / 3]


@given(st.sampled_from([2, 3, 5]), st.integers(min_value=0, max_value=5))
def test_vdc_matches_fraction_oracle(base, m):
    # independent radical inverse: mirror digits of i as an exact rational
    net = van_der_corput_net(base, m)
    for i in range(base**m):
        mirrored = sum(d * base**k for k, d in enumerate(int_digits(i, base, m)))
        assert net.points[i] == float(Fraction(mirrored, base**m))


@given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=0, max_value=6))
def test_vdc_is_net(base, m):
    assert is_net(van_der_corput_net(base, m))


def test_is_net_examples():
    assert is_net(float_net(2, 2, [0.0, 0.5, 0.25, 0.75]))
    assert not is_net(float_net(2, 2, [0.0, 0.1, 0.2, 0.3]))
    # unordered but one point per quarter
    assert is_net(float_net(2, 2, [0.99, 0.01, 0.51, 0.26]))
    # the stated strata decide, not strata read off the points
    assert not is_net(NetPoints(2, 2, [0.0, 0.5, 0.25, 0.75], [0, 0, 1, 3]))
    # each point must lie in the stratum it states
    assert not is_net(NetPoints(2, 1, [0.0, 0.0], [0, 1]))
    assert not is_net(NetPoints(2, 2, [0.0, 0.5, 0.25, 0.75], np.roll([0, 2, 1, 3], 1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [1.0, -0.1, np.nan, np.inf, -np.inf, 1e300])
def test_is_net_rejects_out_of_range(bad):
    # reading the strata off a non-finite or huge point must not warn
    assert not is_net(float_net(2, 1, [bad, 0.75]))
    assert not is_net(float_net(2, 1, [0.25, bad]))


def test_netpoints_validates_count():
    with pytest.raises(ValueError):
        NetPoints(2, 2, np.array([0.0, 0.5]), np.array([0, 2]))
    with pytest.raises(ValueError):  # the strata are required, one per point
        NetPoints(2, 2, np.array([0.0, 0.5, 0.25, 0.75]), np.array([0, 2]))
    with pytest.raises(TypeError):
        NetPoints(2, 2, np.array([0.0, 0.5, 0.25, 0.75]))


def test_net_size_guard():
    # at most 2**53 points, so the strata are exact doubles; that bound keeps
    # m within the scramblers' digit depth in every base they take
    for base in range(2, 257):
        top = max(m for m in range(54) if base**m <= 2**53)
        assert top <= default_depth(base)
        with pytest.raises(ValueError, match=rf"net size {base}\*\*{top + 1} exceeds 2\*\*53"):
            van_der_corput_net(base, top + 1)
    # ScramblerSpec alone limits the base (to 256); a net takes any base
    assert van_der_corput_net(257, 1).strata.tolist() == list(range(257))


def test_points_are_read_only():
    net = van_der_corput_net(2, 3)
    with pytest.raises(ValueError):
        net.points[0] = 0.9


def test_stratum_indices_boundary_tolerance():
    # a boundary point whose double rounded just below the edge still lands
    # in the intended stratum
    n = 5**6
    pts = van_der_corput_net(5, 6)
    assert sorted(pts.strata.tolist()) == list(range(n))
    float_only = float_net(5, 6, pts.points)
    assert np.array_equal(float_only.strata, pts.strata)

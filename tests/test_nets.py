from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rqmc_median.digits import int_digits
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
        dig = int_digits(i, base, m)
        frac = sum(Fraction(d, base ** (m - k)) for k, d in enumerate(dig))
        assert net.points[i] == float(frac)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=0, max_value=6))
def test_vdc_is_net(base, m):
    assert is_net(van_der_corput_net(base, m))


def test_is_net_examples():
    assert is_net(NetPoints(2, 2, np.array([0.0, 0.5, 0.25, 0.75])))
    assert not is_net(NetPoints(2, 2, np.array([0.0, 0.1, 0.2, 0.3])))
    # unordered but one point per quarter
    assert is_net(NetPoints(2, 2, np.array([0.99, 0.01, 0.51, 0.26])))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [1.0, -0.1, np.nan, np.inf, -np.inf, 1e300])
def test_is_net_rejects_out_of_range(bad):
    # constructing the net must not warn on a non-finite or huge point
    assert not is_net(NetPoints(2, 1, np.array([bad, 0.75])))
    assert not is_net(NetPoints(2, 1, np.array([0.25, bad])))


def test_netpoints_validates_count():
    with pytest.raises(ValueError):
        NetPoints(2, 2, np.array([0.0, 0.5]))


def test_net_size_guard():
    with pytest.raises(ValueError):
        van_der_corput_net(2, 63)
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
    float_only = NetPoints(5, 6, pts.points)
    assert np.array_equal(float_only.strata, pts.strata)

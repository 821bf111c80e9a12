import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rqmc_median.estimators import (
    average_estimator,
    median_estimator,
    q_estimate,
    replicate_batch,
    scrambles,
)
from rqmc_median.integrands import builtin
from rqmc_median.nets import NetPoints, van_der_corput_net
from rqmc_median.scramble import RandomStream, ScramblerKind, ScramblerSpec, apply_scrambler

SPEC = ScramblerSpec(ScramblerKind.NESTED, base=2)


def test_q_estimate_examples():
    assert q_estimate(builtin("constant"), van_der_corput_net(2, 3)) == 1.0
    mid = NetPoints(2, 2, np.array([0.125, 0.375, 0.625, 0.875]))
    assert q_estimate(builtin("linear"), mid) == 0.5
    direct = (0.0 + 0.5**1.5 + 0.25**1.5 + 0.75**1.5) / 4.0
    assert q_estimate(builtin("f1"), van_der_corput_net(2, 2)) == direct
    assert direct == pytest.approx(0.2820, abs=5e-5)


def test_average_and_median_examples():
    assert average_estimator([0.4, 0.6]) == 0.5
    assert average_estimator(np.array([0.7])) == 0.7
    assert average_estimator((0.3, 0.3, 0.3)) == pytest.approx(0.3)
    assert median_estimator([0.4, 0.5, 0.6]) == 0.5
    assert median_estimator(np.array([0.6, 0.4, 0.5])) == 0.5
    assert median_estimator([0.4, 0.6]) == 0.5  # even r: midpoint
    assert median_estimator(np.array([0.1, 0.4, 0.6, 0.9])) == 0.5


def test_batch_validation():
    with pytest.raises(ValueError):
        replicate_batch(builtin("f1"), SPEC, 2, 0, 1)
    for estimator in (average_estimator, median_estimator):
        for empty in ([], np.empty(0)):
            with pytest.raises(ValueError):
                estimator(empty)


def test_replicate_batch_deterministic():
    a = replicate_batch(builtin("f1"), SPEC, 4, 5, master_seed=321)
    b = replicate_batch(builtin("f1"), SPEC, 4, 5, master_seed=321)
    assert a.shape == (5,) and a.dtype == np.float64
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, replicate_batch(builtin("f1"), SPEC, 4, 5, 322))


def test_replicate_batch_streams_are_replicatewise():
    # replicate j of a batch reproduces a standalone stream_id=j run, and
    # the loop yields, for any keys, exactly the scrambles of those streams
    keys = [(777, 9), (5, 2), (777, 0), (2**64 - 1, 2**32 + 7)]
    for base in (2, 3):
        pts = van_der_corput_net(base, 3)
        for kind in ScramblerKind:
            spec = ScramblerSpec(kind, base=base)
            batch = replicate_batch(builtin("f2"), spec, 3, 4, master_seed=777)
            for j in range(4):
                alone = apply_scrambler(pts, spec, RandomStream(777, j))
                assert batch[j] == q_estimate(builtin("f2"), alone)
            nets = list(scrambles(spec, 3, keys))
            assert len(nets) == len(keys)
            for net, key in zip(nets, keys):
                alone = apply_scrambler(pts, spec, RandomStream(*key))
                assert net.points.tobytes() == alone.points.tobytes(), (kind, base, key)
                assert net.strata.tobytes() == alone.strata.tobytes(), (kind, base, key)


def test_constant_integrand_exact():
    batch = replicate_batch(builtin("constant"), SPEC, 5, 8, master_seed=5)
    assert all(e == 1.0 for e in batch)
    assert average_estimator(batch) == 1.0
    assert median_estimator(batch) == 1.0


def test_r_one_median_equals_average_equals_estimate():
    batch = replicate_batch(builtin("f1"), SPEC, 4, 1, master_seed=9)
    assert median_estimator(batch) == average_estimator(batch) == batch[0]


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=25),
       st.randoms(use_true_random=False))
def test_combiners_are_permutation_invariant(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    assert average_estimator(values) == pytest.approx(
        average_estimator(np.array(shuffled)), rel=0, abs=1e-12)
    assert median_estimator(values) == median_estimator(np.array(shuffled))


@pytest.mark.parametrize("kind", [ScramblerKind.NESTED, ScramblerKind.JITTERED])
def test_exact_variance_linear_integrand(kind):
    # f(x) = x over stratified kinds: Var(Q) = 1/(12 n^3) exactly
    m, reps = 6, 20_000
    spec = ScramblerSpec(kind, base=2)
    batch = replicate_batch(builtin("linear"), spec, m, reps, master_seed=2024)
    emp = np.var(batch, ddof=1)
    exact = 1.0 / (12.0 * (2**m) ** 3)
    assert abs(emp / exact - 1.0) < 3.0 * math.sqrt(2.0 / reps)


def test_nested_and_matousek_variances_nearly_identical():
    # the two families the other checks build on: both match sigma^2/n^3
    # and each other at n = 64
    f = builtin("f1")
    reps, m = 10_000, 6
    theo = f.exact_sigma2 / (2**m) ** 3
    variances = {}
    for kind in (ScramblerKind.NESTED, ScramblerKind.MATOUSEK):
        batch = replicate_batch(f, ScramblerSpec(kind, base=2), m, reps, master_seed=88)
        variances[kind] = np.var(batch, ddof=1)
    for v in variances.values():
        assert abs(v / theo - 1.0) < 0.10
    ratio = variances[ScramblerKind.NESTED] / variances[ScramblerKind.MATOUSEK]
    assert abs(ratio - 1.0) < 0.05


@pytest.mark.parametrize("kind", list(ScramblerKind), ids=lambda k: k.value)
def test_unbiasedness(kind):
    f = builtin("f2")
    reps = 4000
    n = 64
    spec = ScramblerSpec(kind, base=2)
    batch = replicate_batch(f, spec, 6, reps, master_seed=4242)
    err = abs(float(np.mean(batch)) - f.exact_integral)
    sigma = math.sqrt(f.exact_sigma2)
    assert err <= 4.0 * sigma / (n**1.5 * math.sqrt(reps))

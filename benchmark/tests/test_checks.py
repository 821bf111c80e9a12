"""Each correctness check accepts the program's real output and rejects a corrupted one.

Run from the repository root:  python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import workload  # noqa: E402  (puts src/ on sys.path)
from spans import PER_LAYER, LayerTotals, Tracer  # noqa: E402

from rqmc_median import cli  # noqa: E402

SEED = 4242


def _run(name: str, out: Path):
    wl = workload.WORKLOADS[name]
    calls = []
    for argv in wl.argvs(workload.round_seed(SEED, 0), out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        calls.append((argv, code, buf.getvalue()))
    return calls


def _check(name: str, calls, out: Path) -> list[str]:
    """Per-round checks of one round's outputs."""
    failed, errs = workload.WORKLOADS[name].check_round(calls, out, np.random.default_rng(0), {})
    assert failed == 0
    return errs


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _write(path: Path, rows: list[list[str]]):
    path.write_text("\n".join(",".join(r) for r in rows) + "\n", encoding="utf-8")


def _edit(path: Path, pred, col: int, fn):
    """Apply fn to column `col` of the first row matching pred."""
    rows = _read(path)
    for row in rows[1:]:
        if pred(row):
            row[col] = fn(row[col])
            break
    else:
        raise AssertionError("no row matched")
    _write(path, rows)


def _has(errs: list[str], text: str) -> bool:
    return any(text in e for e in errs)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    runs = {}
    for name in workload.WORKLOADS:
        out = base / name
        runs[name] = (_run(name, out), out)
    return runs


def _copy(outputs, name: str, tmp_path: Path):
    """A private copy of one workload's round outputs, free to corrupt."""
    calls, out = outputs[name]
    shutil.copytree(out, tmp_path / "o")
    return calls, tmp_path / "o"


@pytest.fixture
def hist(outputs, tmp_path):
    return _copy(outputs, "hist-small-m", tmp_path)


@pytest.fixture
def conv(outputs, tmp_path):
    return _copy(outputs, "conv-large-m", tmp_path)


@pytest.fixture
def accept(outputs, tmp_path):
    return _copy(outputs, "accept", tmp_path)


RAW = lambda row: row[9] == "raw"  # noqa: E731


# -- hist-small-m ------------------------------------------------------------

def test_hist_real_output_passes(hist):
    assert _check("hist-small-m", *hist) == []


def test_hist_rejects_perturbed_value(hist):
    calls, out = hist
    _edit(out / "hist_nested_f2_m6_r1.csv", RAW, 7, lambda v: repr(float(v) * (1 + 1e-6)))
    assert _has(_check("hist-small-m", calls, out), "rescaled values disagree")


def test_hist_rejects_wrong_seed_column(hist):
    calls, out = hist
    _edit(out / "hist_matousek_f1_m4_r15.csv", RAW, 10, lambda s: str(int(s) + 1))
    assert _has(_check("hist-small-m", calls, out), "regenerated")


@pytest.mark.parametrize("scale,text", [(1.01, "histogram densities"), (1.01, "histogram mass")])
def test_hist_rejects_histogram(hist, scale, text):
    calls, out = hist
    path = out / "hist_nested_f1_m4_r1.csv"
    rows = _read(path)
    for row in rows[1:]:
        if row[9] == "hist":
            row[8] = repr(float(row[8]) * scale)
    _write(path, rows)
    assert _has(_check("hist-small-m", calls, out), text)


@pytest.mark.parametrize("rep,col,text", [("0", 7, "summary variance"),
                                          ("0", 8, "out-of-range count"),
                                          ("1", 7, "KS summary")])
def test_hist_rejects_summary(hist, rep, col, text):
    calls, out = hist
    _edit(out / "hist_matousek_f2_m6_r1.csv",
          lambda row: row[9] == "summary" and row[6] == rep, col,
          lambda v: repr(float(v) + 0.5))
    assert _has(_check("hist-small-m", calls, out), text)


def test_hist_rejects_header(hist):
    calls, out = hist
    path = out / "hist_nested_f1_m6_r15.csv"
    rows = _read(path)
    rows[0][7] = "val"
    _write(path, rows)
    assert _has(_check("hist-small-m", calls, out), "header")


def test_single_variance_window():
    rng = np.random.default_rng(1)
    f, n = checks.INTEGRANDS["f2"], 64
    # exact jittered sampling reproduces the variance; doubling the spread does not
    u = (np.arange(n) + rng.random((2000, n))) / n
    est = np.exp(-u).mean(axis=1)
    assert checks.check_single_variance(est, "f2", n, "t") == []
    wide = f.integral + 2.0 * (est - f.integral)
    assert checks.check_single_variance(wide, "f2", n, "t") != []


def test_nested_median_law_window():
    rng = np.random.default_rng(2)
    r, reps = 15, 150
    var_med = checks.median_normal_variance(r)
    cells = []
    for fname in ("f1", "f2"):
        for n in (16, 64):
            f = checks.INTEGRANDS[fname]
            sd = math.sqrt(checks.stratified_variance(f, n))
            med = np.median(rng.standard_normal((reps, r)) * sd, axis=1)
            cells.append((math.sqrt(2 * r / math.pi) * n**1.5 * med / math.sqrt(f.sigma2),
                          fname, n))
    assert checks.check_nested_median_law(cells, r, var_med) == []
    doubled = [(2.0 * v, fname, n) for v, fname, n in cells]
    assert checks.check_nested_median_law(doubled, r, var_med) != []


def test_linear_below_nested_rejects_swap():
    rng = np.random.default_rng(3)
    narrow, wide = rng.standard_normal(150) * 0.1, rng.standard_normal(150)
    assert checks.check_linear_below_nested(narrow, wide, "t") == []
    assert checks.check_linear_below_nested(wide, narrow, "t") != []


def test_closed_forms():
    # Var(median of 3 N(0,1)) = 1 - sqrt(3)/pi; Var(median of 1) = 1
    assert abs(checks.median_normal_variance(3) - checks.ACCEPT_QUAD_VAR_R3) < 1e-11
    assert abs(checks.median_normal_variance(1) - 1.0) < 1e-11
    # the stratified variance tends to sigma^2 / n^3
    for f in checks.INTEGRANDS.values():
        assert abs(checks.stratified_variance(f, 256) * 256**3 / f.sigma2 - 1) < 1e-3


# -- conv-large-m ------------------------------------------------------------

def test_conv_real_output_passes(conv):
    assert _check("conv-large-m", *conv) == []


def test_conv_rejects_perturbed_value(conv):
    calls, out = conv
    _edit(out / "convergence.csv", RAW, 7, lambda v: repr(float(v) + 1e-9))
    assert _has(_check("conv-large-m", calls, out), "error column disagrees")


def test_conv_rejects_summary(conv):
    calls, out = conv
    _edit(out / "convergence.csv", lambda row: row[9] == "summary" and row[3] == "10", 7,
          lambda v: repr(float(v) * 1.001))
    assert _has(_check("conv-large-m", calls, out), "summary error disagrees")


def test_conv_rejects_swapped_slopes(conv):
    calls, out = conv
    path = out / "convergence.csv"
    rows = _read(path)
    slope = {(row[0], row[1]): row for row in rows[1:] if row[3] == "-1"}
    a, b = slope[("nested", "f1")], slope[("matousek", "f1")]
    a[7], b[7] = b[7], a[7]
    _write(path, rows)
    errs = _check("conv-large-m", calls, out)
    assert _has(errs, "slope row nested/f1 disagrees")
    assert _has(errs, "slope row matousek/f1 disagrees")


def test_conv_missing_slope_row_only_for_zero_error(conv):
    calls, out = conv
    path = out / "convergence.csv"
    rows = _read(path)
    # no cell error is 0 for nested f1, so its slope row must be there
    _write(path, [row for row in rows if not (row[3] == "-1" and row[:2] == ["nested", "f1"])])
    assert _has(_check("conv-large-m", calls, out), "slope row nested/f1 disagrees")
    # a zero error makes the program skip the fit: no slope row is correct
    integral = checks.INTEGRANDS["f1"].integral
    for row in rows[1:]:
        if row[:2] == ["nested", "f1"] and row[3] == "12" and row[9] in ("raw", "summary"):
            row[7], row[8] = (repr(integral), "0") if row[9] == "raw" else ("0", row[8])
    _write(path, [row for row in rows if not (row[3] == "-1" and row[:2] == ["nested", "f1"])])
    assert _check("conv-large-m", calls, out) == []
    _write(path, rows)
    assert _has(_check("conv-large-m", calls, out), "despite a zero error")


def _pooled(rates: dict, reps: int, seed: int = 5) -> dict:
    """Median-of-r estimates whose error scale falls as n**rate per (kind, integrand)."""
    rng = np.random.default_rng(seed)
    values = {}
    for (kind, fname), rate in rates.items():
        f = checks.INTEGRANDS[fname]
        for m in workload.CONV_MS:
            values[(kind, fname, m)] = f.integral + 1e-2 * 2.0**(m * rate) * rng.standard_normal(reps)
    return values


GOOD_RATES = {("nested", "f1"): -1.5, ("nested", "f2"): -1.5,
              ("matousek", "f1"): -2.3, ("matousek", "f2"): -3.0}


def test_slopes_accept_paper_rates():
    values = _pooled(GOOD_RATES, 12)
    assert checks.check_slopes(values, ("f1", "f2"), workload.CONV_MS,
                               checks.log_median_abs_normal_sd(12)) == []


@pytest.mark.parametrize("key,rate,text", [
    (("nested", "f1"), -0.5, "nested f1 slope"),
    (("nested", "f2"), -2.5, "nested f2 slope"),
    (("matousek", "f2"), -1.5, "matousek f2 slope"),
])
def test_slopes_reject_wrong_rates(key, rate, text):
    values = _pooled({**GOOD_RATES, key: rate}, 12)
    errs = checks.check_slopes(values, ("f1", "f2"), workload.CONV_MS,
                               checks.log_median_abs_normal_sd(12))
    assert _has(errs, text)


def test_slopes_leave_out_rounding_level_errors():
    # matousek f2 errors at the rounding level beyond m = 10 do not enter the fit
    values = _pooled(GOOD_RATES, 12)
    for m in (11, 12):
        values[("matousek", "f2", m)] = np.full(12, checks.INTEGRANDS["f2"].integral)
    assert checks.check_slopes(values, ("f1", "f2"), workload.CONV_MS,
                               checks.log_median_abs_normal_sd(12)) == []


# -- accept --------------------------------------------------------------------

def test_accept_real_output_passes(accept):
    assert _check("accept", *accept) == []


def test_accept_rejects_missing_pass_line(accept):
    calls, out = accept
    argv, code, stdout = calls[0]
    stdout = "\n".join(line for line in stdout.splitlines() if " 8 " not in line)
    assert _has(_check("accept", [(argv, code, stdout)], out), "no PASS/FAIL line")


def test_accept_rejects_exit_code(accept):
    calls, out = accept
    argv, _, stdout = calls[0]
    assert _has(_check("accept", [(argv, 1, stdout)], out), "exit code")


@pytest.mark.parametrize("metric,value,text", [
    ("quad_var_r3", checks.ACCEPT_QUAD_VAR_R3 + 2e-9, "quad_var_r3"),
    ("mass_defect_r15", 2e-8, "mass_defect_r15"),
    ("failures_tezuka", 1.0, "tezuka failures"),
    ("total_nested", 1000.0, "nested failures"),
])
def test_accept_rejects_metric(accept, metric, value, text):
    calls, out = accept
    _edit(out / "acceptance_metrics.csv", lambda row: row[1] == metric, 2,
          lambda _: repr(value))
    assert _has(_check("accept", *accept), text)


def test_accept_counts_fail_lines_as_failed(accept):
    calls, out = accept
    argv, _, stdout = calls[0]
    stdout = stdout.replace("PASS  8", "FAIL  8")
    failed, errs = workload.WORKLOADS["accept"].check_round([(argv, 1, stdout)], out, None, {})
    assert failed == 1 and errs == []


# -- tracing ---------------------------------------------------------------------

def test_tracer_spans_parents_and_restores(tmp_path):
    import rqmc_median.estimators as est
    import rqmc_median.scramble as scramble

    originals = (est.apply_scrambler, scramble.RandomStream.generator)
    tracer = Tracer()
    tracer.install()
    try:
        argv = ["histogram", "--m", "4", "--r", "3", "--reps", "5", "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracer.call("cli.main", cli.main, argv) == 0
    finally:
        tracer.uninstall()
    assert (est.apply_scrambler, scramble.RandomStream.generator) == originals
    spans = tracer.drain()
    by_id = {s[0]: s for s in spans}
    root = [s for s in spans if s[4] is None]
    assert [s[1] for s in root] == ["cli.main"]
    for s in spans:
        if s[4] is not None:
            parent = by_id[s[4]]
            assert parent[2] <= s[2] <= s[3] <= parent[3]
    names = {s[1] for s in spans}
    assert {"estimators.replicate_batch", "scramble.apply_scrambler", "scramble.scramble",
            "nets.is_net", "integrands.eval", "stats.histogram"} <= names
    totals = LayerTotals()
    totals.add(spans)
    metrics = totals.metrics(1, LayerTotals(), 0.0)
    assert set(metrics) == {name for name, _ in PER_LAYER}
    # 2 scramblers x 2 integrands x 1 m x 5 reps x r = 3
    assert sum(v[0] for v in totals.scramble.values()) == 60


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workload.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)

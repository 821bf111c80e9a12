import os
import subprocess
import sys
from pathlib import Path

import pytest

import rqmc_median
from rqmc_median.cli import CSV_HEADER, main


def _read(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    return text, lines


# ------------------------------------------------------------- usage errors

def test_unknown_mode_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_integrand(capsys):
    assert main(["variance", "--integrands", "f9", "--reps", "10"]) == 2
    assert "unknown integrand" in capsys.readouterr().err


def test_unknown_scrambler(capsys):
    assert main(["variance", "--scramblers", "sobol", "--reps", "10"]) == 2
    assert "unknown scrambler" in capsys.readouterr().err


def test_linear_kind_rejects_nonprime_base(capsys):
    code = main(["variance", "--scramblers", "matousek", "--base", "4", "--reps", "10"])
    assert code == 2
    assert "prime" in capsys.readouterr().err


@pytest.mark.parametrize("argv, text", [
    (["variance", "--scramblers", "nested", "--base", "257"], "base"),
    (["histogram", "--base", "1"], "base"),
    (["histogram", "--seed", "-1"], "seed"),
    (["convergence", "--seed", "-1"], "seed"),
    (["variance", "--seed", "-1"], "seed"),
    (["acceptance", "--seed", "-1"], "seed"),
], ids=["base-257", "base-1", "seed-histogram", "seed-convergence", "seed-variance",
        "seed-acceptance"])
def test_bad_input_is_usage_error(tmp_path, capsys, argv, text):
    assert main(argv + ["--reps", "3", "--out", str(tmp_path)]) == 2
    assert text in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_module_run_executes_mode(tmp_path):
    # `python -m rqmc_median.cli` runs a mode like the installed entry point
    src = str(Path(rqmc_median.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "rqmc_median.cli", "variance", "--m", "1",
                               "--reps", "3", *args], env=env, capture_output=True)

    assert run("--out", str(tmp_path / "ok")).returncode == 0
    assert (tmp_path / "ok" / "variance.csv").is_file()
    assert run("--base", "257", "--out", str(tmp_path / "bad")).returncode == 2


def test_nonprime_base_fine_for_nested(tmp_path):
    code = main(["variance", "--scramblers", "nested", "--integrands", "f1",
                 "--base", "4", "--m", "2", "--reps", "20", "--out", str(tmp_path)])
    assert code == 0


def test_empty_criteria_selection(capsys):
    assert main(["acceptance", "--criteria", ""]) == 2
    assert "criteria" in capsys.readouterr().err


def test_criteria_out_of_range(capsys):
    assert main(["acceptance", "--criteria", "11"]) == 2


def test_convergence_needs_three_m_values(capsys):
    code = main(["convergence", "--m", "4,5", "--reps", "2"])
    assert code == 2
    assert "3 m values" in capsys.readouterr().err


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("repz=10\n", encoding="utf-8")
    assert main(["variance", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_file_missing(tmp_path, capsys):
    assert main(["variance", "--config", str(tmp_path / "nope.cfg")]) == 2


# ------------------------------------------------------------- config file

def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# tiny smoke config\n"
        "scramblers = jittered\n"
        "integrands = linear\n"
        "m = 3\n"
        "reps = 40\n"
        f"out = {tmp_path / 'a'}\n",
        encoding="utf-8")
    assert main(["variance", "--config", str(cfg)]) == 0
    assert (tmp_path / "a" / "variance.csv").exists()
    # --out on the command line beats the file
    assert main(["variance", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "variance.csv").exists()


# ------------------------------------------------------------- modes

def test_histogram_mode_cells_and_schema(tmp_path):
    code = main(["histogram", "--scramblers", "nested,matousek",
                 "--integrands", "f1,f2", "--m", "4", "--r", "1",
                 "--reps", "120", "--out", str(tmp_path), "--seed", "7"])
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("hist_*.csv"))
    assert files == ["hist_matousek_f1_m4_r1.csv", "hist_matousek_f2_m4_r1.csv",
                     "hist_nested_f1_m4_r1.csv", "hist_nested_f2_m4_r1.csv"]
    _, lines = _read(tmp_path / "hist_nested_f1_m4_r1.csv")
    raws = [l for l in lines if l.split(",")[9] == "raw"]
    hists = [l for l in lines if l.split(",")[9] == "hist"]
    summaries = [l for l in lines if l.split(",")[9] == "summary"]
    assert len(raws) == 120
    assert len(hists) == 60
    assert len(summaries) == 2  # variance/outside and ks rows
    first = raws[0].split(",")
    assert first[:7] == ["nested", "f1", "2", "4", "16", "1", "0"]


def test_histogram_median_mode_uses_median_rescaling(tmp_path):
    code = main(["histogram", "--scramblers", "jittered", "--integrands", "linear",
                 "--m", "3", "--r", "3", "--reps", "30", "--out", str(tmp_path),
                 "--seed", "3"])
    assert code == 0
    assert (tmp_path / "hist_jittered_linear_m3_r3.csv").exists()


def test_histogram_single_repetition_degenerates_gracefully(tmp_path):
    code = main(["histogram", "--scramblers", "nested", "--integrands", "f1",
                 "--m", "3", "--reps", "1", "--out", str(tmp_path), "--seed", "5"])
    assert code == 0
    _, lines = _read(tmp_path / "hist_nested_f1_m3_r1.csv")
    raws = [l for l in lines if l.split(",")[9] == "raw"]
    hists = [l for l in lines if l.split(",")[9] == "hist"]
    assert len(raws) == 1 and len(hists) == 60
    assert "nan" not in (tmp_path / "hist_nested_f1_m3_r1.csv").read_text()


def test_histogram_rejects_constant_integrand(tmp_path, capsys):
    code = main(["histogram", "--scramblers", "nested", "--integrands", "f1,constant",
                 "--m", "3", "--reps", "10", "--out", str(tmp_path)])
    assert code == 2
    assert "gradient energy" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # rejected before the f1 cell is written


def test_shift_off_accepted(tmp_path):
    code = main(["variance", "--scramblers", "matousek", "--integrands", "f2",
                 "--m", "3", "--reps", "30", "--shift", "off",
                 "--out", str(tmp_path)])
    assert code == 0


def test_even_r_warning(tmp_path, capsys):
    main(["histogram", "--scramblers", "jittered", "--integrands", "linear",
          "--m", "3", "--r", "2", "--reps", "10", "--out", str(tmp_path)])
    assert "even" in capsys.readouterr().err


def test_variance_mode_summary_rows(tmp_path):
    code = main(["variance", "--scramblers", "jittered", "--integrands", "linear",
                 "--m", "4", "--reps", "4000", "--out", str(tmp_path), "--seed", "11"])
    assert code == 0
    _, lines = _read(tmp_path / "variance.csv")
    summaries = [l.split(",") for l in lines if l.split(",")[9] == "summary"]
    assert len(summaries) == 2
    emp, theo = float(summaries[0][7]), float(summaries[0][8])
    ratio = float(summaries[1][7])
    assert theo == pytest.approx(1.0 / 12.0 / 16**3, rel=1e-12)
    assert ratio == pytest.approx(emp / theo, rel=1e-12)
    assert 0.9 < ratio < 1.1


def test_convergence_mode_slope_rows(tmp_path):
    code = main(["convergence", "--scramblers", "jittered", "--integrands", "linear",
                 "--m", "3,4,5,6", "--r", "5", "--reps", "6", "--out", str(tmp_path),
                 "--seed", "13"])
    assert code == 0
    _, lines = _read(tmp_path / "convergence.csv")
    slope_rows = [l.split(",") for l in lines
                  if l.split(",")[9] == "summary" and l.split(",")[3] == "-1"]
    assert len(slope_rows) == 1
    slope = float(slope_rows[0][7])
    assert -2.5 < slope < -0.8  # crude window for a tiny jittered run


def test_convergence_constant_integrand_reports_skip(tmp_path, capsys):
    code = main(["convergence", "--scramblers", "jittered", "--integrands", "constant",
                 "--m", "3,4,5", "--r", "3", "--reps", "4", "--out", str(tmp_path)])
    assert code == 0
    err = capsys.readouterr().err
    assert "slope fit skipped" in err and "positive" in err
    _, lines = _read(tmp_path / "convergence.csv")
    assert not any(l.split(",")[3] == "-1" for l in lines[1:])


def test_output_bit_identical_across_runs(tmp_path):
    args = ["histogram", "--scramblers", "nested", "--integrands", "f2",
            "--m", "4", "--reps", "60", "--seed", "99"]
    assert main(args + ["--out", str(tmp_path / "x")]) == 0
    assert main(args + ["--out", str(tmp_path / "y")]) == 0
    a = (tmp_path / "x" / "hist_nested_f2_m4_r1.csv").read_bytes()
    b = (tmp_path / "y" / "hist_nested_f2_m4_r1.csv").read_bytes()
    assert a == b


def test_acceptance_mode_subset(tmp_path, capsys):
    code = main(["acceptance", "--criteria", "9", "--out", str(tmp_path),
                 "--seed", "20250809"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS  9" in out
    assert (tmp_path / "acceptance_report.txt").exists()
    metrics = (tmp_path / "acceptance_metrics.csv").read_text()
    assert metrics.startswith("criterion,metric,value")

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rqmc_median
from rqmc_median import cli
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
    (["variance", "--scramblers", "nested", "--base", "257", "--reps", "3"], "base"),
    (["histogram", "--base", "1", "--reps", "3"], "base"),
    (["histogram", "--seed", "-1", "--reps", "3"], "seed"),
    (["convergence", "--seed", "-1", "--reps", "3"], "seed"),
    (["variance", "--seed", "-1", "--reps", "3"], "seed"),
    (["acceptance", "--seed", "-1"], "seed"),
    # a net of more than 2**53 points; never try an m near 30..53 in base 2,
    # which really allocates
    (["variance", "--scramblers", "nested", "--integrands", "f1", "--m", "54", "--reps", "3"],
     "net size 2**54 exceeds 2**53 points"),
    (["histogram", "--scramblers", "matousek,jittered", "--m", "2,60", "--r", "1", "--reps", "3"],
     "net size 2**60 exceeds 2**53 points"),
    (["variance", "--base", "3", "--m", "34", "--reps", "3"], "net size 3**34 exceeds"),
    (["variance", "--base", "5", "--m", "23", "--reps", "3"], "net size 5**23 exceeds"),
    (["variance", "--m", "-1", "--reps", "3"], "m must be >= 0"),
    # a repeated value would overwrite a cell file or repeat a cell's rows
    (["histogram", "--scramblers", "nested,nested", "--m", "2", "--reps", "3"],
     "scramblers lists a value twice"),
    (["variance", "--integrands", "f1,f2,f1", "--m", "2", "--reps", "3"],
     "integrands lists a value twice"),
    (["histogram", "--m", "4,4", "--reps", "3"], "m lists a value twice"),
    (["convergence", "--m", "4,4,4", "--reps", "3"], "m lists a value twice"),
    (["histogram", "--m", "2", "--r", "3,3", "--reps", "3"], "r lists a value twice"),
    # variance mode has no r: its batch size is the repetitions
    (["variance", "--m", "2", "--r", "1,15", "--reps", "3"], "unrecognized arguments: --r"),
    (["variance", "--m", "2", "--r", "15", "--reps", "3"], "unrecognized arguments: --r"),
    (["variance", "--m", "2", "--r", "1", "--reps", "3"], "unrecognized arguments: --r"),
    # a mode takes only the flags it reads
    (["acceptance", "--criteria", "9", "--scramblers", "bogus"],
     "unrecognized arguments: --scramblers"),
    (["acceptance", "--criteria", "9", "--base", "3"], "unrecognized arguments: --base"),
    (["acceptance", "--criteria", "9", "--m", "4"], "unrecognized arguments: --m"),
    (["acceptance", "--criteria", "9", "--reps", "0"], "unrecognized arguments: --reps"),
    (["histogram", "--criteria", "1", "--m", "2", "--reps", "3"],
     "unrecognized arguments: --criteria"),
    # flags are the only settings, and linear scrambles always shift
    (["histogram", "--m", "2", "--reps", "3", "--config", "m4.cfg"],
     "unrecognized arguments: --config"),
    (["convergence", "--m", "2,3,4", "--reps", "3", "--config", "m4.cfg"],
     "unrecognized arguments: --config"),
    (["variance", "--m", "2", "--reps", "3", "--config", "m4.cfg"],
     "unrecognized arguments: --config"),
    (["acceptance", "--criteria", "9", "--config", "m4.cfg"],
     "unrecognized arguments: --config"),
    (["variance", "--m", "2", "--reps", "3", "--shift", "off"],
     "unrecognized arguments: --shift"),
    # no abbreviations: --rep is not --reps
    (["variance", "--m", "2", "--rep", "5"], "unrecognized arguments: --rep"),
], ids=["base-257", "base-1", "seed-histogram", "seed-convergence", "seed-variance",
        "seed-acceptance", "m-54-above-depth", "m-60-above-depth", "m-34-base-3",
        "m-23-base-5", "m-negative", "repeated-scrambler",
        "repeated-integrand", "repeated-m-histogram", "repeated-m-convergence", "repeated-r",
        "variance-r-list", "variance-r-15", "variance-r-1", "acceptance-scramblers",
        "acceptance-base", "acceptance-m", "acceptance-reps", "histogram-criteria",
        "histogram-config", "convergence-config", "variance-config", "acceptance-config",
        "variance-shift-off", "abbreviated-flag"])
def test_bad_input_is_usage_error(tmp_path, monkeypatch, capsys, argv, text):
    monkeypatch.chdir(tmp_path)
    # a real file, so --config fails as a flag and not as a missing file
    Path("m4.cfg").write_text("m = 4\n", encoding="utf-8")
    assert main(argv + ["--out", "out"]) == 2
    assert text in capsys.readouterr().err
    assert not Path("out").exists()


_DESK_SWEEPS = {
    "histogram": ["--m", "2", "--reps", "3"],
    "convergence": ["--m", "2,3,4", "--r", "3", "--reps", "1"],
    "variance": ["--m", "2", "--reps", "3"],
}


@pytest.mark.parametrize("mode, seed", [
    *((mode, seed) for mode in _DESK_SWEEPS for seed in (2**64 - 1, 2**64, 2**128)),
    ("acceptance", 2**64),
])
def test_any_nonnegative_seed_runs(tmp_path, mode, seed):
    # the CLI, derive_seed and RandomStream (criterion 9 draws through it)
    # share one rule: any nonnegative master seed, with no upper bound
    args = _DESK_SWEEPS.get(mode, ["--criteria", "9"])
    assert main([mode, *args, "--seed", str(seed), "--out", str(tmp_path)]) == 0


def test_net_out_of_memory_is_usage_error(tmp_path, monkeypatch, capsys):
    def no_memory(base, m):
        raise MemoryError("Unable to allocate 64.0 PiB for an array")

    monkeypatch.setattr(cli, "van_der_corput_net", no_memory)
    assert main(["variance", "--m", "4", "--reps", "3", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: Unable to allocate 64.0 PiB for an array"]
    assert not (tmp_path / "out").exists()


def _env():
    src = str(Path(rqmc_median.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_module_run_executes_mode(tmp_path):
    # `python -m rqmc_median.cli` runs a mode like the installed entry point
    def run(*args):
        return subprocess.run([sys.executable, "-m", "rqmc_median.cli", "variance", "--m", "1",
                               "--reps", "3", *args], env=_env(), capture_output=True)

    assert run("--out", str(tmp_path / "ok")).returncode == 0
    assert (tmp_path / "ok" / "variance.csv").is_file()
    assert run("--base", "257", "--out", str(tmp_path / "bad")).returncode == 2


@pytest.mark.parametrize("mode, desk, files", [
    ("histogram", ["--reps", "3", "--m", "2"],
     [f"histograms/hist_{k}_{f}_m2_r{r}.csv"
      for k in ("matousek", "nested") for f in ("f1", "f2") for r in (1, 15)]),
    ("convergence", ["--reps", "1", "--r", "3", "--m", "2,3,4"],
     ["convergence/convergence.csv"]),
    ("variance", ["--reps", "3", "--m", "2"], ["variance/variance.csv"]),
], ids=["histogram", "convergence", "variance"])
def test_readme_paper_runs_at_desk_scale(tmp_path, mode, desk, files):
    # README's paper runs at desk scale: flags appended after a command win,
    # so each command writes below tmp_path the files it names under results/
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Paper runs", 1)[1].split("```\n", 2)[1]
    commands = [line.split("#")[0].split() for line in block.splitlines()]
    assert [c[:2] for c in commands] == [["rqmc-median", m] for m in
                                         ("histogram", "histogram", "convergence", "variance")]
    for _, _, *args in (c for c in commands if c[1] == mode):
        out = tmp_path / args[args.index("--out") + 1]
        assert main([mode, *args, *desk, "--out", str(out)]) == 0
    results = tmp_path / "results"
    assert sorted(p.relative_to(results).as_posix() for p in results.rglob("*")
                  if p.is_file()) == sorted(files)


def test_mode_help_exits_zero(capsys):
    assert main(["histogram", "--help"]) == 0
    assert "--reps" in capsys.readouterr().out


def test_readme_synopsis_lists_each_modes_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    documented, mode = {}, None
    for line in block.splitlines():
        if line.startswith("rqmc-median "):
            mode = line.split()[1]
        documented.setdefault(mode, set()).update(re.findall(r"\[(--[a-z-]+)", line))
    (modes,) = [action.choices for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    flags = {name: {s for s in sub._option_string_actions if s.startswith("--")} - {"--help"}
             for name, sub in modes.items()}
    assert documented == flags


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
    # below 100 repetitions no KS statistic is taken: only the rep 0 summary row
    assert main(["histogram", "--scramblers", "nested", "--integrands", "f1", "--m", "4",
                 "--reps", "99", "--out", str(tmp_path / "few")]) == 0
    _, lines = _read(tmp_path / "few" / "hist_nested_f1_m4_r1.csv")
    summaries = [l.split(",") for l in lines if l.split(",")[9] == "summary"]
    assert [row[6] for row in summaries] == ["0"]


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

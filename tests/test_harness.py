import argparse
import ast
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lowrankrec
from lowrankrec import cli, harness
from lowrankrec.cli import build_parser, main
from lowrankrec.problems import ENSEMBLE_KINDS
from lowrankrec.harness import (
    RUNNERS,
    SUCCESS_HEADER,
    _flag,
    fit_geometric_rate,
    run_basin,
    run_fig1,
    run_fig3,
    run_fig5,
    run_sync,
)


def read(path):
    with open(path, "rb") as f:
        return f.read()


class TestCSVDeterminism:
    def test_fig1_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_fig1(seed=3, n=16, mn_grid=(3.0, 5.0),
                     trials=5, out=str(out))
        assert read(out1) == read(out2)

    def test_fig3_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_fig3(seed=3, n=40, d_grid=(0.01, 0.05),
                     pairs=20, m=400, out=str(out))
        assert read(out1) == read(out2)

    def test_sync_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_sync(seed=4, n=40, sigma_grid=(0.0, 0.2),
                     out=str(out))
        assert read(out1) == read(out2)

    def test_fig5_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_fig5(seed=5, n=8, mn_grid=(0.0, 3.0),
                     trials=3, p_values=(1,),
                     ensembles=("complex-gaussian",),
                     max_iter=2000, out=str(out))
        assert read(out1) == read(out2)

    def test_basin_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_basin(seed=6, n=8, grid=7,
                      m=80, max_iter=300, out=str(out))
        assert read(out1) == read(out2)


class TestCSVShape:
    def test_fig1_header_and_rows(self, tmp_path):
        out = tmp_path / "f1.csv"
        rows = run_fig1(seed=1, n=12, mn_grid=(3.0, 4.0),
                        trials=4, out=str(out))
        lines = read(out).decode().strip().split("\n")
        assert lines[0] == ",".join(SUCCESS_HEADER)
        assert len(lines) == 1 + 2
        for (alg, n, m, trials, succ, rate, seed) in rows:
            assert succ <= trials
            assert rate == succ / trials

    def test_sync_csv_well_formed_at_huge_noise(self, tmp_path):
        out = tmp_path / "s.csv"
        n = 30
        huge = 10 * math.sqrt(n) / math.sqrt(n / math.log(n))  # sigma = 10 sqrt(n)
        rows, _ = run_sync(seed=2, n=n, sigma_grid=(huge,),
                           max_iter=60, out=str(out))
        lines = read(out).decode().strip().split("\n")
        assert len(lines) == 2
        assert rows[0][4] in (True, False)

    def test_sync_zero_noise_row(self, tmp_path):
        rows, _ = run_sync(seed=2, n=40, sigma_grid=(0.0,))
        frac, sigma, n, iters, converged, rel_err, rho, r2, seed = rows[0]
        assert converged and iters == 1 and rel_err < 1e-10

    def test_loo_dump(self, tmp_path):
        out = tmp_path / "s.csv"
        _, loo_tables = run_sync(seed=2, n=30, sigma_grid=(0.1,),
                                 loo=True, out=str(out))
        loo = read(str(out) + ".loo0.csv").decode().strip().split("\n")
        assert loo[0] == "t,max_dist_aux,max_corr_main,max_corr_aux"
        assert len(loo) >= 2
        # one row per lockstep iteration, numbered from 1, of four columns
        rows = [line.split(",") for line in loo[1:]]
        assert len(rows) == loo_tables[0][1].iterations
        assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
        assert all(len(r) == 4 for r in rows)

    def test_basin_labels(self):
        labels = run_basin(seed=6, n=8, grid=9,
                           m=80, max_iter=400)
        assert labels.shape == (9, 9)
        assert labels[4, 4] == 0  # center of the plane is the ground truth

    def test_basin_full_size_shows_competing_basins(self):
        # the default benchmark setting: several basins appear but the
        # solution basin holds a strict majority of the grid
        labels = run_basin(seed=0, n=20, grid=101,
                           m=400)
        assert len(np.unique(labels)) >= 2
        assert np.mean(labels == 0) > 0.5


class TestFitGeometricRate:
    def test_recovers_exact_rate(self):
        r = 3.0 * 0.5 ** np.arange(30)
        rho, r2 = fit_geometric_rate(r, floor=1e-12)
        assert rho == pytest.approx(0.5, rel=1e-9)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_short_trace(self):
        rho, r2 = fit_geometric_rate([1.0, 0.5], floor=0.0)
        assert math.isnan(rho) and math.isnan(r2)


class TestCLI:
    def test_gen_solve_roundtrip(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        rc = main(["gen", "pr", "--n", "8", "--m", "48", "--seed", "7",
                   "--out", str(inst_path)])
        assert rc == 0
        report_path = tmp_path / "report.json"
        rc = main(["solve", "ap", "--in", str(inst_path), "--seed", "1",
                   "--out", str(report_path)])
        assert rc == 0
        report = json.loads(read(report_path))
        assert report["rel_error_mod_phase"] < 1e-3
        assert report["success"] is True

    def test_solve_wf_and_bm(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        main(["gen", "pr", "--n", "6", "--m", "36", "--seed", "3",
              "--out", str(inst_path)])
        rep_path = tmp_path / "wf.json"
        assert main(["solve", "wf", "--in", str(inst_path), "--out", str(rep_path)]) == 0
        assert json.loads(read(rep_path))["rel_error_mod_phase"] < 1e-3
        rep_path = tmp_path / "bm.json"
        assert main(["solve", "bm", "--in", str(inst_path), "--p", "2",
                     "--out", str(rep_path)]) == 0
        assert json.loads(read(rep_path))["rel_error_mod_phase"] < 1e-2

    def test_solve_bm_structured_frame(self, tmp_path):
        # a rank-two solve on the structured frame reaches its rank-one optimum
        inst_path = tmp_path / "frame.json"
        assert main(["gen", "pr", "--n", "16", "--m", "96", "--ensemble",
                     "structured-frame", "--seed", "0", "--out", str(inst_path)]) == 0
        rep_path = tmp_path / "bm.json"
        assert main(["solve", "bm", "--in", str(inst_path), "--p", "2",
                     "--out", str(rep_path)]) == 0
        report = json.loads(read(rep_path))
        assert report["converged"] is True
        assert report["success"] is True
        # the Riemannian gradient norm at the returned factor
        assert isinstance(report["final_residual"], float)
        assert math.isfinite(report["final_residual"])

    def test_solve_bm_real_gaussian(self, tmp_path):
        # a real instance is rounded to a real, signed estimate
        inst_path = tmp_path / "real.json"
        assert main(["gen", "pr", "--n", "8", "--m", "64", "--ensemble", "real-gaussian",
                     "--seed", "3", "--out", str(inst_path)]) == 0
        rep_path = tmp_path / "bm.json"
        assert main(["solve", "bm", "--in", str(inst_path), "--p", "2",
                     "--out", str(rep_path)]) == 0
        report = json.loads(read(rep_path))
        assert report["success"] is True
        assert report["rel_error_mod_phase"] < 1e-6

    def test_bench_fig5_real_gaussian_rates(self, tmp_path):
        out = tmp_path / "f5.csv"
        assert main(["bench", "fig5", "--n", "8", "--mn-grid", "6,8", "--trials", "10",
                     "--ensemble", "real-gaussian,complex-gaussian", "--p", "1,2",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in read(out).decode().strip().split("\n")[1:]]
        assert len(rows) == 8
        assert all(float(row[5]) >= 0.9 for row in rows), rows

    def test_gen_solve_sync(self, tmp_path):
        inst_path = tmp_path / "sync.json"
        assert main(["gen", "sync", "--n", "30", "--sigma", "0.3", "--seed", "2",
                     "--out", str(inst_path)]) == 0
        rep_path = tmp_path / "gpm.json"
        assert main(["solve", "gpm", "--in", str(inst_path), "--out", str(rep_path)]) == 0
        assert json.loads(read(rep_path))["converged"] is True

    def test_bench_cli_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "fig1", "--n", "12", "--mn-grid", "3,4", "--trials", "4",
                "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    @pytest.mark.parametrize("argv, flag, spaced", [
        (["fig5", "--n", "8", "--mn-grid", "3", "--trials", "2", "--p", "1"], "--ensemble",
         "complex-gaussian, real-gaussian"),
        (["fig1", "--n", "8", "--mn-grid", "3", "--trials", "2"], "--algos", "ap, phasecut"),
    ], ids=["ensemble", "algos"])
    def test_bench_list_blanks_dropped(self, tmp_path, argv, flag, spaced):
        a, b = tmp_path / "spaced.csv", tmp_path / "unspaced.csv"
        assert main(["bench", *argv, flag, spaced, "--out", str(a)]) == 0
        assert main(["bench", *argv, flag, spaced.replace(" ", ""), "--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_bench_adds_no_defaults(self, tmp_path):
        # an omitted flag is not passed, so the runner's default applies
        a, b = tmp_path / "cli.csv", tmp_path / "config.csv"
        assert main(["bench", "fig3", "--n", "40", "--d-grid", "0.01", "--out", str(a)]) == 0
        run_fig3(n=40, d_grid=(0.01,), out=str(b))
        assert read(a) == read(b)

    @pytest.mark.parametrize("argv, flag", [
        (["bench", "fig1", "--n", "0", "--mn-grid", "3", "--trials", "1"], "--n"),
        (["bench", "fig1", "--n", "8", "--mn-grid", "3", "--trials", "0"], "--trials"),
        (["bench", "fig1", "--n", "8", "--mn-grid", "3", "--trials", "-2"], "--trials"),
        (["bench", "fig3", "--n", "8", "--d-grid", "0.01", "--pairs", "0"], "--pairs"),
        (["bench", "basin", "--n", "4", "--grid", "0"], "--grid"),
        (["bench", "sync", "--n", "10", "--sigma", "0", "--max-iter", "0"], "--max-iter"),
        (["bench", "fig5", "--n", "8", "--mn-grid", "3", "--trials", "1", "--p", "0,ref"], "--p"),
        (["solve", "ap", "--max-iter", "0"], "--max-iter"),
    ], ids=["fig1-n", "fig1-trials-zero", "fig1-trials-negative", "fig3-pairs", "basin-grid",
            "sync-max-iter", "fig5-p", "solve-max-iter"])
    def test_count_below_one_exit_code(self, tmp_path, capsys, argv, flag):
        # a count flag below 1 is rejected, never read as the default
        inst_path, csv_path = tmp_path / "inst.json", tmp_path / "x.csv"
        main(["gen", "pr", "--n", "8", "--m", "48", "--out", str(inst_path)])
        io = ["--in", str(inst_path)] if argv[0] == "solve" else ["--out", str(csv_path)]
        assert main(argv + io) == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err
        assert not csv_path.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["fig1", "--n", "8", "--mn-grid", "3", "--trials", "1", "--tau", "-1"], "--tau"),
        (["fig5", "--n", "8", "--mn-grid", "3", "--trials", "1", "--tau", "0"], "--tau"),
        (["basin", "--n", "4", "--grid", "3", "--half-width", "0"], "--half-width"),
        (["basin", "--n", "4", "--grid", "3", "--half-width", "-2"], "--half-width"),
        (["fig1", "--n", "8", "--mn-grid", "3", "--trials", "2", "--tau", "inf"], "--tau"),
        (["basin", "--n", "8", "--grid", "3", "--m", "80", "--half-width", "inf"], "--half-width"),
    ], ids=["fig1-tau-negative", "fig5-tau-zero", "basin-half-width-zero",
            "basin-half-width-negative", "fig1-tau-inf", "basin-half-width-inf"])
    def test_nonpositive_real_exit_code(self, tmp_path, capsys, argv, flag):
        csv_path = tmp_path / "x.csv"
        assert main(["bench", *argv, "--out", str(csv_path)]) == 2
        assert f"{flag} must be > 0" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_bench_unread_flag_exit_code(self, tmp_path, capsys):
        # fig1 reads none of these: each is named as typed, nothing runs
        with pytest.raises(SystemExit) as exc:
            main(["bench", "fig1", "--n", "8", "--mn-grid", "3", "--trials", "1",
                  "--loo", "--pairs", "3", "--sigma", "0.1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # reported with the figure's own usage line, which lists the flags it reads
        assert err.startswith("usage: lowrankrec bench fig1 [-h] [--seed SEED] [--n N]")
        assert "unrecognized arguments: --loo --pairs 3 --sigma 0.1" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["fig3", "--n", "8", "--p", "2"], "--p"),
        (["sync", "--n", "10", "--m", "5"], "--m"),
    ], ids=["fig3-p-not-pairs", "sync-m-not-max-iter"])
    def test_bench_flag_is_not_abbreviated(self, tmp_path, capsys, argv, flag):
        # an unread flag is never taken for a longer flag the figure reads
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag", [
        (["gen", "pr", "--n", "8", "--m", "32", "--sigma", "0.7"], "--sigma"),
        (["gen", "sync", "--n", "10", "--m", "5"], "--m"),
        (["gen", "sync", "--n", "10", "--ensemble", "structured-frame"], "--ensemble"),
        (["solve", "ap", "--p", "2"], "--p"),
        (["solve", "wf", "--p", "5"], "--p"),
        (["solve", "wf", "--seed", "3"], "--seed"),
        (["solve", "gpm", "--p", "5"], "--p"),
        (["solve", "gpm", "--seed", "3"], "--seed"),
    ], ids=["gen-pr-sigma", "gen-sync-m", "gen-sync-ensemble", "ap-p", "wf-p", "wf-seed",
            "gpm-p", "gpm-seed"])
    def test_gen_solve_unread_flag_exit_code(self, tmp_path, capsys, argv, flag):
        # rejected while parsing: the missing instance file is never opened
        # and nothing is written
        out = tmp_path / "out.json"
        io = ["--in", str(tmp_path / "missing.json")] if argv[0] == "solve" else []
        with pytest.raises(SystemExit) as exc:
            main(argv + io + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: lowrankrec {argv[0]} {argv[1]} [-h] ")
        assert f"unrecognized arguments: {flag}" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, trial", [
        (["fig1", "--n", "8", "--mn-grid", "3", "--trials", "2", "--algos", "ap,xx"], "_ap_trial"),
        (["fig3", "--n", "8", "--d-grid", "0.01", "--pairs", "2", "--algos", "AP,xx"],
         "displacement_probe"),
        (["fig5", "--n", "8", "--mn-grid", "3", "--trials", "1", "--p", "1",
          "--ensemble", "complex-gaussian,foo"], "_bm_trial"),
    ], ids=["fig1-algos", "fig3-algos", "fig5-ensemble"])
    def test_unknown_name_fails_before_any_trial(self, tmp_path, monkeypatch, argv, trial):
        calls = []
        monkeypatch.setattr(harness, trial, lambda *a, **k: calls.append(a))
        assert main(["bench", *argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert calls == []

    @pytest.mark.parametrize("argv, trial, need", [
        (["fig3", "--n", "8", "--d-grid", "0.01,2.5", "--pairs", "2"], "displacement_probe",
         "--d-grid: d must lie in (0, 2), got 2.5"),
        (["fig5", "--n", "12", "--mn-grid", "3", "--trials", "1", "--p", "1",
          "--ensemble", "complex-gaussian,structured-frame"], "_bm_trial",
         "structured-frame requires n a power of two, got 12"),
        (["sync", "--n", "10", "--sigma", "0,-0.1"], "gpm", "--sigma: sigma must be >= 0, got -0.1"),
        (["fig1", "--n", "8", "--mn-grid", "3,nan", "--trials", "1"], "_ap_trial",
         "--mn-grid: m/n must be finite and >= 0, got nan"),
        (["fig1", "--n", "8", "--mn-grid", "3,inf", "--trials", "1"], "_ap_trial",
         "--mn-grid: m/n must be finite and >= 0, got inf"),
        (["fig5", "--n", "8", "--mn-grid", "3,-1", "--trials", "1", "--p", "1"], "_bm_trial",
         "--mn-grid: m/n must be finite and >= 0, got -1.0"),
        (["sync", "--n", "20", "--sigma", "0,inf"], "gpm", "--sigma: sigma must be finite, got inf"),
        (["fig5", "--n", "4", "--mn-grid", "3,1", "--p", "5", "--trials", "1",
          "--ensemble", "complex-gaussian"], "riemannian_gd",
         "--p: factor width must be <= m = 4, got 5"),
        (["fig5", "--n", "1", "--mn-grid", "1", "--p", "ref", "--trials", "1"], "riemannian_gd",
         "--p: factor width must be <= m = 1, got 'ref'"),
        # m = 0 passes; m = 2 is below the reference width ceil(sqrt(4)) + 1 = 3
        (["fig1", "--n", "2", "--mn-grid", "0,3,1", "--trials", "1", "--algos", "phasecut"],
         "riemannian_gd",
         "--mn-grid: phasecut's reference width ceil(sqrt(2m)) + 1 must be <= m, got 1.0"),
        (["fig1", "--n", "8", "--mn-grid", "3", "--trials", "1", "--algos", "ap,ap"], "_ap_trial",
         "--algos: repeats ap of an earlier entry, got 'ap'"),
        (["fig1", "--n", "40", "--mn-grid", "2,2.01", "--trials", "1"], "_ap_trial",
         "--mn-grid: repeats m = 80 of an earlier entry, got 2.01"),
        (["fig5", "--n", "2", "--mn-grid", "2,2", "--p", "1", "--trials", "3",
          "--ensemble", "complex-gaussian"], "riemannian_gd",
         "--mn-grid: repeats m = 4 of an earlier entry, got 2.0"),
        (["fig5", "--n", "2", "--mn-grid", "0,2", "--p", "1,1", "--trials", "3",
          "--ensemble", "complex-gaussian"], "riemannian_gd",
         "--p: repeats 1 of an earlier entry, got 1"),
        (["fig5", "--n", "8", "--mn-grid", "3", "--p", "1", "--trials", "1",
          "--ensemble", "complex-gaussian,complex-gaussian"], "riemannian_gd",
         "--ensemble: repeats complex-gaussian of an earlier entry, got 'complex-gaussian'"),
        (["fig3", "--n", "8", "--d-grid", "0.01,0.01", "--pairs", "2"], "displacement_probe",
         "--d-grid: repeats 0.01 of an earlier entry, got 0.01"),
        (["sync", "--n", "10", "--sigma", "0,0.1,0"], "gpm",
         "--sigma: repeats 0.0 of an earlier entry, got 0.0"),
    ], ids=["fig3-d", "fig5-frame-size", "sync-sigma", "fig1-nan", "fig1-inf", "fig5-negative",
            "sync-sigma-inf", "fig5-p-above-m", "fig5-ref-above-m", "fig1-phasecut-ref-width",
            "fig1-repeat-algos", "fig1-repeat-m", "fig5-repeat-m", "fig5-repeat-p",
            "fig5-repeat-ensemble", "fig3-repeat-d", "sync-repeat-sigma"])
    def test_bad_grid_value_fails_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                   argv, trial, need):
        calls = []
        monkeypatch.setattr(harness, trial, lambda *a, **k: calls.append(a))
        assert main(["bench", *argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert calls == []
        assert need in capsys.readouterr().err

    def test_fig1_phasecut_has_no_size_limit(self, tmp_path, monkeypatch):
        # m = 560: the reference-width solve is fig5's `ref` column, which has no limit on m
        calls = []
        monkeypatch.setattr(harness, "_bm_trial", lambda *a, **k: calls.append(a) or True)
        assert main(["bench", "fig1", "--n", "8", "--mn-grid", "70", "--trials", "1",
                     "--algos", "phasecut", "--out", str(tmp_path / "x.csv")]) == 0
        assert [(inst.m, p) for inst, p, *_ in calls] == [(560, 35)]

    @pytest.mark.parametrize("argv", [
        ["bench", "fig1", "--n", "8", "--mn-grid", "0", "--trials", "2", "--seed", "-1"],
        ["bench", "fig1", "--n", "8", "--mn-grid", "3", "--trials", "2", "--seed", "-1"],
        ["gen", "sync", "--n", "10", "--seed", "-1"],
        ["solve", "ap", "--in", "missing.json", "--seed", "-1"],
        ["solve", "bm", "--in", "missing.json", "--seed", "-1"],
    ], ids=["fig1-no-trial", "fig1", "gen-sync", "solve-ap", "solve-bm"])
    def test_negative_seed_exit_code(self, tmp_path, monkeypatch, capsys, argv):
        # rejected naming its flag, before the instance file is read or any file written
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--out", "out"]) == 2
        assert "config error: --seed must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig1_writes_zero_measurement_row(self, tmp_path):
        # m = 0 is fig5's 0-success row, not a configuration error
        out = tmp_path / "f1.csv"
        assert main(["bench", "fig1", "--n", "8", "--mn-grid", "3,0", "--trials", "2",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in read(out).decode().strip().split("\n")[1:]]
        assert rows[1] == ["ap", "8", "0", "2", "0", "0.0", "0"]

    @pytest.mark.parametrize("argv", [
        ["basin", "--n", "8", "--grid", "3", "--m", "4"],
        ["fig3", "--n", "8", "--m", "4", "--pairs", "3", "--d-grid", "0.1"],
    ], ids=["basin", "fig3"])
    def test_undersampled_bench_exit_code(self, tmp_path, capsys, argv):
        csv_path = tmp_path / "x.csv"
        assert main(["bench", *argv, "--out", str(csv_path)]) == 2
        assert "m=4, n=8" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_gen_ensembles_are_the_library_kinds(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        gen = next(a for a in sub.choices["gen"]._actions
                   if isinstance(a, argparse._SubParsersAction))
        ensemble = next(a for a in gen.choices["pr"]._actions if a.dest == "ensemble")
        assert ensemble.choices is ENSEMBLE_KINDS

    def test_bench_flags_match_runner_parameters(self):
        # each figure's flags are exactly its runner's parameters, spelled by _flag
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        bench = next(a for a in sub.choices["bench"]._actions
                     if isinstance(a, argparse._SubParsersAction))
        assert set(bench.choices) == set(RUNNERS)
        for figure, runner in RUNNERS.items():
            flags = {a.dest: a.option_strings for a in bench.choices[figure]._actions
                     if a.option_strings and a.dest != "help"}
            assert set(flags) == set(inspect.signature(runner).parameters), figure
            assert all(spellings == [_flag(dest)] for dest, spellings in flags.items())

    def test_runner_rejects_bad_settings(self):
        with pytest.raises(ValueError, match="--trials must be >= 1"):
            run_fig1(n=8, mn_grid=(3.0,), trials=-2)
        with pytest.raises(ValueError, match="--n must be >= 1"):
            run_fig1(n=0, mn_grid=(3.0,), trials=1)
        with pytest.raises(TypeError):
            run_fig1(n=8, mn_grid=(3.0,), trials=1, pairs=3)

    @pytest.mark.parametrize("argv", [
        ["fig1", "--algos", "ap"],
        ["fig1", "--algos", "phasecut"],
        ["fig5", "--p", "1", "--ensemble", "complex-gaussian"],
    ], ids=["fig1-ap", "fig1-phasecut", "fig5-p1"])
    def test_rank_deficient_trial_fails(self, tmp_path, argv):
        # m < n leaves the measurement matrix rank deficient: a failed trial
        out = tmp_path / "f.csv"
        assert main(["bench", *argv, "--n", "8", "--mn-grid", "0.5,3", "--trials", "2",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in read(out).decode().strip().split("\n")[1:]]
        assert rows[0][2:5] == ["4", "2", "0"]

    def test_trial_stream_layout(self, monkeypatch):
        # trial ti at grid point gi draws its instance on (tag, [ensemble,] gi, ti, 0)
        # and its solver on (..., 1), (..., 1, 0) for phasecut, or (..., 1 + width index)
        # in fig5; CSV bytes rest on it
        calls = []

        def recording(name, fn, stream_arg):
            def wrapper(*a, **k):
                calls.append((name, *a[1:stream_arg], a[stream_arg].path))
                return fn(*a, **k)
            return wrapper

        for name, stream_arg in [("gen_phase_retrieval", 3), ("alternating_projections", 1),
                                 ("riemannian_gd", 2)]:
            monkeypatch.setattr(harness, name, recording(name, getattr(harness, name),
                                                         stream_arg))
        run_fig1(n=4, mn_grid=(0, 3), trials=2, algos=("ap", "phasecut"))
        assert calls == [
            ("gen_phase_retrieval", 12, "complex-gaussian", (1, 1, 0, 0)),
            ("alternating_projections", (1, 1, 0, 1)),
            ("gen_phase_retrieval", 12, "complex-gaussian", (1, 1, 1, 0)),
            ("alternating_projections", (1, 1, 1, 1)),
            ("gen_phase_retrieval", 12, "complex-gaussian", (1, 1, 0, 0)),
            ("riemannian_gd", 6, (1, 1, 0, 1, 0)),
            ("gen_phase_retrieval", 12, "complex-gaussian", (1, 1, 1, 0)),
            ("riemannian_gd", 6, (1, 1, 1, 1, 0)),
        ]
        calls.clear()
        kinds = ("complex-gaussian", "structured-frame")
        run_fig5(n=4, mn_grid=(0, 3), trials=2, ensembles=kinds, p_values=(1, "ref"))
        # "ref" is width ceil(sqrt(2 * 12)) + 1 = 6 at m = 12
        assert calls == [
            call for ki, kind in enumerate(kinds) for pi, width in enumerate((1, 6))
            for ti in range(2) for call in (
                ("gen_phase_retrieval", 12, kind, (5, ki, 1, ti, 0)),
                ("riemannian_gd", width, (5, ki, 1, ti, 1 + pi)))
        ]

    def test_solve_ap_undersampled_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "small.json"
        main(["gen", "pr", "--n", "8", "--m", "4", "--seed", "1", "--out", str(inst_path)])
        assert main(["solve", "ap", "--in", str(inst_path)]) == 2
        assert "m=4, n=8" in capsys.readouterr().err

    def test_solve_bm_undersampled_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "small.json"
        main(["gen", "pr", "--n", "8", "--m", "4", "--seed", "1", "--out", str(inst_path)])
        assert main(["solve", "bm", "--in", str(inst_path), "--p", "1"]) == 2
        assert "bm needs m >= n measurements, got m=4, n=8" in capsys.readouterr().err

    @pytest.mark.parametrize("gen, p, N", [
        (["sync", "--n", "8"], "50", 8),
        (["pr", "--n", "8", "--m", "48"], "60", 48),
    ], ids=["sync", "pr"])
    def test_solve_bm_width_above_n_exit_code(self, tmp_path, capsys, gen, p, N):
        inst_path = tmp_path / "inst.json"
        main(["gen", *gen, "--out", str(inst_path)])
        assert main(["solve", "bm", "--in", str(inst_path), "--p", p]) == 2
        assert f"--p must be <= N = {N}, got {p}" in capsys.readouterr().err

    def test_sync_loo_negative_eigenvalue_exit_code(self, tmp_path, capsys):
        # at sigma = 3 sqrt(n/log n) one leave-one-out matrix of this instance
        # has a negative eigenvalue dominant in modulus: a numeric failure,
        # and no CSV is written
        out = tmp_path / "s.csv"
        rc = main(["bench", "sync", "--n", "60", "--sigma", "3", "--seed", "6", "--loo",
                   "--out", str(out)])
        assert rc == 3
        assert "column 19 converged to eigenvalue -164.39" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_error_exit_code(self, tmp_path, capsys):
        # gen pr without --m is a configuration error, found while parsing
        with pytest.raises(SystemExit) as exc:
            main(["gen", "pr", "--n", "8", "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert "required: --m" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["no/such/x.out", "."], ids=["missing-dir", "a-dir"])
    @pytest.mark.parametrize("argv", [
        ["bench", "fig5", "--n", "8", "--mn-grid", "3,4", "--trials", "3", "--p", "1,2",
         "--ensemble", "complex-gaussian"],
        ["gen", "pr", "--n", "8", "--m", "48"],
        ["solve", "ap"],
    ], ids=["bench", "gen", "solve"])
    def test_bad_out_path_fails_first(self, tmp_path, monkeypatch, capsys, argv, out):
        # no trial runs and no instance is generated or read
        calls = []

        def record(*a, **k):
            calls.append(a)

        monkeypatch.setattr(harness, "_bm_trial", record)
        monkeypatch.setattr(cli, "gen_phase_retrieval", record)
        monkeypatch.setattr(cli, "load_instance", record)
        io = ["--in", str(tmp_path / "inst.json")] if argv[0] == "solve" else []
        out = str(tmp_path / out)
        assert main(argv + io + ["--out", out]) == 2
        assert f"--out: {out!r} is not a file in an existing directory" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        # every main call after the first parses with the same parser
        args = ["bench", "fig3", "--n", "8", "--m", "16", "--d-grid", "0.1", "--pairs", "1",
                "--out", str(tmp_path / "x.csv")]
        assert main(args) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *a, **k):
            built.append(k.get("prog"))
            init(self, *a, **k)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(3):
            assert main(args) == 0
        assert built == []

    def test_structured_frame_size_exit_code(self, tmp_path):
        # the structured frame needs n a power of two: a configuration error
        rc = main(["gen", "pr", "--n", "30", "--m", "120", "--ensemble", "structured-frame",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize("solver, gen, message", [
        ("ap", ["sync", "--n", "10", "--sigma", "0.1"], "ap expects a phase retrieval instance"),
        ("gpm", ["pr", "--n", "8", "--m", "48"], "gpm expects a synchronization instance"),
    ], ids=["ap-on-sync", "gpm-on-pr"])
    def test_solver_mismatch_exit_code(self, tmp_path, capsys, solver, gen, message):
        inst_path = tmp_path / "inst.json"
        main(["gen", *gen, "--out", str(inst_path)])
        rc = main(["solve", solver, "--in", str(inst_path)])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("solver, gen", [
        ("ap", ["pr", "--n", "8", "--m", "48"]),
        ("gpm", ["sync", "--n", "8", "--sigma", "0.1"]),
    ], ids=["ap", "gpm"])
    def test_solve_prints_the_json_it_writes(self, tmp_path, capsys, solver, gen):
        inst_path = tmp_path / "inst.json"
        main(["gen", *gen, "--out", str(inst_path)])
        out = tmp_path / "report.json"
        assert main(["solve", solver, "--in", str(inst_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["solve", solver, "--in", str(inst_path)]) == 0
        assert capsys.readouterr().out == read(out).decode()

    @pytest.mark.parametrize("matrix", ["not numbers", {"re": 1.0}, [[[1.0, 0.0]], [[1.0]]],
                                        [[[True, False]] * 8] * 48],
                             ids=["string", "object", "ragged", "bool"])
    def test_non_numeric_instance_exit_code(self, tmp_path, capsys, matrix):
        inst_path = tmp_path / "inst.json"
        main(["gen", "pr", "--n", "8", "--m", "48", "--out", str(inst_path)])
        data = json.loads(read(inst_path))
        data["matrix"] = matrix
        inst_path.write_text(json.dumps(data))
        assert main(["solve", "ap", "--in", str(inst_path)]) == 2
        assert "instance field 'matrix' is not a numeric array" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "0"])
    @pytest.mark.parametrize("figure", ["sync", "fig3", "basin"])
    def test_sync_bench_too_few_nodes_exit_code(self, tmp_path, capsys, figure, n):
        # n = 1 has no relative phase and no tangent plane to measure
        rc = main(["bench", figure, "--n", n, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"{figure} needs n >= 2, got 1" if n == "1" else "--n must be >= 1") in err
        assert not (tmp_path / "x.csv").exists()

    def test_non_finite_instance_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "sync.json"
        main(["gen", "sync", "--n", "10", "--sigma", "0.1", "--out", str(inst_path)])
        data = json.loads(read(inst_path))
        data["observations"][0][1][0] = float("nan")
        inst_path.write_text(json.dumps(data))
        assert main(["solve", "gpm", "--in", str(inst_path)]) == 2
        assert "'observations'" in capsys.readouterr().err

    def test_missing_field_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "sync.json"
        main(["gen", "sync", "--n", "10", "--sigma", "0.1", "--out", str(inst_path)])
        data = json.loads(read(inst_path))
        del data["truth"]
        inst_path.write_text(json.dumps(data))
        assert main(["solve", "gpm", "--in", str(inst_path)]) == 2
        assert "missing field 'truth'" in capsys.readouterr().err

    def test_instance_file_not_an_object_exit_code(self, tmp_path, capsys):
        inst_path = tmp_path / "list.json"
        inst_path.write_text("[1, 2]")
        assert main(["solve", "ap", "--in", str(inst_path)]) == 2
        assert "instance file must hold a JSON object" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path):
        # m >= n, but two equal columns leave the measurement matrix rank n - 1
        inst_path = tmp_path / "dup.json"
        main(["gen", "pr", "--n", "8", "--m", "48", "--seed", "1", "--out", str(inst_path)])
        data = json.loads(read(inst_path))
        for row in data["matrix"]:
            row[1] = row[0]
        inst_path.write_text(json.dumps(data))
        assert main(["solve", "ap", "--in", str(inst_path)]) == 3
        assert main(["solve", "bm", "--in", str(inst_path), "--p", "1"]) == 3


REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    """perfbench/bench.py, loaded as a module."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_bench", REPO / "perfbench" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkHooks:
    def test_perfbench_wrapped_names_resolve(self, bench):
        # perfbench/bench.py wraps library functions by module attribute name;
        # installing its traced probe fails if any of those names is gone
        probe = bench.Probe()
        bench.install(probe, lowrankrec, traced=True)
        originals = {}
        for mod, attr, fn in probe._restore:
            originals.setdefault((mod.__name__, attr), (mod, fn))
        probe.unwrap()
        assert originals
        for (_, attr), (mod, fn) in originals.items():
            assert getattr(mod, attr) is fn

    def test_command_lines_parse(self, bench, tmp_path):
        # every perfbench command line parses, and each setting is its runner's parameter
        for name in bench.WORKLOADS:
            for argv in bench.command_lines(name, 1, tmp_path):
                settings = vars(build_parser().parse_args(argv))
                assert settings.pop("command") == "bench"
                settings.pop("parser")
                params = inspect.signature(RUNNERS[settings.pop("figure")]).parameters
                assert set(settings) <= set(params), argv


class TestCompareOutputs:
    def test_command_lines_parse(self, tmp_path):
        # every command line tools/compare_outputs.py runs is one the CLI accepts
        path = REPO / "tools" / "compare_outputs.py"
        spec = importlib.util.spec_from_file_location("compare_outputs", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        lines = module.command_lines(tmp_path)
        assert {argv[0] for argv in lines} == {"bench", "gen", "solve"}
        for argv in lines:
            build_parser().parse_args(argv)


class TestImports:
    def test_unused_imports_are_perfbench_wrapped(self, bench):
        # an import its module never reads is flagged, unless it carries
        # `# noqa: F401` and perfbench's traced probe wraps it in that module
        probe = bench.Probe()
        bench.install(probe, lowrankrec, traced=True)
        wrapped = {(mod.__name__, attr) for mod, attr, _ in probe._restore}
        probe.unwrap()
        unused, unwrapped = [], []
        for path in sorted((REPO / "src" / "lowrankrec").glob("*.py")):
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text)
            lines = text.splitlines()
            read_names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                        isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    continue
                exempt = "# noqa: F401" in " ".join(lines[node.lineno - 1:node.end_lineno])
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    where = (f"lowrankrec.{path.stem}", name)
                    if name in read_names:
                        continue
                    if not exempt:
                        unused.append(where)
                    elif where not in wrapped:
                        unwrapped.append(where)
        assert unused == []
        assert unwrapped == []

    def test_tests_import_from_defining_module(self):
        # a test imports each library name from the module that defines it,
        # never through a module that merely imports it
        src = REPO / "src" / "lowrankrec"
        defined = {}
        for path in src.glob("*.py"):
            names = set()
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            defined[f"lowrankrec.{path.stem}"] = names
        indirect = []
        for path in sorted((REPO / "tests").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module in defined:
                    indirect += [(path.name, node.module, alias.name) for alias in node.names
                                 if alias.name not in defined[node.module]]
        assert indirect == []

    def test_cli_import_binds_the_wrapped_modules(self):
        # perfbench imports `lowrankrec, lowrankrec.cli` in a fresh process and
        # reads the modules it wraps as attributes of the package, which the
        # package's own __init__ does not import
        code = ("import lowrankrec, lowrankrec.cli; print(lowrankrec.__file__); print(' '.join("
                "m for m in ('harness', 'phase_retrieval', 'burer_monteiro', 'phase_sync', "
                "'landscape') if not hasattr(lowrankrec, m)))")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO,
                             capture_output=True, text=True, check=True).stdout.split("\n")
        assert Path(out[0]).resolve() == REPO / "src" / "lowrankrec" / "__init__.py"
        assert out[1] == ""


class TestFactorizationCount:
    @pytest.mark.parametrize("run, factorizations", [
        (lambda: run_fig5(n=4, mn_grid=(4.0,), trials=1, ensembles=("complex-gaussian",),
                          p_values=(2,)), 1),
        (lambda: run_fig1(n=4, mn_grid=(3.0,), trials=1, algos=("phasecut",)), 1),
        (lambda: run_fig3(n=8, pairs=3), 0),
        (lambda: run_fig1(n=8, mn_grid=(4.0,), trials=1), 1),
        (lambda: run_basin(n=4, grid=3), 1),
    ], ids=["fig5-trial", "fig1-phasecut-trial", "fig3-default-grid", "fig1-ap-trial", "basin"])
    def test_one_qr_per_instance(self, monkeypatch, run, factorizations):
        # each run builds one instance; every reader of its thin QR shares one
        # factorization, and fig3 reads none: both probes back-project through B
        calls = []
        qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        run()
        assert len(calls) == factorizations

import argparse
import importlib.util
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest

import lowrankrec
from lowrankrec import harness
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
        run_sync(seed=2, n=30, sigma_grid=(0.1,),
                 loo=True, out=str(out))
        loo = read(str(out) + ".loo0.csv").decode().strip().split("\n")
        assert loo[0] == "t,max_dist_aux,max_corr_main,max_corr_aux"
        assert len(loo) >= 2

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
        csv_path = tmp_path / "x.csv"
        assert main(["bench", "fig1", "--n", "8", "--mn-grid", "3", "--trials", "1",
                     "--loo", "--pairs", "3", "--sigma", "0.1", "--out", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in ("--loo", "--pairs", "--sigma"))
        assert not csv_path.exists()

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
        (["fig1", "--n", "8", "--mn-grid", "3,70", "--trials", "1", "--algos", "ap,phasecut"],
         "_ap_trial", "--mn-grid: phasecut's reference solver needs m <= 512, got 70.0"),
        (["fig1", "--n", "8", "--mn-grid", "3,70", "--trials", "1", "--algos", "phasecut"],
         "reference_sdp_solve", "--mn-grid: phasecut's reference solver needs m <= 512, got 70.0"),
        (["fig5", "--n", "4", "--mn-grid", "3,1", "--p", "5", "--trials", "1",
          "--ensemble", "complex-gaussian"], "riemannian_gd",
         "--p: factor width must be <= m = 4, got 5"),
        (["fig5", "--n", "1", "--mn-grid", "1", "--p", "ref", "--trials", "1"], "riemannian_gd",
         "--p: factor width must be <= m = 1, got 'ref'"),
        # m = 0 passes; m = 2 is below the reference width ceil(sqrt(4)) + 1 = 3
        (["fig1", "--n", "2", "--mn-grid", "0,3,1", "--trials", "1", "--algos", "phasecut"],
         "reference_sdp_solve",
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
            "sync-sigma-inf", "fig1-phasecut-size-ap", "fig1-phasecut-size-ref", "fig5-p-above-m",
            "fig5-ref-above-m", "fig1-phasecut-ref-width", "fig1-repeat-algos", "fig1-repeat-m",
            "fig5-repeat-m", "fig5-repeat-p", "fig5-repeat-ensemble", "fig3-repeat-d",
            "sync-repeat-sigma"])
    def test_bad_grid_value_fails_before_any_trial(self, tmp_path, monkeypatch, capsys,
                                                   argv, trial, need):
        calls = []
        monkeypatch.setattr(harness, trial, lambda *a, **k: calls.append(a))
        assert main(["bench", *argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert calls == []
        assert need in capsys.readouterr().err

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
        ensemble = next(a for a in sub.choices["gen"]._actions if a.dest == "ensemble")
        assert ensemble.choices is ENSEMBLE_KINDS

    def test_bench_flags_match_runner_parameters(self):
        # every bench flag feeds some runner, and every runner parameter has a flag
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a.option_strings for a in sub.choices["bench"]._actions
                 if a.option_strings and a.dest != "help"}
        params = set().union(*(inspect.signature(r).parameters for r in RUNNERS.values()))
        assert set(flags) == params
        assert all(_flag(dest) in spellings for dest, spellings in flags.items())

    def test_runner_rejects_bad_settings(self):
        with pytest.raises(ValueError, match="--trials must be >= 1"):
            run_fig1(n=8, mn_grid=(3.0,), trials=-2)
        with pytest.raises(ValueError, match="--n must be >= 1"):
            run_fig1(n=0, mn_grid=(3.0,), trials=1)
        with pytest.raises(TypeError):
            run_fig1(n=8, mn_grid=(3.0,), trials=1, pairs=3)

    def test_fig1_ap_below_m_equals_n(self, tmp_path):
        # m < n leaves the range projection rank deficient: a failed trial
        out = tmp_path / "f1.csv"
        assert main(["bench", "fig1", "--n", "8", "--mn-grid", "0.5,3", "--trials", "2",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in read(out).decode().strip().split("\n")[1:]]
        assert rows[0][2:5] == ["4", "2", "0"]

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

    def test_config_error_exit_code(self, tmp_path):
        # gen pr without --m is a configuration error
        rc = main(["gen", "pr", "--n", "8", "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_structured_frame_size_exit_code(self, tmp_path):
        # the structured frame needs n a power of two: a configuration error
        rc = main(["gen", "pr", "--n", "30", "--m", "120", "--ensemble", "structured-frame",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_solver_mismatch_exit_code(self, tmp_path):
        inst_path = tmp_path / "sync.json"
        main(["gen", "sync", "--n", "10", "--sigma", "0.1", "--out", str(inst_path)])
        rc = main(["solve", "ap", "--in", str(inst_path)])
        assert rc == 2

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


class TestBenchmarkHooks:
    def test_perfbench_wrapped_names_resolve(self, monkeypatch):
        # perfbench/bench.py wraps library functions by module attribute name;
        # installing its traced probe fails if any of those names is gone
        bench_dir = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(bench_dir))
        spec = importlib.util.spec_from_file_location("perfbench_bench", bench_dir / "bench.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        probe = bench.Probe()
        bench.install(probe, lowrankrec, traced=True)
        originals = {}
        for mod, attr, fn in probe._restore:
            originals.setdefault((mod.__name__, attr), (mod, fn))
        probe.unwrap()
        assert originals
        for (_, attr), (mod, fn) in originals.items():
            assert getattr(mod, attr) is fn


class TestFactorizationCount:
    @pytest.mark.parametrize("run", [
        lambda: run_fig5(n=4, mn_grid=(4.0,), trials=1, ensembles=("complex-gaussian",),
                         p_values=(2,)),
        lambda: run_fig1(n=4, mn_grid=(3.0,), trials=1, algos=("phasecut",)),
        lambda: run_fig3(n=8, pairs=3),
        lambda: run_fig1(n=8, mn_grid=(4.0,), trials=1),
        lambda: run_basin(n=4, grid=3),
    ], ids=["fig5-trial", "fig1-phasecut-trial", "fig3-default-grid", "fig1-ap-trial", "basin"])
    def test_one_qr_per_instance(self, monkeypatch, run):
        # each run builds one instance; every reader of its thin QR shares one factorization
        calls = []
        qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            calls.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        run()
        assert len(calls) == 1

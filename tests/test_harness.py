import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import lowrankrec
from lowrankrec.cli import main
from lowrankrec.harness import (
    SUCCESS_HEADER,
    ExperimentConfig,
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
            run_fig1(ExperimentConfig("fig1", seed=3, n=16, mn_grid=(3.0, 5.0),
                                      trials=5, out=str(out)))
        assert read(out1) == read(out2)

    def test_fig3_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_fig3(ExperimentConfig("fig3", seed=3, n=40, d_grid=(0.01, 0.05),
                                      pairs=20, m=400, out=str(out)))
        assert read(out1) == read(out2)

    def test_sync_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_sync(ExperimentConfig("sync", seed=4, n=40, sigma_grid=(0.0, 0.2),
                                      out=str(out)))
        assert read(out1) == read(out2)

    def test_fig5_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_fig5(ExperimentConfig("fig5", seed=5, n=8, mn_grid=(0.0, 3.0),
                                      trials=3, p_values=(1,),
                                      ensembles=("complex-gaussian",),
                                      max_iter=2000, out=str(out)))
        assert read(out1) == read(out2)

    def test_basin_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_basin(ExperimentConfig("basin", seed=6, n=8, grid=7,
                                       m=80, max_iter=300, out=str(out)))
        assert read(out1) == read(out2)


class TestCSVShape:
    def test_fig1_header_and_rows(self, tmp_path):
        out = tmp_path / "f1.csv"
        rows = run_fig1(ExperimentConfig("fig1", seed=1, n=12, mn_grid=(3.0, 4.0),
                                         trials=4, out=str(out)))
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
        rows, _ = run_sync(ExperimentConfig("sync", seed=2, n=n, sigma_grid=(huge,),
                                            max_iter=60, out=str(out)))
        lines = read(out).decode().strip().split("\n")
        assert len(lines) == 2
        assert rows[0][4] in (True, False)

    def test_sync_zero_noise_row(self, tmp_path):
        rows, _ = run_sync(ExperimentConfig("sync", seed=2, n=40, sigma_grid=(0.0,)))
        frac, sigma, n, iters, converged, rel_err, rho, r2, seed = rows[0]
        assert converged and iters == 1 and rel_err < 1e-10

    def test_loo_dump(self, tmp_path):
        out = tmp_path / "s.csv"
        run_sync(ExperimentConfig("sync", seed=2, n=30, sigma_grid=(0.1,),
                                  loo=True, out=str(out)))
        loo = read(str(out) + ".loo0.csv").decode().strip().split("\n")
        assert loo[0] == "t,max_dist_aux,max_corr_main,max_corr_aux"
        assert len(loo) >= 2

    def test_basin_labels(self):
        labels = run_basin(ExperimentConfig("basin", seed=6, n=8, grid=9,
                                            m=80, max_iter=400))
        assert labels.shape == (9, 9)
        assert labels[4, 4] == 0  # center of the plane is the ground truth

    def test_basin_full_size_shows_competing_basins(self):
        # the default benchmark setting: several basins appear but the
        # solution basin holds a strict majority of the grid
        labels = run_basin(ExperimentConfig("basin", seed=0, n=20, grid=101,
                                            m=400))
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
        # an omitted flag leaves its ExperimentConfig field at the config's default
        a, b = tmp_path / "cli.csv", tmp_path / "config.csv"
        assert main(["bench", "fig3", "--n", "40", "--d-grid", "0.01", "--out", str(a)]) == 0
        run_fig3(ExperimentConfig("fig3", n=40, d_grid=(0.01,), out=str(b)))
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
    def test_sync_bench_too_few_nodes_exit_code(self, tmp_path, n):
        rc = main(["bench", "sync", "--n", n, "--out", str(tmp_path / "x.csv")])
        assert rc == 2

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
        # undersampled phasecut solve hits a rank-deficient system
        inst_path = tmp_path / "small.json"
        main(["gen", "pr", "--n", "8", "--m", "4", "--seed", "1",
              "--out", str(inst_path)])
        rc = main(["solve", "bm", "--in", str(inst_path), "--p", "1"])
        assert rc == 3


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

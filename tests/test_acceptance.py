"""Acceptance gate: every criterion of the benchmark suite at its stated
tolerance, one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.  The slowest criteria are
the figure reproductions (several minutes each); everything is seeded and
deterministic.
"""

import math

import numpy as np

import lowrankrec.burer_monteiro as bm
from lowrankrec.harness import (
    run_basin,
    run_fig1,
    run_fig3,
    run_fig5,
    run_sync,
)
from lowrankrec.landscape import expected_grad, expected_hess_form, expected_loss
from lowrankrec.numerics import RngStream, hermitize, sample_gaussian
from lowrankrec.phase_retrieval import wf_grad, wf_loss
from lowrankrec.phase_sync import fixed_point_residual, gpm, loo_run
from lowrankrec.problems import gen_phase_retrieval, gen_sync

SEED = 0


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c01_fig1_alternating_projections_rates():
    targets = {2.0: 0.0, 3.0: 0.199, 4.0: 0.658, 5.0: 0.856, 6.0: 0.95, 7.5: 0.987}
    rows = run_fig1(seed=SEED, n=40, mn_grid=tuple(targets), trials=200)
    rates = {m / 40: rate for (_, _, m, _, _, rate, _) in rows}
    gaps = {k: abs(rates[k] - targets[k]) for k in targets}
    ok = all(g <= 0.10 for g in gaps.values())
    report(1, ok, "AP rates " + ", ".join(f"{k}:{rates[k]:.3f}" for k in sorted(rates)))
    assert ok, f"rate gaps vs Figure-1 data exceed 0.10: {gaps}"


def test_c02_fig5_burer_monteiro_rates():
    gauss = run_fig5(
        seed=SEED, n=32, mn_grid=(4.0, 5.0, 6.0, 7.0, 8.0), trials=20,
        p_values=(1, 2), ensembles=("complex-gaussian",))
    structured = run_fig5(
        seed=SEED, n=32, mn_grid=(5.0, 6.0, 7.0, 8.0), trials=20,
        p_values=(1, 2), ensembles=("structured-frame",))

    def rates(rows, p):
        return {m / 32: r for (alg, _, m, _, _, r, _) in rows
                if alg.startswith(f"bm-p{p}/")}

    g1, g2 = rates(gauss, 1), rates(gauss, 2)
    s1, s2 = rates(structured, 1), rates(structured, 2)
    print(f"criterion 2 data: gaussian p1={g1} p2={g2}")
    print(f"criterion 2 data: structured p1={s1} p2={s2}")

    failures = []
    if not all(g2[k] >= 0.85 for k in (5.0, 6.0, 7.0, 8.0)):
        failures.append(f"gaussian p=2 rates below 0.85 for m/n>=5: {g2}")
    if abs(g1[4.0] - 0.44) > 0.30:
        failures.append(f"gaussian p=1 rate at m/n=4 outside 0.44±0.30: {g1[4.0]}")
    if s1[8.0] > 0.5:
        failures.append(f"structured p=1 rate at m/n=8 above 0.5: {s1[8.0]}")
    if not all(s2[k] >= 0.85 for k in (5.0, 6.0, 7.0, 8.0)):
        failures.append(f"structured p=2 rates below 0.85 for m/n>=5: {s2}")
    report(2, not failures, "; ".join(failures) if failures else
           f"gauss p1@4={g1[4.0]:.2f}, gauss p2 min={min(g2[k] for k in (5.,6.,7.,8.)):.2f}, "
           f"structured p1@8={s1[8.0]:.2f}, structured p2 min={min(s2[k] for k in (5.,6.,7.,8.)):.2f}")
    assert not failures, "; ".join(failures)


def test_c03_fig3_displacement_curves():
    d_grid = (0.0025, 0.01, 0.025, 0.05, 0.075, 0.1)
    rows = run_fig3(seed=SEED, n=400, d_grid=d_grid,
                    pairs=1000, m=4000)
    means = {(alg, d): v for (alg, d, v, _, _) in rows}
    wf_targets = {0.0025: 0.0017039957974030098, 0.05: 0.03406297986696872,
                  0.1: 0.06818228612076621}
    ap_targets = {0.0025: 0.01629128576296882, 0.1: 0.13431554428213968}
    ok_wf_vals = all(abs(means[("WF", d)] - t) <= 0.30 * t for d, t in wf_targets.items())
    ok_ap_vals = all(abs(means[("AP", d)] - t) <= 0.30 * t for d, t in ap_targets.items())
    ap_ratio_small = means[("AP", 0.0025)] / 0.0025
    ap_ratio_large = means[("AP", 0.1)] / 0.1
    ok_ap_slope = ap_ratio_small >= 3 * ap_ratio_large
    wf_ratios = np.array([means[("WF", d)] / d for d in d_grid])
    ok_wf_slope = (wf_ratios.max() - wf_ratios.min()) <= 0.20 * wf_ratios.mean() \
        and wf_ratios.max() < 1.0
    ok = ok_wf_vals and ok_ap_vals and ok_ap_slope and ok_wf_slope
    report(3, ok, f"WF means ok:{ok_wf_vals} AP means ok:{ok_ap_vals} "
                  f"AP ratio {ap_ratio_small:.2f} vs {ap_ratio_large:.2f}, "
                  f"WF ratios {wf_ratios.round(3)}")
    assert ok_wf_vals, {d: means[("WF", d)] for d in wf_targets}
    assert ok_ap_vals, {d: means[("AP", d)] for d in ap_targets}
    assert ok_ap_slope, (ap_ratio_small, ap_ratio_large)
    assert ok_wf_slope, wf_ratios


def _ring_points():
    """Exact members of the three expected-landscape critical sets."""
    cases = []
    for a in (1.0, 0.75, 2.0):
        x_s = np.zeros(6, dtype=complex)
        x_s[0] = a
        x_s[1] = a
        ring = np.zeros(6, dtype=complex)
        ring[3] = a
        cases.append((x_s, ring))
    return cases


def test_c04_landscape_identities():
    ok_grad = True
    ok_hess = True
    for x_s, ring in _ring_points():
        ok_grad &= bool(np.all(expected_grad(x_s, x_s) == 0))
        ok_grad &= bool(np.all(expected_grad(np.zeros(6, dtype=complex), x_s) == 0))
        ok_grad &= bool(np.all(expected_grad(ring, x_s) == 0))
        ns2 = float(np.real(np.vdot(x_s, x_s)))
        q = expected_hess_form(ring, x_s, x_s)
        ok_hess &= abs(q - (-2.0 * ns2 ** 2)) <= 1e-10 * max(1.0, ns2 ** 2)

    rng = RngStream(SEED, (4,))
    n = 10
    x_s = sample_gaussian(rng.split(0), n, "complex")
    x_s /= np.linalg.norm(x_s)
    x = sample_gaussian(rng.split(1), n, "complex")
    reps = 100_000
    V = sample_gaussian(rng.split(2), reps * n, "complex").reshape(reps, n)
    mc = float(np.mean(0.5 * (np.abs(V @ x) ** 2 - np.abs(V @ x_s) ** 2) ** 2))
    ref = expected_loss(x, x_s)
    ok_mc = abs(mc - ref) <= 0.02 * ref
    report(4, ok_grad and ok_hess and ok_mc,
           f"grad exact zeros:{ok_grad} ring hessian:{ok_hess} "
           f"monte-carlo {mc:.5f} vs {ref:.5f}")
    assert ok_grad and ok_hess and ok_mc


def test_c05_gradient_and_hessian_oracles():
    worst_g = 0.0
    for i in range(100):
        rng = RngStream(SEED, (5, i))
        inst = gen_phase_retrieval(5, 12, "complex-gaussian", rng.split(0))
        x = sample_gaussian(rng.split(1), 5, "complex")
        h = sample_gaussian(rng.split(2), 5, "complex")
        eps = 1e-5
        fd = (wf_loss(inst, x + eps * h) - wf_loss(inst, x - eps * h)) / (2 * eps)
        an = 2.0 * float(np.real(np.vdot(wf_grad(inst, x), h)))
        worst_g = max(worst_g, abs(fd - an) / max(abs(an), 1e-12))
    ok_g = worst_g < 1e-6

    # sosp_probe raises FDInconsistent beyond 5% disagreement; 50 triples
    ok_h = True
    for i in range(50):
        rng = RngStream(SEED, (55, i))
        C = hermitize(sample_gaussian(rng.split(0), 64, "real").reshape(8, 8))
        prob = bm.UnitDiagSDP(C)
        V = bm.random_factor(rng.split(1), 8, 2)
        bm.sosp_probe(prob, V, trials=1, rng=rng.split(2))
    report(5, ok_g and ok_h, f"worst grad fd error {worst_g:.2e}; 50 quadform probes ok")
    assert ok_g and ok_h


def test_c06_gpm_properties():
    n = 200
    inst0 = gen_sync(n, 0.0, RngStream(SEED, (6, 0)))
    rep0, _ = gpm(inst0)
    ok_exact = rep0.iterations == 1 and rep0.rel_error_mod_phase < 1e-10

    sigma = 0.2 * math.sqrt(n / math.log(n))
    inst = gen_sync(n, sigma, RngStream(SEED, (6, 1)))
    tol = 1e-10 * math.sqrt(n)
    rep, _ = gpm(inst, tol=tol)
    ok_fp = rep.converged and \
        fixed_point_residual(inst.observations, rep.estimate) < 1e-9 * math.sqrt(n)
    obj = rep.objective_trace
    ok_mono = bool(np.all(np.diff(obj) >= -1e-9 * max(1.0, abs(obj[-1]))))
    r = rep.residual_trace
    live = r > 10 * tol
    t = np.arange(len(r))[1:][live[1:]]
    y = np.log(r[1:][live[1:]])
    slope, b0 = np.polyfit(t, y, 1)
    fit = slope * t + b0
    r2 = 1 - np.sum((y - fit) ** 2) / np.sum((y - y.mean()) ** 2)
    ok_geo = slope < 0 and r2 > 0.95
    report(6, ok_exact and ok_fp and ok_mono and ok_geo,
           f"one-step:{ok_exact} fixed-point:{ok_fp} ascent:{ok_mono} "
           f"rate fit rho={math.exp(slope):.3f} R2={r2:.4f}")
    assert ok_exact and ok_fp and ok_mono and ok_geo


def test_c07_leave_one_out_diagnostics():
    n = 200
    sigma = 0.2 * math.sqrt(n / math.log(n))
    inst = gen_sync(n, sigma, RngStream(SEED, (6, 1)))  # same setting as c06
    diag = loo_run(inst, gpm(inst, max_iter=300)[1])
    dist_bound = math.sqrt(n) / 60
    corr_bound = 5 * sigma * math.sqrt(n * math.log(n))
    ok_dist = bool(np.all(diag.max_dist_aux <= dist_bound))
    ok_corr = bool(np.all(diag.max_corr_aux <= corr_bound))
    report(7, ok_dist and ok_corr,
           f"max gap {diag.max_dist_aux.max():.4f} <= {dist_bound:.4f}; "
           f"max corr {diag.max_corr_aux.max():.1f} <= {corr_bound:.1f}")
    assert ok_dist and ok_corr


def test_c08_multistart_consistency():
    worst = 0.0
    for i in range(20):
        rng = RngStream(SEED, (8, i))
        C = hermitize(sample_gaussian(rng.split(0), 400, "real").reshape(20, 20))
        prob = bm.UnitDiagSDP(C)
        vals = []
        for s in range(5):
            _, rep = bm.riemannian_gd(prob, 7, rng.split(1, s), max_iter=30000)
            vals.append(rep.objective_trace[-1])
        worst = max(worst, (max(vals) - min(vals)) / abs(min(vals)))
    ok = worst <= 1e-6
    report(8, ok, f"worst relative multistart spread {worst:.2e}")
    assert ok


def test_c09_phasecut_matrix_contract():
    worst = 0.0
    min_eig_ok = True
    for i in range(10):
        rng = RngStream(SEED, (9, i))
        inst = gen_phase_retrieval(6, 18, "complex-gaussian", rng.split(0))
        prob = bm.phasecut_cost(inst)
        w = np.linalg.eigvalsh(prob.cost)
        min_eig_ok &= w[0] >= -1e-10 * max(abs(w[-1]), 1e-300)
        for j in range(100):
            u = np.exp(2j * np.pi * rng.split(1, j).generator.random(18))
            lhs = float(np.real(np.vdot(u, prob.cost @ u)))
            y = inst.moduli * u
            x = np.linalg.lstsq(inst.matrix, y, rcond=None)[0]
            rhs = float(np.linalg.norm(inst.matrix @ x - y) ** 2)
            worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-12))
    ok = worst <= 1e-8 and min_eig_ok
    report(9, ok, f"worst relative residual mismatch {worst:.2e}; PSD:{min_eig_ok}")
    assert ok


def test_c10_benchmark_determinism(tmp_path):
    def twice(name, **kwargs):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.csv"
            {"fig1": run_fig1, "fig3": run_fig3, "fig5": run_fig5,
             "basin": run_basin, "sync": run_sync}[name](out=str(out), **kwargs)
            with open(out, "rb") as f:
                outs.append(f.read())
        return outs[0] == outs[1]

    results = {
        "fig1": twice("fig1", seed=1, n=16, mn_grid=(3.0, 5.0), trials=5),
        "fig3": twice("fig3", seed=1, n=40, d_grid=(0.01, 0.1), pairs=25,
                      m=400),
        "fig5": twice("fig5", seed=1, n=8, mn_grid=(3.0,), trials=3,
                      p_values=(1, 2), ensembles=("complex-gaussian",),
                      max_iter=2000),
        "basin": twice("basin", seed=1, n=8, grid=7, m=80,
                       max_iter=300),
        "sync": twice("sync", seed=1, n=40, sigma_grid=(0.0, 0.2), loo=True),
    }
    ok = all(results.values())
    report(10, ok, f"byte-identical reruns: {results}")
    assert ok

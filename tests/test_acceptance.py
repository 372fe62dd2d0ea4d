"""End-to-end acceptance criteria for the periodic-approximation laboratory.

Each test prints exactly one [criterion N] PASS/FAIL line with the measured
quantities, then asserts.  The checkerboard convergence study is shared
between the periodization-convergence and rate-fit criteria through a
module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from perhom import (
    EllipticSpec,
    EnvSpec,
    HamiltonianSpec,
    SolverParams,
    StructuralConstants,
    StudyConfig,
    check_sandwich,
    ergodic_constant_periodic,
    ergodic_constant_periodic_elliptic,
    estimate_Hbar_reference,
    fbar_linear_1d,
    fit_rate,
    flat_spot_halfwidth,
    hbar_1d_first_order,
    linear_elliptic_spec,
    make_grid,
    periodize_elliptic,
    periodize_hjb,
    run_convergence_study,
    run_validation,
    sample_env,
)
from perhom.harness import compute_row


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _cosine_hjb():
    env = EnvSpec(kind="cosine", dimension=1, value_range=(1.0, 3.0))
    cst = StructuralConstants(c_struct=7.0, gamma=2.0, c_corr=2.0)
    return HamiltonianSpec(env=sample_env(env, 0), c1=1.0, gamma=2.0,
                           constants=cst)


def _cosine_reference(spec, p):
    """Discount-extrapolated reference with the dissipation bias removed.

    tol 1e-6: the discounted Jacobian has condition ~ theta/(h delta) at
    N = 2048 and delta = 1e-3, which floors the reachable residual near
    1e-7; a 1e-6 defect moves the extrapolated value by ~1e-6, three
    orders below the tolerance being certified.
    """
    est = estimate_Hbar_reference(
        spec, [p], [4e-3, 2e-3, 1e-3], box=1.0,
        params=SolverParams(tol=1e-6), grid_n=2048,
        dissipation_extrapolation=True)
    return est.value


def test_criterion_1_constant_medium_exactness():
    t0 = time.perf_counter()
    env = EnvSpec(kind="constant", dimension=1, value_range=(2.0, 2.0))
    cst = StructuralConstants(c_struct=3.0, gamma=2.0, c_corr=1.0)
    spec = HamiltonianSpec(env=sample_env(env, 0), c1=1.0, gamma=2.0,
                           constants=cst)
    worst = 0.0
    for p in (0.0, 1.0, 2.5):
        want = p ** 2 - 2.0
        ref = estimate_Hbar_reference(spec, [p], [2e-2, 1e-2], box=4.0,
                                      params=SolverParams(tol=1e-10),
                                      grid_n=64)
        worst = max(worst, abs(ref.value - want))
        orc = hbar_1d_first_order(lambda x: 2.0, 1.0, 2.0, p)
        worst = max(worst, abs(orc - want))
        for L in (4.0, 16.0):
            per = periodize_hjb(spec, L, 0.25, H0_constant=2.0, H0_c1=1.0)
            grid = make_grid(1, L, int(16 * L))
            est = ergodic_constant_periodic(per, [p], grid,
                                            SolverParams(tol=1e-10))
            worst = max(worst, abs(est.value - want))
    dt = time.perf_counter() - t0
    _report(1, worst <= 1e-6 and dt < 10.0,
            f"max deviation from p^2-2 is {worst:.2e} (tol 1e-6), "
            f"{dt:.1f}s (budget 10s)")


def test_criterion_2_cosine_oracle_agreement():
    t0 = time.perf_counter()
    spec = _cosine_hjb()
    V = lambda x: 2.0 + np.cos(2.0 * np.pi * x)
    worst = 0.0
    flat_value = None
    for p in (0.0, 0.5, 2.0, 5.0):
        ref = _cosine_reference(spec, p)
        orc = hbar_1d_first_order(V, 1.0, 2.0, p, quad_N=1024)
        worst = max(worst, abs(ref - orc))
        if p == 0.0:
            flat_value = ref
    dt = time.perf_counter() - t0
    flat_ok = abs(flat_value - (-1.0)) <= 2e-3
    _report(2, worst <= 2e-3 and flat_ok and dt < 120.0,
            f"max |reference - oracle| = {worst:.2e} (tol 2e-3), "
            f"flat value {flat_value:.6f} (want -1 +- 2e-3), "
            f"{dt:.1f}s (budget 120s)")


def test_criterion_3_flat_spot_variation():
    t0 = time.perf_counter()
    spec = _cosine_hjb()
    V = lambda x: 2.0 + np.cos(2.0 * np.pi * x)
    w = flat_spot_halfwidth(V, 1.0, 2.0)
    ps = [0.0, 0.3 * w, 0.6 * w, 0.9 * w]
    vals = [_cosine_reference(spec, p) for p in ps]
    variation = max(vals) - min(vals)
    dt = time.perf_counter() - t0
    _report(3, variation <= 5e-3 and dt < 120.0,
            f"computed constant varies by {variation:.2e} over |p| <= "
            f"0.9*{w:.4f} (tol 5e-3), {dt:.1f}s (budget 120s)")


_CHECKERBOARD = {
    "env": {"kind": "checkerboard", "dimension": 1,
            "value_range": [0.0, 3.0], "cell_size": 1.0,
            "mollify_radius": 0.25},
    "model": {"type": "hjb", "c1": 1.0, "gamma": 2.0,
              "constants": {"c_struct": 4.0, "gamma": 2.0,
                            "c_corr": 2.0}},
    "p_list": [0.0, 1.0, 2.0],
    "L_list": [8.0, 16.0, 32.0, 64.0],
    "seeds": list(range(16)),
    "eta_mode": {"mode": "fixed", "value": 0.1},
    "solver": {"tol": 1e-8, "dissipation_extrapolation": True},
    "reference": {"method": "oracle", "box": 256.0, "quad_N": 2048},
    "nodes_per_unit": 16,
}


@pytest.fixture(scope="module")
def checkerboard_study():
    cfg = StudyConfig.from_json(_CHECKERBOARD)
    t0 = time.perf_counter()
    result = run_convergence_study(cfg)
    result.config["wall_time"] = time.perf_counter() - t0
    return result


def test_criterion_4_periodization_convergence(checkerboard_study):
    result = checkerboard_study
    dt = result.config["wall_time"]
    med = {}
    for L in (8.0, 64.0):
        errs = [r.abs_err for r in result.rows
                if r.L == L and np.isfinite(r.abs_err)]
        med[L] = float(np.median(errs))
    halved = med[64.0] <= 0.5 * med[8.0]
    cst = StructuralConstants(c_struct=4.0, gamma=2.0, c_corr=2.0)
    rep = check_sandwich(result, cst, tol_margin=0.15)
    at64 = rep["per_L"][64.0]
    need = 15.0 / 16.0
    upper_ok = at64["upper_pass"] >= need * at64["total"]
    lower_ok = at64["lower_pass"] >= need * at64["total"]
    finite = math.isfinite(rep["C_report"])
    _report(4, halved and upper_ok and lower_ok and finite and dt < 1200.0,
            f"median err L=8 {med[8.0]:.4f} -> L=64 {med[64.0]:.4f} "
            f"(ratio {med[64.0] / med[8.0]:.3f}, need <= 0.5); sandwich at "
            f"L=64 upper {at64['upper_pass']}/{at64['total']}, lower "
            f"{at64['lower_pass']}/{at64['total']} (need >= 15/16); "
            f"C_report {rep['C_report']:.3f}; {dt:.0f}s (budget 1200s)")


def test_criterion_4_sweep_has_no_nan_rows():
    # the criterion-4 cells of seeds 0-31: every cell solve converges, also
    # at the steep iterates of the bordered Newton phase (no references)
    cfg = StudyConfig.from_json({**_CHECKERBOARD, "seeds": list(range(32))})
    t0 = time.perf_counter()
    nan = [(seed, L, p) for seed in cfg.seeds for L in cfg.L_list
           for p in cfg.p_list
           if not math.isfinite(compute_row(cfg, seed, L, p, 0.0).constant_L)]
    dt = time.perf_counter() - t0
    _report("4 sweep", not nan and dt < 600.0,
            f"NaN rows {len(nan)} of 384 (want 0) {nan[:4]}; {dt:.0f}s "
            f"(budget 600s)")


def test_criterion_5_rate_harness(checkerboard_study):
    t0 = time.perf_counter()
    Ls = [2.0 ** k for k in range(3, 10)]
    a_bar = 0.5
    slope, _, _ = fit_rate([(L, L ** (-a_bar / (4.0 * (a_bar + 1.0))))
                            for L in Ls])
    synthetic_ok = abs(slope - (-1.0 / 12.0)) <= 1e-10
    dt = time.perf_counter() - t0
    per_L = {}
    for r in checkerboard_study.rows:
        if np.isfinite(r.abs_err):
            per_L.setdefault(r.L, []).append(r.abs_err)
    pairs = [(L, float(np.median(v))) for L, v in sorted(per_L.items())]
    study_slope, _, _ = fit_rate(pairs)
    _report(5, synthetic_ok and study_slope < 0.0 and dt < 1.0,
            f"synthetic slope {slope:.12f} (want -1/12 +- 1e-10), "
            f"study slope {study_slope:.3f} (want < 0), "
            f"synthetic part {dt * 1e3:.0f}ms (budget 1s)")


def test_criterion_6_elliptic_oracle_agreement():
    t0 = time.perf_counter()
    cst = StructuralConstants(c_struct=3.0, gamma=2.0, c_corr=1.0,
                              lambda_bar=0.5, Lambda_bar=2.5)
    spec = linear_elliptic_spec(None, {"inv_cos": [0.5]}, {"cos": [0.5, 0.2]},
                                cst, dimension=1)
    a = lambda x: 1.0 / (1.0 + 0.5 * np.cos(2.0 * np.pi * x))
    f = lambda x: 0.5 + 0.2 * np.cos(2.0 * np.pi * x)
    worst_grid = 0.0
    med = {}
    per_P_errs = {L: [] for L in (4.0, 8.0, 16.0)}
    for P in (-1.0, 0.0, 2.0):
        orc = fbar_linear_1d(a, f, P, quad_N=512)
        grid = make_grid(1, 1.0, 2048)
        # tol 1e-8: sparse-solve roundoff floors the residual near 1e-9
        # on this grid
        est = ergodic_constant_periodic_elliptic(spec, [[P]], grid,
                                                 SolverParams(tol=1e-8))
        worst_grid = max(worst_grid, abs(est.value - orc))
        for L in (4.0, 8.0, 16.0):
            # eta_L = lambda(L)^{1/3} with lambda(L) = L^{-6}: decreasing
            # cutoff width so the blend bias vanishes along the sweep
            per = periodize_elliptic(spec, L, L ** -2.0)
            estL = ergodic_constant_periodic_elliptic(
                per, [[P]], make_grid(1, L, int(256 * L)),
                SolverParams(tol=1e-8))
            per_P_errs[L].append(abs(estL.value - orc))
    for L, errs in per_P_errs.items():
        med[L] = float(np.median(errs))
    decreasing = med[4.0] > med[8.0] > med[16.0]
    dt = time.perf_counter() - t0
    _report(6, worst_grid <= 1e-4 and decreasing and dt < 600.0,
            f"grid-vs-oracle max err {worst_grid:.2e} (tol 1e-4); median "
            f"periodized err {med[4.0]:.4f} -> {med[8.0]:.4f} -> "
            f"{med[16.0]:.4f} over L in (4, 8, 16) (want decreasing); "
            f"{dt:.0f}s (budget 600s)")


def test_criterion_7_ellipticity_bracket():
    t0 = time.perf_counter()
    cst = StructuralConstants(c_struct=3.0, gamma=2.0, c_corr=1.0,
                              lambda_bar=0.5, Lambda_bar=2.5)
    spec = EllipticSpec(
        env=None, family="bellman", dimension=2, constants=cst,
        controls=({"matrix": [[1.0, 0.2], [0.2, 1.0]],
                   "a": {"cos": [1.0, 0.3]}, "f": {"cos": [0.0, 0.5]}},))
    P0 = np.array([[0.3, 0.0], [0.0, -0.2]])
    t, tol = 1e-2, 1e-8
    per = periodize_elliptic(spec, 4.0, 0.1)
    grid = make_grid(2, 4.0, 96)
    v0 = ergodic_constant_periodic_elliptic(per, P0, grid,
                                            SolverParams(tol=tol)).value
    v1 = ergodic_constant_periodic_elliptic(per, P0 + t * np.eye(2), grid,
                                            SolverParams(tol=tol)).value
    diff = v1 - v0
    lo = -cst.Lambda_bar * t * 2 - 4 * tol
    hi = -cst.lambda_bar * t * 0.95 + 4 * tol
    dt = time.perf_counter() - t0
    _report(7, lo <= diff <= hi and dt < 600.0,
            f"F_L(P + tI) - F_L(P) = {diff:.6f} in [{lo:.6f}, {hi:.6f}] "
            f"at t = 1e-2; {dt:.0f}s (budget 600s)")


def test_criterion_8_structural_validation_suite():
    t0 = time.perf_counter()
    results = run_validation()
    dt = time.perf_counter() - t0
    failed = [name for name, ok, _ in results if not ok]
    _report(8, not failed and len(results) >= 6 and dt < 300.0,
            f"{len(results) - len(failed)}/{len(results)} validation checks "
            f"green{', failed: ' + ', '.join(failed) if failed else ''}; "
            f"{dt:.0f}s (budget 300s)")

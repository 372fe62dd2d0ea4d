"""Fast tests of the benchmark's exact values and of its checks.

    PYTHONPATH=src python -m pytest -q perfbench

The exact-value routines are tested against closed forms and the
re-derived media against perhom's own samplers; every check is shown to
reject a constant perturbed past its bound.
"""

import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import exact_values as ev  # noqa: E402
import workloads as wl  # noqa: E402
from perhom import EnvSpec, eval_cutoff, eval_potential, sample_env  # noqa: E402
from perhom.harness import ResultRow, StudyResult  # noqa: E402
from perhom.periodize import CutoffProfile, choose_H0_constant  # noqa: E402
from perhom.model import StructuralConstants  # noqa: E402


# --- exact values against closed forms -------------------------------------

@pytest.mark.parametrize("p", [0.0, 0.7, 2.5])
def test_constant_medium_gives_c1_p_gamma_minus_V(p):
    V = np.full(100, 1.7)
    for gamma in (1.5, 2.0):
        assert ev.hbar_1d(V, 0.8, gamma, p) == pytest.approx(
            0.8 * p ** gamma - 1.7, abs=1e-11)


def test_cosine_flat_value_and_halfwidth():
    x = ev.cell_points(1.0, 1 << 16, 1)
    V = 2.0 + np.cos(2.0 * np.pi * x[:, 0])
    # the sample minimum misses min V = 1 by O(h^2)
    assert ev.hbar_1d(V, 1.0, 2.0, 0.5) == pytest.approx(-1.0, abs=1e-8)
    assert ev.flat_halfwidth(V, 1.0, 2.0) == pytest.approx(
        2.0 * math.sqrt(2.0) / math.pi, abs=1e-8)
    # just past the flat spot the constant leaves -1 and grows with |p|
    beyond = ev.hbar_1d(V, 1.0, 2.0, 1.0)
    assert -1.0 < beyond < ev.hbar_1d(V, 1.0, 2.0, 1.5)


def test_constant_coefficient_linear_elliptic():
    a, f = np.full(50, 1.3), np.full(50, 0.4)
    assert ev.linear_constant(a, f, 0.6) == pytest.approx(0.4 - 1.3 * 0.6,
                                                          abs=1e-15)


def test_h0_constant_matches_perhom():
    cst = StructuralConstants(c_struct=4.0, gamma=2.0, c_corr=2.0)
    assert ev.h0_constant(4.0, 2.0, 2.0) == choose_H0_constant(cst) == 32.0


@pytest.mark.parametrize("env", [
    {"kind": "checkerboard", "dimension": 1, "value_range": [0.0, 3.0],
     "mollify_radius": 0.25},
    wl.HJB2D_MEDIA["checkerboard"][0],
    wl.HJB2D_MEDIA["poisson"][0],
    wl.COSINE_ENV,
])
def test_rederived_media_match_perhom(env):
    pts = np.random.default_rng(3).uniform(-40.0, 40.0,
                                           size=(200, env["dimension"]))
    for seed in (0, 5):
        sample = sample_env(EnvSpec.from_json(env), seed)
        ref = np.array([eval_potential(sample, x) for x in pts])
        assert np.max(np.abs(ev.medium(env, seed, pts) - ref)) < 1e-13


def test_cutoff_matches_perhom():
    y = np.random.default_rng(4).uniform(-1.0, 1.0, size=(500, 2))
    prof = CutoffProfile(0.1)
    assert np.array_equal(ev.cutoff(0.1, y), eval_cutoff(prof, y, d=2))
    assert np.array_equal(ev.cutoff(0.1, y[:, :1]), eval_cutoff(prof, y[:, 0]))


# --- every check rejects a perturbed constant ------------------------------

def _study(work, seed, p, constants, ref):
    rows = [ResultRow(seed=seed, L=L, eta_used=wl.HJB1D_ETA, p=repr(p),
                      constant_L=c, constant_ref=ref, abs_err=0.0,
                      residual=0.0, iterations=1, lipschitz_estimate=0.0,
                      wall_time=0.0)
            for L, c in zip(wl.HJB1D_L, constants)]
    return StudyResult(config={}, rows=rows)


def _hjb1d_outputs(work, row_shift=0.0, ref_shift=(0.0, 0.0, 0.0)):
    seed = work.seeds[0]
    refs = [-work.box_min(seed), 0.1, 0.2]
    out = {}
    for p, ref, dref in zip(wl.HJB1D_P, refs, ref_shift):
        exact = [work.exact_row(seed, L, p) for L in wl.HJB1D_L]
        exact[-1] += row_shift if p == 1.0 else 0.0
        out[f"seed{seed}/p{p:g}"] = _study(work, seed, p, exact, ref + dref)
    return out


def _failed(outcomes):
    return sorted(name for name, o in outcomes.items() if o.failure)


def test_hjb1d_checks_reject_perturbed_constants():
    work = wl.Hjb1dStudy(0)
    tol = ev.grid_min_tolerance(wl.HJB1D_ENV["value_range"],
                                wl.HJB1D_ENV["mollify_radius"],
                                1.0 / wl.EXACT_PER_UNIT)
    assert _failed(work.check(_hjb1d_outputs(work))) == []
    assert _failed(work.check(_hjb1d_outputs(work, row_shift=1.01 * wl.ROW_BOUND))) \
        == ["seed0/p1"]
    assert _failed(work.check(_hjb1d_outputs(work, row_shift=1.4e6))) == ["seed0/p1"]
    assert _failed(work.check(_hjb1d_outputs(work, ref_shift=(2 * tol, 0, 0)))) \
        == ["seed0/p0"]
    # a reference that decreases in |p|
    assert _failed(work.check(_hjb1d_outputs(work, ref_shift=(0, 0, -0.2)))) \
        == ["seed0/p2"]


def test_hjb2d_checks_reject_perturbed_constants():
    work = wl.Hjb2dViscous(0)

    def outputs(name=None, value=None):
        out = {}
        for case in work.cases:
            lo, hi = work.bracket(case)
            c = 0.5 * (lo + hi)
            if case.startswith("cosine"):
                c = work.cosine_exact(work.cases[case][1])
            pair = [c, c]
            if case == name:
                pair = [value(case, c), c]
            out[case] = [SimpleNamespace(value=v) for v in pair]
        return out

    assert _failed(work.check(outputs())) == []
    name = "poisson/p1,0.5"
    assert _failed(work.check(outputs(
        name, lambda case, c: work.bracket(case)[1] + 1e-3))) == [name]
    assert _failed(work.check(outputs(
        name, lambda case, c: work.bracket(case)[0] - 1e-3))) == [name]
    name = "cosine/p2,1"
    # the check reads 2 c(theta) - c(2 theta), so move c(theta) by half
    assert _failed(work.check(outputs(
        name, lambda case, c: c + 0.51 * wl.COSINE_BOUND))) == [name]
    assert _failed(work.check(outputs(
        name, lambda case, c: float("nan")))) == [name]


def test_elliptic_checks_reject_perturbed_constants():
    work = wl.Elliptic2d(0)

    def outputs(names=(), shift=0.0):
        out = {}
        for case, (_, P, _) in work.cases.items():
            trP = float(np.trace(P))
            if case == "linear_V":
                c = work.node_constant(wl.LIN_A, wl.LIN_F, trP)
            elif case.startswith("analytic"):
                c = work.continuum_constant(wl.ANALYTIC_A, wl.ANALYTIC_F, trP)
            else:
                c = max(work.control_constants(trP)) + 0.05
            out[case] = SimpleNamespace(value=c + (shift if case in names else 0.0))
        return out

    assert _failed(work.check(outputs())) == []
    assert _failed(work.check(outputs(["linear_V"], 2 * wl.DISCRETE_SLACK))) \
        == ["linear_V"]
    assert _failed(work.check(outputs(["analytic/P1"], 1.1 * wl.CONTINUUM_BOUND))) \
        == ["analytic/P1"]
    # Bellman constants below a single control's, with their difference kept
    assert _failed(work.check(outputs(["bellman/P", "bellman/P+tI"], -0.1))) \
        == ["bellman/P", "bellman/P+tI"]
    # F_L(P + tI) - F_L(P) must lie in the ellipticity bracket, on both sides
    assert _failed(work.check(outputs(["bellman/P+tI"], 0.05))) == ["bellman/P+tI"]
    assert _failed(work.check(outputs(["bellman/P"], 0.5))) == ["bellman/P+tI"]

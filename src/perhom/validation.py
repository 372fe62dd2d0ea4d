"""Built-in structural fixture suite.

Checks that do not depend on any study configuration: cutoff bounds,
bit-exact shift covariance, scheme monotonicity, blend-target domination,
the coercivity sandwich on oracle outputs, and determinism/resumability of
the study harness.  Each check returns (name, passed, detail); the CLI
``validate`` subcommand runs them all.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .environment import EnvSpec, eval_potential_points, sample_env, shift_env
from .model import HamiltonianSpec, StructuralConstants
from .periodize import CutoffProfile, choose_H0_constant, eval_cutoff
from .hjb_solver import (_discretize, _gradient_cap, _operator, default_theta,
                         make_grid)
from .oracle import hbar_1d_first_order
from . import harness

__all__ = ["run_validation"]


def _cutoff_bounds() -> tuple[bool, str]:
    worst = 0.0
    for eta in (0.1, 0.25):
        prof = CutoffProfile(eta)
        if eval_cutoff(prof, 0.0) != 0.0 or eval_cutoff(prof, 0.5 - eta / 4) != 1.0:
            return False, f"plateau values wrong at eta={eta}"
        xs = np.linspace(-0.5, 0.5, 200001)
        z = eval_cutoff(prof, xs)
        h = xs[1] - xs[0]
        d1 = np.max(np.abs(np.gradient(z, h)))
        d2 = np.max(np.abs(np.diff(z, 2) / h ** 2))
        worst = max(worst, d1 / (4.0 / eta), d2 / (60.0 / eta ** 2))
        if d1 > 4.0 / eta or d2 > 60.0 / eta ** 2:
            return False, f"derivative bound exceeded at eta={eta}"
    return True, f"worst derivative-bound ratio {worst:.3f}"


def _stationarity_bits() -> tuple[bool, str]:
    spec = EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 3.0),
                   cell_size=1.0, mollify_radius=0.25)
    env = sample_env(spec, seed=20260825)
    z = (3,)
    shifted = shift_env(env, z)
    # dyadic points: x + z is exactly representable, so covariance must be
    # bit-for-bit
    xs = np.arange(0, 4096, 7) / 1024.0
    a = eval_potential_points(shifted, xs[:, None])
    b = eval_potential_points(env, (xs + z[0])[:, None])
    bad = np.flatnonzero(a != b)
    if bad.size:
        k = bad[0]
        return False, f"bit mismatch at x={xs[k]}: {a[k]!r} vs {b[k]!r}"
    return True, f"{xs.size} dyadic points bit-identical under shift"


def _monotonicity_audit(trials: int = 1000) -> tuple[bool, str]:
    espec = EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 3.0),
                    cell_size=1.0, mollify_radius=0.25)
    spec = HamiltonianSpec(env=sample_env(espec, seed=7), c1=1.0, gamma=2.0,
                           constants=StructuralConstants(c_struct=3.0, gamma=2.0,
                                                         c_corr=1.0))
    grid = make_grid(1, 4.0, 64)
    prob = _discretize(spec, grid)
    p = np.array([1.0])
    theta = default_theta(spec, p, grid)
    R = _gradient_cap(prob, theta)
    rng = np.random.default_rng(0)
    n = grid.ns[0]
    x = grid.axes()[0]
    L = grid.periods[0]
    violations = 0
    eps = 1e-3
    for _ in range(trials):
        # random smooth periodic u with slope <= 2, inside the hull theta covers
        u = np.zeros(n)
        for k in (1, 2, 3):
            amp = rng.uniform(-1.0, 1.0) * L / (2.0 * math.pi * k * 3.0) * 2.0
            u += amp * np.sin(2.0 * math.pi * k * x / L + rng.uniform(0, 2 * math.pi))
        j = int(rng.integers(0, n))
        base = _operator(prob, u, p, theta, R)
        u2 = u.copy()
        u2[j] += eps
        bumped = _operator(prob, u2, p, theta, R)
        # raising one node must not raise the operator at any other node
        other = np.arange(n) != j
        if np.any(bumped[other] > base[other] + 1e-10):
            violations += 1
    return violations == 0, f"{violations} violations / {trials} trials"


def _h0_domination() -> tuple[bool, str]:
    fixtures = [
        StructuralConstants(c_struct=1.0, gamma=2.0, c_corr=1.0),
        StructuralConstants(c_struct=2.0, gamma=2.0, c_corr=2.0),
        StructuralConstants(c_struct=3.0, gamma=1.5, c_corr=1.0),
    ]
    for cst in fixtures:
        c_h0 = choose_H0_constant(cst)  # raises on grid-check failure
        t = np.linspace(0.0, 100.0, 2001)
        lhs = (cst.c_corr * (t + 1.0)) ** cst.gamma / c_h0 - c_h0
        rhs = t ** cst.gamma / cst.c_struct - cst.c_struct
        if np.any(lhs > rhs + 1e-12):
            return False, f"domination fails for {cst}"
    return True, f"{len(fixtures)} constant fixtures dominated"


def _coercivity_sandwich() -> tuple[bool, str]:
    # V = 2 + cos(2 pi x) in [1, 3]; C = 3 certifies the sandwich
    C, g, c1 = 3.0, 2.0, 1.0

    def V(xs):
        return 2.0 + np.cos(2.0 * np.pi * xs)

    for p in (0.0, 1.0, 3.0):
        h = hbar_1d_first_order(V, c1, g, p, quad_N=512)
        lo = abs(p) ** g / C - C
        hi = C * abs(p) ** g + C
        if not lo - 1e-9 <= h <= hi + 1e-9:
            return False, f"sandwich fails at p={p}: {h} not in [{lo}, {hi}]"
    return True, "oracle constants inside the declared sandwich"


def _science_rows(result):
    return [(r.seed, r.L, r.eta_used, r.p, r.constant_L, r.constant_ref,
             r.abs_err, r.residual, r.iterations, r.lipschitz_estimate)
            for r in result.rows]


def _tiny_config(out_csv=None) -> harness.StudyConfig:
    env = EnvSpec(kind="checkerboard", dimension=1, value_range=(0.5, 2.5),
                  cell_size=1.0, mollify_radius=0.25)
    cst = StructuralConstants(c_struct=3.0, gamma=2.0, c_corr=1.0)
    return harness.StudyConfig(
        env=env,
        model={"type": "hjb", "c1": 1.0, "gamma": 2.0,
               "constants": cst.to_json()},
        p_list=[1.0], L_list=[4.0, 8.0], seeds=[1, 2],
        eta_mode={"mode": "fixed", "value": 0.25},
        solver={"tol": 1e-7},
        reference={"method": "oracle", "box": 16.0, "quad_N": 1024},
        nodes_per_unit=8, out_csv=out_csv)


def _determinism_resumability() -> tuple[bool, str]:
    cfg = _tiny_config()
    # no sampled or discretized state may carry over to a second run
    r1 = harness.run_convergence_study(cfg)
    r2 = harness.run_convergence_study(cfg)
    if _science_rows(r1) != _science_rows(r2):
        return False, "a repeated run changed the scientific columns"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        harness.emit_csv(r1, path)
        # rerun against the complete file: byte-identical output
        cfg2 = _tiny_config(out_csv=path)
        again = harness.run_convergence_study(cfg2)
        if harness.emit_csv(again) != harness.emit_csv(r1):
            return False, "resumed rerun not byte-identical"
        # drop half the rows and rerun: deleted rows reappear exactly
        partial = harness.StudyResult(config=r1.config, rows=r1.rows[::2])
        harness.emit_csv(partial, path)
        restored = harness.run_convergence_study(cfg2)
        if _science_rows(restored) != _science_rows(r1):
            return False, "resume did not reproduce the deleted rows"
    return True, "repeat-run determinism and resume both exact"


def run_validation() -> list[tuple[str, bool, str]]:
    """Run every fixture check; returns (name, passed, detail) triples."""
    checks = [
        ("cutoff_bounds", _cutoff_bounds),
        ("stationarity_bit_equality", _stationarity_bits),
        ("scheme_monotonicity", _monotonicity_audit),
        ("blend_target_domination", _h0_domination),
        ("coercivity_sandwich", _coercivity_sandwich),
        ("determinism_resumability", _determinism_resumability),
    ]
    out = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        out.append((name, passed, detail))
    return out

"""The three benchmark workloads: their inputs, operations and checks.

Every workload builds its specs from the recorded medium seeds plus a
shift (the workload seed, 0 by default), and runs the program with its
defaults (``threads=1``).  An operation is a call into perhom whose result
the check phase compares with values from ``exact_values``, which is
computed apart from the program.  ``check`` returns, per operation, the
reason it failed (or None) and the constant errors it contributes to
``const_err_p50``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math
from typing import Callable

import numpy as np

import exact_values as ev
from perhom import elliptic_solver, harness, hjb_solver, periodize
from perhom import EllipticSpec, EnvSpec, HamiltonianSpec, StructuralConstants
from perhom import linear_elliptic_spec, sample_env

# --- correctness bounds (the README explains each) --------------------------

# |row - exact H-bar_L| for a 1D study row.  Rows of the recorded seed
# deviate by at most 0.49 today; a spurious Newton basin gives 1e5 and more.
ROW_BOUND = 1.0
# Monotonicity slack of the oracle reference in |p|: its bisection tolerance.
REF_MONOTONE_SLACK = 1e-9
# |extrapolated c - (H-bar_1D(p1) + c1 p2^2)| on the x1-only cosine medium,
# 16 nodes per unit: 0.55 at most today.
COSINE_BOUND = 1.0
# Slack of every bracket and identity that holds exactly for the discrete
# problem: ten times the solver's residual tolerance.
SOLVER_TOL = 1e-8
DISCRETE_SLACK = 10 * SOLVER_TOL
# |c - continuum constant| for the linear elliptic operators on 16 nodes
# per unit: 5-point and blend discretization error, 5.1e-4 at most today.
CONTINUUM_BOUND = 1e-3


@dataclass
class Op:
    name: str
    run: Callable[[], object]


@dataclass
class Outcome:
    failure: str | None
    errors: list


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# --- hjb1d_study ------------------------------------------------------------

HJB1D_SEEDS = (0,)
HJB1D_P = (0.0, 1.0, 2.0)
HJB1D_L = (8.0, 16.0, 32.0, 64.0)
HJB1D_ETA = 0.1
HJB1D_ENV = {"kind": "checkerboard", "dimension": 1, "value_range": [0.0, 3.0],
             "cell_size": 1.0, "mollify_radius": 0.25}
HJB1D_CONSTANTS = {"c_struct": 4.0, "gamma": 2.0, "c_corr": 2.0}
HJB1D_BOX = 256.0
# quadrature points per unit length for the exact values
EXACT_PER_UNIT = 256


class Hjb1dStudy:
    """The criterion-4 study, one (seed, p) study call per operation."""

    def __init__(self, shift: int):
        self.seeds = [s + shift for s in HJB1D_SEEDS]
        self.configs = {(seed, p): harness.StudyConfig.from_json({
            "env": HJB1D_ENV,
            "model": {"type": "hjb", "c1": 1.0, "gamma": 2.0,
                      "constants": HJB1D_CONSTANTS},
            "p_list": [p], "L_list": list(HJB1D_L), "seeds": [seed],
            "eta_mode": {"mode": "fixed", "value": HJB1D_ETA},
            "solver": {"tol": SOLVER_TOL, "dissipation_extrapolation": True},
            "reference": {"method": "oracle", "box": HJB1D_BOX, "quad_N": 2048},
            "nodes_per_unit": 16,
        }) for seed in self.seeds for p in HJB1D_P}

    def ops(self) -> list[Op]:
        return [Op(f"seed{seed}/p{p:g}",
                   lambda cfg=cfg: harness.run_convergence_study(cfg))
                for (seed, p), cfg in self.configs.items()]

    @staticmethod
    @lru_cache(maxsize=None)
    def exact_row(seed: int, L: float, p: float) -> float:
        x = ev.cell_points(L, EXACT_PER_UNIT, 1)
        V = ev.medium(HJB1D_ENV, seed, x)
        zeta = ev.cutoff(HJB1D_ETA, x / L)
        h0 = ev.h0_constant(HJB1D_CONSTANTS["c_struct"], HJB1D_CONSTANTS["c_corr"], 2.0)
        c1_L, V_L = ev.blended_hjb(V, zeta, 1.0, h0)
        return ev.hbar_1d(V_L, c1_L, 2.0, p)

    @staticmethod
    @lru_cache(maxsize=None)
    def box_min(seed: int) -> float:
        n = int(HJB1D_BOX * EXACT_PER_UNIT)
        x = ((np.arange(n) + 0.5) / EXACT_PER_UNIT)[:, None]
        return float(ev.medium(HJB1D_ENV, seed, x).min())

    def check(self, outputs: dict) -> dict:
        out = {}
        refs = {}
        for (seed, p), _ in self.configs.items():
            name = f"seed{seed}/p{p:g}"
            result = outputs[name]
            out[name] = self._check_study(seed, p, result)
            if out[name].failure is None:
                refs[(seed, p)] = result.rows[0].constant_ref
        for seed in self.seeds:
            for lo, hi in zip(HJB1D_P, HJB1D_P[1:]):
                if (seed, lo) in refs and (seed, hi) in refs and \
                        refs[(seed, hi)] < refs[(seed, lo)] - REF_MONOTONE_SLACK:
                    out[f"seed{seed}/p{hi:g}"].failure = (
                        f"reference decreases in |p|: {refs[(seed, lo)]!r} at "
                        f"p={lo:g}, {refs[(seed, hi)]!r} at p={hi:g}")
        return out

    def _check_study(self, seed: int, p: float, result) -> Outcome:
        rows = sorted(result.rows, key=lambda r: r.L)
        if [r.L for r in rows] != list(HJB1D_L):
            return Outcome(f"rows for L={[r.L for r in rows]}", [])
        errors = []
        for r in rows:
            if not _finite(r.constant_L, r.constant_ref):
                return Outcome(f"non-finite row at L={r.L:g}", errors)
            exact = self.exact_row(seed, r.L, p)
            errors.append(abs(r.constant_L - exact))
            if errors[-1] > ROW_BOUND:
                return Outcome(f"L={r.L:g}: {r.constant_L!r} vs exact "
                               f"{exact!r} (bound {ROW_BOUND})", errors)
        if p == 0.0:
            ref = rows[0].constant_ref
            vmin = self.box_min(seed)
            tol = ev.grid_min_tolerance(HJB1D_ENV["value_range"],
                                        HJB1D_ENV["mollify_radius"],
                                        1.0 / EXACT_PER_UNIT)
            if abs(ref + vmin) > tol:
                return Outcome(f"reference {ref!r} at p=0 vs -min V "
                               f"{-vmin!r} (tolerance {tol:.2e})", errors)
        return Outcome(None, errors)


# --- hjb2d_viscous ------------------------------------------------------------

HJB2D_L = 3.0
HJB2D_N = 48
HJB2D_ETA = 0.1
HJB2D_CONSTANTS = dict(c_struct=4.0, gamma=2.0, c_corr=2.0)
SIGMA = {"slope": 0.1, "offset": 0.2, "lipschitz_cap": 1.2}
HJB2D_MEDIA = {
    "checkerboard": ({"kind": "checkerboard", "dimension": 2,
                      "value_range": [0.0, 3.0], "mollify_radius": 0.25,
                      "sigma": SIGMA}, 0),
    "poisson": ({"kind": "poisson_bump", "dimension": 2,
                 "value_range": [0.0, 3.0], "sigma": SIGMA,
                 "bump": {"amplitude": 3.0, "radius": 0.4, "intensity": 1.0,
                          "max_per_cell": 4}}, 1),
}
HJB2D_P = ((0.5, 0.0), (1.0, 0.5))
COSINE_ENV = {"kind": "cosine", "dimension": 2, "value_range": [1.0, 3.0]}
COSINE_P = ((0.0, 0.0), (0.5, 0.5), (2.0, 1.0))
COSINE_N = 16


def _env(env: dict, seed: int):
    return sample_env(EnvSpec.from_json(env), seed)


def theta_pair(spec, p, grid):
    """The study's dissipation extrapolation: cell solves at theta and 2 theta."""
    theta = hjb_solver.default_theta(spec, p, grid)
    return [hjb_solver.ergodic_constant_periodic(
        spec, p, grid, hjb_solver.SolverParams(
            tol=SOLVER_TOL, lf_theta=tuple(m * t for t in theta)))
        for m in (1.0, 2.0)]


class Hjb2dViscous:
    """Viscous 2D periodized cells, plus first-order x1-only cells."""

    def __init__(self, shift: int):
        cst = StructuralConstants(**HJB2D_CONSTANTS)
        self.cases = {}
        for label, (env, seed) in HJB2D_MEDIA.items():
            base = HamiltonianSpec(env=_env(env, seed + shift), c1=1.0,
                                   gamma=2.0, constants=cst)
            per = periodize.periodize_hjb(base, HJB2D_L, HJB2D_ETA)
            grid = hjb_solver.make_grid(2, HJB2D_L, HJB2D_N)
            for p in HJB2D_P:
                self.cases[f"{label}/p{p[0]:g},{p[1]:g}"] = (per, p, grid, env, seed + shift)
        cosine = HamiltonianSpec(env=_env(COSINE_ENV, shift), c1=1.0, gamma=2.0,
                                 constants=cst)
        grid = hjb_solver.make_grid(2, 1.0, COSINE_N)
        for p in COSINE_P:
            self.cases[f"cosine/p{p[0]:g},{p[1]:g}"] = (cosine, p, grid, COSINE_ENV, shift)

    def ops(self) -> list[Op]:
        return [Op(name, lambda case=case: theta_pair(*case[:3]))
                for name, case in self.cases.items()]

    def check(self, outputs: dict) -> dict:
        return {name: self._check(name, outputs[name])
                for name in self.cases}

    def _check(self, name: str, ests) -> Outcome:
        spec, p, grid, env, seed = self.cases[name]
        values = [e.value for e in ests]
        if not _finite(*values):
            return Outcome(f"non-finite constant {values}", [])
        lo, hi = self.bracket(name)
        for v in values:
            if not lo - DISCRETE_SLACK <= v <= hi + DISCRETE_SLACK:
                return Outcome(f"constant {v!r} outside [min, max] of "
                               f"H_L(p, nodes) = [{lo!r}, {hi!r}]", [])
        if env is not COSINE_ENV:
            return Outcome(None, [])
        value = 2.0 * values[0] - values[1]
        exact = self.cosine_exact(p)
        err = abs(value - exact)
        if err > COSINE_BOUND:
            return Outcome(f"{value!r} vs H-bar_1D(p1) + p2^2 = {exact!r} "
                           f"(bound {COSINE_BOUND})", [err])
        return Outcome(None, [err])

    def bracket(self, name: str) -> tuple[float, float]:
        """min and max over the grid nodes of H_L(p, x) = c1_L |p|^2 - V_L."""
        spec, p, grid, env, seed = self.cases[name]
        L, n = grid.periods[0], grid.ns[0]
        pts = ev.torus_nodes(L, n, 2)
        if env is COSINE_ENV:
            H = float(np.dot(p, p)) - ev.medium(env, seed, pts)
        else:
            xr = ev.reduce_to_cell(L, pts)
            zeta = ev.cutoff(HJB2D_ETA, xr / L)
            h0 = ev.h0_constant(HJB2D_CONSTANTS["c_struct"],
                                HJB2D_CONSTANTS["c_corr"], 2.0)
            c1_L, V_L = ev.blended_hjb(ev.medium(env, seed, xr), zeta, 1.0, h0)
            H = c1_L * float(np.dot(p, p)) - V_L
        return float(H.min()), float(H.max())

    @staticmethod
    def cosine_exact(p) -> float:
        """H-bar of |q|^2 - V(x1) is H-bar_1D(p1) + p2^2 (separable)."""
        x = ev.cell_points(1.0, 1 << 14, 1)
        V = ev.medium(COSINE_ENV, 0, x)
        return ev.hbar_1d(V, 1.0, 2.0, p[0]) + p[1] ** 2


# --- elliptic2d ---------------------------------------------------------------

ELL_L = 3.0
ELL_N = 48
ELL_ETA = 0.1
ELL_ENV = {"kind": "checkerboard", "dimension": 2, "value_range": [0.0, 3.0],
           "mollify_radius": 0.25}
ELL_SEED = 2
ELL_CONSTANTS = dict(c_struct=3.0, gamma=2.0, c_corr=1.0, lambda_bar=0.5,
                     Lambda_bar=2.5)
ELL_P = ((0.4, 0.1), (0.1, 0.1))
ELL_T = 1e-2
# F = max over controls of -a tr X - f_ctl; the first control is the linear
# operator -a tr X + f with a = 0.2 V + 1 and f = 0.5 V - 0.2.
LIN_A = {"affine_of_V": [0.2, 1.0]}
LIN_F = {"affine_of_V": [0.5, -0.2]}
BELLMAN_CONTROLS = (
    {"matrix": [[1.0, 0.0], [0.0, 1.0]], "a": LIN_A, "f": {"affine_of_V": [-0.5, 0.2]}},
    {"matrix": [[1.0, 0.0], [0.0, 1.0]], "a": {"affine_of_V": [-0.15, 1.8]},
     "f": {"affine_of_V": [0.3, -0.6]}},
)
ANALYTIC_A = {"inv_cos": [0.5]}
ANALYTIC_F = {"cos": [0.5, 0.2]}
ANALYTIC_P = (ELL_P, ((-1.0, 0.3), (0.3, 0.5)))
CONTINUUM_PER_UNIT = 64


class Elliptic2d:
    """Periodized 2D elliptic cells: linear, Bellman, analytic linear."""

    def __init__(self, shift: int):
        cst = StructuralConstants(**ELL_CONSTANTS)
        self.seed = ELL_SEED + shift
        env = _env(ELL_ENV, self.seed)
        grid = hjb_solver.make_grid(2, ELL_L, ELL_N)
        lin = linear_elliptic_spec(env, LIN_A, LIN_F, cst, dimension=2)
        bellman = EllipticSpec(env=env, family="bellman", dimension=2,
                               controls=BELLMAN_CONTROLS, constants=cst)
        analytic = linear_elliptic_spec(None, ANALYTIC_A, ANALYTIC_F, cst,
                                        dimension=2)
        P = np.array(ELL_P)
        specs = {"linear_V": (lin, P), "bellman/P": (bellman, P),
                 "bellman/P+tI": (bellman, P + ELL_T * np.eye(2))}
        for k, Pa in enumerate(ANALYTIC_P):
            specs[f"analytic/P{k}"] = (analytic, np.array(Pa))
        self.cases = {name: (periodize.periodize_elliptic(spec, ELL_L, ELL_ETA), P_, grid)
                      for name, (spec, P_) in specs.items()}

    def ops(self) -> list[Op]:
        return [Op(name, lambda case=case: elliptic_solver.ergodic_constant_periodic_elliptic(
            *case, hjb_solver.SolverParams(tol=SOLVER_TOL)))
            for name, case in self.cases.items()]

    def blended(self, a_desc, f_desc, points):
        """(a_L, f_L) of -a tr X + f blended with F0 = -f0 tr X."""
        L = ELL_L
        xr = ev.reduce_to_cell(L, points)
        zeta = ev.cutoff(ELL_ETA, xr / L)
        V = ev.medium(ELL_ENV, self.seed, xr)
        f0 = 0.5 * (ELL_CONSTANTS["lambda_bar"] + ELL_CONSTANTS["Lambda_bar"])
        a = ev.coefficient(a_desc, V, xr[:, 0])
        f = ev.coefficient(f_desc, V, xr[:, 0])
        return (1.0 - zeta) * a + zeta * f0, (1.0 - zeta) * f

    def node_constant(self, a_desc, f_desc, trP: float) -> float:
        """The constant of the 5-point scheme, by the node identity."""
        a, f = self.blended(a_desc, f_desc, ev.torus_nodes(ELL_L, ELL_N, 2))
        return ev.linear_constant(a, f, trP)

    def continuum_constant(self, a_desc, f_desc, trP: float) -> float:
        a, f = self.blended(a_desc, f_desc,
                            ev.cell_points(ELL_L, CONTINUUM_PER_UNIT, 2))
        return ev.linear_constant(a, f, trP)

    def control_constants(self, trP: float) -> list[float]:
        """Single-control constants of the Bellman operator's controls."""
        return [self.node_constant(ctl["a"], _negate(ctl["f"]), trP)
                for ctl in BELLMAN_CONTROLS]

    def check(self, outputs: dict) -> dict:
        out = {}
        for name, (_, P, _) in self.cases.items():
            est = outputs[name]
            trP = float(np.trace(P))
            if not _finite(est.value):
                out[name] = Outcome(f"non-finite constant {est.value}", [])
            elif name == "linear_V":
                out[name] = self._check_linear(est.value, LIN_A, LIN_F, trP, True)
            elif name.startswith("analytic"):
                out[name] = self._check_linear(est.value, ANALYTIC_A, ANALYTIC_F,
                                               trP, False)
            else:
                singles = self.control_constants(trP)
                bad = est.value < max(singles) - DISCRETE_SLACK
                out[name] = Outcome(
                    f"Bellman {est.value!r} below a single control {singles}"
                    if bad else None, [])
        c0, c1 = outputs["bellman/P"].value, outputs["bellman/P+tI"].value
        if out["bellman/P+tI"].failure is None and _finite(c0, c1):
            lo = -ELL_CONSTANTS["Lambda_bar"] * ELL_T * 2 - 4 * SOLVER_TOL
            hi = -ELL_CONSTANTS["lambda_bar"] * ELL_T * 0.95 + 4 * SOLVER_TOL
            if not lo <= c1 - c0 <= hi:
                out["bellman/P+tI"].failure = (
                    f"F_L(P+tI) - F_L(P) = {c1 - c0!r} outside [{lo}, {hi}]")
        return out

    def _check_linear(self, value, a_desc, f_desc, trP, node_identity) -> Outcome:
        cont = self.continuum_constant(a_desc, f_desc, trP)
        err = abs(value - cont)
        if node_identity:
            ident = self.node_constant(a_desc, f_desc, trP)
            if abs(value - ident) > DISCRETE_SLACK:
                return Outcome(f"{value!r} vs node identity {ident!r}", [err])
        if err > CONTINUUM_BOUND:
            return Outcome(f"{value!r} vs continuum constant {cont!r} "
                           f"(bound {CONTINUUM_BOUND})", [err])
        return Outcome(None, [err])


def _negate(desc: dict) -> dict:
    k, b = desc["affine_of_V"]
    return {"affine_of_V": [-k, -b]}


WORKLOADS = {"hjb1d_study": Hjb1dStudy, "hjb2d_viscous": Hjb2dViscous,
             "elliptic2d": Elliptic2d}

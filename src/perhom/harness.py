"""Study orchestration: periodization sweeps, rate regression, sandwich
checks and CSV/JSON persistence.

A study config describes a medium, an operator family, lists of momenta /
Hessian offsets, periods L and seeds, an eta mode and a reference method.
Each (seed, L, p) triple yields one result row; the reference constant is
computed once per (seed, p) and shared across the L rows, which exposes
the finite-box seed dependence of the reference honestly.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import csv
import io
import json
import os
import time

import numpy as np

from .environment import EnvSpec, eval_potential, sample_env
from .model import (
    EllipticSpec,
    HamiltonianSpec,
    StructuralConstants,
    linear_elliptic_spec,
)
from .periodize import (
    eta_schedule_elliptic,
    eta_schedule_hjb,
    periodize_elliptic,
    periodize_hjb,
)
from .hjb_solver import (
    NonConvergenceError,
    SolverParams,
    default_theta,
    ergodic_constant_periodic,
    estimate_Hbar_reference,
    make_grid,
    _theta_extrapolated,
)
from .elliptic_solver import (
    ergodic_constant_1d_exact,
    ergodic_constant_periodic_elliptic,
)
from .oracle import hbar_1d_first_order

__all__ = [
    "StudyConfig",
    "StudyResult",
    "ResultRow",
    "run_convergence_study",
    "fit_rate",
    "check_sandwich",
    "emit_csv",
    "emit_json",
    "load_csv",
]

ROW_FIELDS = ("seed", "L", "eta_used", "p", "constant_L", "constant_ref",
              "abs_err", "residual", "iterations", "lipschitz_estimate",
              "wall_time")


@dataclass
class ResultRow:
    seed: int
    L: float
    eta_used: float
    p: str
    constant_L: float
    constant_ref: float
    abs_err: float
    residual: float
    iterations: int
    lipschitz_estimate: float
    wall_time: float

    def key(self):
        return (self.seed, self.L, self.p)

    def as_list(self):
        return [getattr(self, f) for f in ROW_FIELDS]


@dataclass
class StudyResult:
    config: dict
    rows: list[ResultRow] = field(default_factory=list)


@dataclass
class StudyConfig:
    """Validated study description; see ``from_json`` for the schema."""

    env: EnvSpec
    model: dict
    p_list: list
    L_list: list[float]
    seeds: list[int]
    eta_mode: dict
    solver: dict
    reference: dict
    nodes_per_unit: int = 16
    out_csv: str | None = None
    out_json: str | None = None

    def __post_init__(self):
        if not self.p_list or not self.L_list or not self.seeds:
            raise ValueError("p_list, L_list and seeds must be nonempty")
        if any(b <= a for a, b in zip(self.L_list, self.L_list[1:])):
            raise ValueError("L_list must be strictly increasing")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")

    @classmethod
    def from_json(cls, obj: dict) -> "StudyConfig":
        return cls(
            env=EnvSpec.from_json(obj["env"]),
            model=dict(obj["model"]),
            p_list=list(obj["p_list"]),
            L_list=[float(v) for v in obj["L_list"]],
            seeds=[int(s) for s in obj["seeds"]],
            eta_mode=dict(obj.get("eta_mode", {"mode": "fixed", "value": 0.1})),
            solver=dict(obj.get("solver", {})),
            reference=dict(obj.get("reference", {"method": "oracle"})),
            nodes_per_unit=int(obj.get("nodes_per_unit", 16)),
            out_csv=obj.get("out_csv"),
            out_json=obj.get("out_json"),
        )

    def to_json(self) -> dict:
        return {
            "env": self.env.to_json(),
            "model": self.model,
            "p_list": self.p_list,
            "L_list": self.L_list,
            "seeds": self.seeds,
            "eta_mode": self.eta_mode,
            "solver": self.solver,
            "reference": self.reference,
            "nodes_per_unit": self.nodes_per_unit,
            "out_csv": self.out_csv,
            "out_json": self.out_json,
        }


def _solver_params(cfg: StudyConfig) -> SolverParams:
    s = cfg.solver
    return SolverParams(**{key: kind(s[key]) for key, kind in
                           (("tol", float), ("max_iter", int)) if key in s})


def _constants(cfg: StudyConfig) -> StructuralConstants:
    return StructuralConstants.from_json(cfg.model["constants"])


def _hjb_spec(cfg: StudyConfig, seed: int) -> HamiltonianSpec:
    env = sample_env(cfg.env, seed)
    return HamiltonianSpec(env=env, c1=float(cfg.model["c1"]),
                           gamma=float(cfg.model["gamma"]),
                           constants=_constants(cfg))


def _elliptic_spec(cfg: StudyConfig, seed: int) -> EllipticSpec:
    env = sample_env(cfg.env, seed)
    m = cfg.model
    if m.get("family", "linear") == "linear":
        return linear_elliptic_spec(env, m["a"], m.get("f", {"const": 0.0}),
                                    _constants(cfg), dimension=m.get("dimension", 1))
    return EllipticSpec(env=env, family="bellman",
                        controls=tuple(m["controls"]),
                        constants=_constants(cfg),
                        dimension=m.get("dimension", 2))


def _eta_for(cfg: StudyConfig, L: float) -> float:
    m = cfg.eta_mode
    mode = m.get("mode", "fixed")
    if mode == "fixed":
        return float(m["value"])
    if mode == "hjb_schedule":
        eta, _ = eta_schedule_hjb(L, float(m["a_bar"]))
        return eta
    if mode == "elliptic_schedule":
        lam = L ** (-float(m["a_bar"]))
        d = cfg.env.dimension
        eta, _ = eta_schedule_elliptic(lam, d)
        return eta
    raise ValueError(f"unknown eta mode {mode!r}")


def _reference_hjb(cfg: StudyConfig, seed: int, p) -> float:
    ref = cfg.reference
    spec = _hjb_spec(cfg, seed)
    method = ref.get("method", "oracle")
    if method == "oracle":
        if cfg.env.dimension != 1:
            raise ValueError("oracle reference needs d = 1")
        box = float(ref.get("box", 256.0))

        def V(x):
            return eval_potential(spec.env, (x % box,))
        return hbar_1d_first_order(V, spec.c1, spec.gamma,
                                   float(np.atleast_1d(p)[0]),
                                   quad_N=int(ref.get("quad_N", 4096)),
                                   period=box)
    if method == "delta_extrapolation":
        est = estimate_Hbar_reference(
            spec, p, ref.get("deltas", [4e-3, 2e-3, 1e-3]),
            float(ref.get("box", 16.0)), _solver_params(cfg),
            grid_n=ref.get("grid_n"),
            box_multiplier=float(ref.get("box_multiplier", 1.0)),
            dissipation_extrapolation=bool(
                ref.get("dissipation_extrapolation", False)))
        return est.value
    raise ValueError(f"unknown reference method {method!r}")


def _reference_elliptic(cfg: StudyConfig, seed: int, P) -> float:
    ref = cfg.reference
    spec = _elliptic_spec(cfg, seed)
    if cfg.env.dimension != 1 and spec.dimension != 1:
        raise ValueError("elliptic reference implemented for d = 1 only")
    box = float(ref.get("box", 64.0))
    return ergodic_constant_1d_exact(spec, float(np.atleast_1d(P)[0]),
                                     quadrature_N=int(ref.get("quad_N", 512)),
                                     period=box)


def _p_label(p) -> str:
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    if arr.size == 1:
        return repr(float(arr[0]))
    return json.dumps([float(v) for v in arr])


def _compute_row(cfg: StudyConfig, seed: int, L: float, p, ref_value: float) -> ResultRow:
    t0 = time.perf_counter()
    eta = _eta_for(cfg, L)
    kind = cfg.model.get("type", "hjb")
    n = max(8, int(round(cfg.nodes_per_unit * L)))
    params = _solver_params(cfg)
    try:
        if kind == "hjb":
            spec = _hjb_spec(cfg, seed)
            per = periodize_hjb(spec, L, eta,
                                H0_constant=cfg.model.get("H0_constant"),
                                H0_c1=cfg.model.get("H0_c1"))
            grid = make_grid(spec.dimension, L, n)
            if cfg.solver.get("dissipation_extrapolation"):
                value, ests = _theta_extrapolated(
                    lambda pp: ergodic_constant_periodic(per, p, grid, pp),
                    params, default_theta(per, p, grid), lambda e: e.value)
            else:
                ests = [ergodic_constant_periodic(per, p, grid, params)]
                value = ests[0].value
        else:
            spec = _elliptic_spec(cfg, seed)
            per = periodize_elliptic(spec, L, eta,
                                     f0_coeff=cfg.model.get("f0_coeff"))
            grid = make_grid(spec.dimension, L, n)
            P = np.atleast_2d(np.asarray(p, dtype=float))
            ests = [ergodic_constant_periodic_elliptic(per, P, grid, params)]
            value = ests[0].value
        residual = max(e.residual for e in ests)
        iters = sum(e.iterations for e in ests)
        lip = ests[0].lipschitz_estimate
    except NonConvergenceError as exc:
        value = float("nan")
        residual = exc.history[-1] if exc.history else float("inf")
        iters, lip = -1, float("nan")
    wall = time.perf_counter() - t0
    return ResultRow(
        seed=seed, L=float(L), eta_used=float(eta), p=_p_label(p),
        constant_L=float(value), constant_ref=float(ref_value),
        abs_err=float(abs(value - ref_value)), residual=float(residual),
        iterations=int(iters), lipschitz_estimate=float(lip),
        wall_time=float(wall))


def run_convergence_study(cfg: StudyConfig, threads: int = 1) -> StudyResult:
    """Run the sweep; resumable against an existing out_csv (present keys
    are skipped and their rows reused)."""
    existing: dict = {}
    if cfg.out_csv and os.path.exists(cfg.out_csv):
        for row in load_csv(cfg.out_csv):
            existing[row.key()] = row

    kind = cfg.model.get("type", "hjb")
    refs: dict = {}
    for seed in cfg.seeds:
        for p in cfg.p_list:
            label = _p_label(p)
            if all((seed, L, label) in existing for L in cfg.L_list):
                continue
            if kind == "hjb":
                refs[(seed, label)] = _reference_hjb(cfg, seed, p)
            else:
                refs[(seed, label)] = _reference_elliptic(cfg, seed, p)

    tasks = []
    for seed in cfg.seeds:
        for L in cfg.L_list:
            for p in cfg.p_list:
                label = _p_label(p)
                if (seed, L, label) in existing:
                    continue
                tasks.append((seed, L, p, label))

    def work(task):
        seed, L, p, label = task
        return _compute_row(cfg, seed, L, p, refs[(seed, label)])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            fresh = list(pool.map(work, tasks))
    else:
        fresh = [work(t) for t in tasks]

    rows = list(existing.values()) + fresh
    rows.sort(key=lambda r: (r.seed, r.L, r.p))
    return StudyResult(config=cfg.to_json(), rows=rows)


def fit_rate(pairs) -> tuple[float, float, float]:
    """Least squares of log err against log L: (slope, intercept, r^2).

    Pairs with err <= 0 are dropped with a warning; fewer than 3 survivors
    is an error.
    """
    clean = [(L, e) for L, e in pairs if e > 0 and np.isfinite(e)]
    if len(clean) < len(list(pairs)):
        import warnings
        warnings.warn("fit_rate: dropped nonpositive error entries")
    if len(clean) < 3:
        raise ValueError("need at least 3 positive (L, err) pairs")
    x = np.log([L for L, _ in clean])
    y = np.log([e for _, e in clean])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def check_sandwich(result: StudyResult, constants: StructuralConstants,
                   tol_margin: float = 1e-6) -> dict:
    """Both branches of the approximation theorem in testable form.

    Upper branch (large-L proxy of the limsup): constant_L <= constant_ref
    + tol_margin.  Lower branch: constant_ref <= constant_L +
    C_report (|p|^gamma + 1) eta + tol_margin, with C_report the smallest
    constant making every finite row pass.
    """
    g = constants.gamma
    rows = [r for r in result.rows if np.isfinite(r.constant_L)]
    c_report = 0.0
    for r in rows:
        pn = np.linalg.norm(json.loads(r.p) if r.p.startswith("[") else [float(r.p)])
        denom = (pn ** g + 1.0) * r.eta_used
        need = (r.constant_ref - r.constant_L - tol_margin) / denom
        c_report = max(c_report, need)
    per_L: dict = {}
    for r in rows:
        pn = np.linalg.norm(json.loads(r.p) if r.p.startswith("[") else [float(r.p)])
        upper_ok = r.constant_L <= r.constant_ref + tol_margin
        lower_ok = r.constant_ref <= (r.constant_L
                                      + c_report * (pn ** g + 1.0) * r.eta_used
                                      + tol_margin)
        d = per_L.setdefault(r.L, {"upper_pass": 0, "lower_pass": 0, "total": 0})
        d["total"] += 1
        d["upper_pass"] += int(upper_ok)
        d["lower_pass"] += int(lower_ok)
    return {"C_report": c_report, "per_L": per_L,
            "dropped": len(result.rows) - len(rows)}


# --- persistence ----------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def emit_csv(result: StudyResult, path=None) -> str:
    """CSV with the row field order as columns; floats as shortest
    round-trip decimals, RFC 4180 quoting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROW_FIELDS)
    for row in result.rows:
        writer.writerow([_fmt(v) for v in row.as_list()])
    text = buf.getvalue()
    if path:
        with open(path, "w", newline="") as f:
            f.write(text)
    return text


def emit_json(result: StudyResult, path=None) -> str:
    obj = {"config": result.config,
           "rows": [dict(zip(ROW_FIELDS, r.as_list())) for r in result.rows]}
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w") as f:
            f.write(text)
    return text


def load_csv(path) -> list[ResultRow]:
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for rec in reader:
            rows.append(ResultRow(
                seed=int(rec["seed"]), L=float(rec["L"]),
                eta_used=float(rec["eta_used"]), p=rec["p"],
                constant_L=float(rec["constant_L"]),
                constant_ref=float(rec["constant_ref"]),
                abs_err=float(rec["abs_err"]),
                residual=float(rec["residual"]),
                iterations=int(rec["iterations"]),
                lipschitz_estimate=float(rec["lipschitz_estimate"]),
                wall_time=float(rec["wall_time"])))
    return rows

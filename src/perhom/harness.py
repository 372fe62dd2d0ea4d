"""Study orchestration: periodization sweeps, rate regression, sandwich
checks and CSV/JSON persistence.

A study config describes a medium, an operator family of the medium's
dimension, lists of momenta / Hessian offsets (flat or nested), periods L
and seeds, an eta mode and a reference method; the fields of
``StudyConfig`` are its JSON schema.  Each (seed, L, p) triple yields one
result row, and each study quantity is computed one way.  An HJB row
constant is extrapolated from cell solves at dissipation theta and
2 theta, which read one discretized cell, and so is each discounted solve
of the ``delta_extrapolation`` reference.  The reference constants of a
seed are computed in one call for all its momenta (the 1D oracle samples
the seed's box once), and each is shared across the L rows, which exposes
the finite-box seed dependence of the reference honestly.
``rate_report`` fits each momentum's rate to its median error at each L.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
import csv
import io
import json
import os
import time
import typing

import numpy as np

from .environment import EnvSpec, JsonFields, eval_potential_points, sample_env
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
    _discretize,
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
    "compute_row",
    "reference_constants",
    "fit_rate",
    "rate_report",
    "check_sandwich",
    "emit_csv",
    "emit_json",
    "load_csv",
]


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


ROW_FIELDS = tuple(f.name for f in fields(ResultRow))


@dataclass
class StudyResult:
    config: dict
    rows: list[ResultRow] = field(default_factory=list)


@dataclass
class StudyConfig(JsonFields):
    """Validated study description; its fields are the JSON schema.
    ``dissipation_extrapolation`` in ``solver`` or ``reference`` may only
    be true, ``model.dimension`` only the medium's d, and each entry of
    ``p_list`` has d values (HJB momentum) or d^2 (elliptic offset), and
    a CSV label (``_p_label``) of its own."""

    env: EnvSpec
    model: dict
    p_list: list
    L_list: list[float]
    seeds: list[int]
    eta_mode: dict = field(default_factory=lambda: {"mode": "fixed", "value": 0.1})
    solver: dict = field(default_factory=dict)
    reference: dict = field(default_factory=lambda: {"method": "oracle"})
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
        if not all(part.get("dissipation_extrapolation", True)
                   for part in (self.solver, self.reference)):
            raise ValueError("dissipation extrapolation is always on; "
                             "dissipation_extrapolation may only be true")
        if self.model.get("dimension", self.env.dimension) != self.env.dimension:
            raise ValueError(f"model.dimension {self.model['dimension']} differs "
                             f"from the medium's {self.env.dimension}")
        size = self.env.dimension ** (1 if self.model.get("type", "hjb") == "hjb" else 2)
        if any(np.size(p) != size for p in self.p_list):
            raise ValueError(f"each p_list entry must have {size} values")
        if len({_p_label(p) for p in self.p_list}) != len(self.p_list):
            raise ValueError("p_list entries must be distinct")

    @classmethod
    def from_json(cls, obj: dict) -> "StudyConfig":
        """As ``JsonFields.from_json``, but top-level keys that name no
        field are ignored: a command's own keys (the ``L`` of hbar-l)
        share the config file."""
        names = {f.name for f in fields(cls)}
        return super().from_json({k: v for k, v in obj.items() if k in names})


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
                                    _constants(cfg), dimension=env.dimension)
    return EllipticSpec(env=env, family="bellman",
                        controls=tuple(m["controls"]),
                        constants=_constants(cfg), dimension=env.dimension)


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


def _reference_hjb(cfg: StudyConfig, seed: int, ps) -> list[float]:
    """Reference constants of one seed's medium at each momentum of ``ps``."""
    ref = cfg.reference
    spec = _hjb_spec(cfg, seed)
    method = ref.get("method", "oracle")
    if method == "oracle":
        if cfg.env.dimension != 1:
            raise ValueError("oracle reference needs d = 1")
        if any(cfg.env.sigma.get(k, 0.0) for k in ("slope", "offset")):
            raise ValueError("oracle reference is first order; the medium "
                             "has diffusion (sigma slope or offset != 0)")
        box = float(ref.get("box", 256.0))

        def V(xs):
            return eval_potential_points(spec.env, (xs % box)[:, None])
        return hbar_1d_first_order(V, spec.c1, spec.gamma,
                                   [float(np.ravel(p)[0]) for p in ps],
                                   quad_N=int(ref.get("quad_N", 4096)),
                                   period=box)
    if method == "delta_extrapolation":
        return [estimate_Hbar_reference(
            spec, p, ref.get("deltas", [4e-3, 2e-3, 1e-3]),
            float(ref.get("box", 16.0)), _solver_params(cfg),
            grid_n=ref.get("grid_n")).value
            for p in ps]
    raise ValueError(f"unknown reference method {method!r}")


def _reference_elliptic(cfg: StudyConfig, seed: int, Ps) -> list[float]:
    """Reference constants of one seed's medium at each Hessian offset."""
    ref = cfg.reference
    if cfg.env.dimension != 1:
        raise ValueError("elliptic reference implemented for d = 1 only")
    spec = _elliptic_spec(cfg, seed)
    box = float(ref.get("box", 64.0))
    return [ergodic_constant_1d_exact(spec, float(np.ravel(P)[0]),
                                      quadrature_N=int(ref.get("quad_N", 512)),
                                      period=box)
            for P in Ps]


def reference_constants(cfg: StudyConfig, seed: int, ps) -> list[float]:
    """Reference constants of one seed's medium at each momentum (HJB) or
    Hessian offset (elliptic) of ``ps``."""
    if cfg.model.get("type", "hjb") == "hjb":
        return _reference_hjb(cfg, seed, ps)
    return _reference_elliptic(cfg, seed, ps)


def _p_label(p) -> str:
    """The CSV label of a momentum or (flattened) Hessian offset."""
    arr = np.ravel(np.asarray(p, dtype=float))
    if arr.size == 1:
        return repr(float(arr[0]))
    return json.dumps([float(v) for v in arr])


def _p_norm(label: str) -> float:
    """The Euclidean norm of the values a ``_p_label`` label names."""
    return np.linalg.norm(np.atleast_1d(json.loads(label)))


def compute_row(cfg: StudyConfig, seed: int, L: float, p, ref_value: float) -> ResultRow:
    """One study row: the periodized constant of (seed, L, p) against
    ``ref_value``; a cell solve that does not converge gives a NaN row."""
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
            cell = _discretize(per, grid)  # shared by both solves
            value, ests = _theta_extrapolated(
                lambda pp, start: ergodic_constant_periodic(  # continuation
                    cell, p, grid, pp, init=start and start.corrector.values),
                params, default_theta(per, p, grid), lambda e: e.value)
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


def run_convergence_study(cfg: StudyConfig) -> StudyResult:
    """Run the sweep; resumable against an existing out_csv (present keys
    are skipped and their rows reused)."""
    existing: dict = {}
    if cfg.out_csv and os.path.exists(cfg.out_csv):
        for row in load_csv(cfg.out_csv):
            existing[row.key()] = row

    refs: dict = {}
    for seed in cfg.seeds:
        todo = [p for p in cfg.p_list if any(
            (seed, L, _p_label(p)) not in existing for L in cfg.L_list)]
        if todo:
            refs.update(zip(((seed, _p_label(p)) for p in todo),
                            reference_constants(cfg, seed, todo)))

    fresh = [compute_row(cfg, seed, L, p, refs[(seed, _p_label(p))])
             for seed in cfg.seeds for L in cfg.L_list for p in cfg.p_list
             if (seed, L, _p_label(p)) not in existing]
    rows = list(existing.values()) + fresh
    rows.sort(key=lambda r: (r.seed, r.L, r.p))
    return StudyResult(config=cfg.to_json(), rows=rows)


def fit_rate(pairs) -> tuple[float, float, float]:
    """Least squares of log err against log L: (slope, intercept, r^2).

    Pairs with err <= 0 are dropped with a warning; fewer than 3 survivors
    is an error.
    """
    pairs = list(pairs)
    clean = [(L, e) for L, e in pairs if e > 0 and np.isfinite(e)]
    if len(clean) < len(pairs):
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


def rate_report(rows) -> dict:
    """The rate fit of each momentum label, in sorted order: ``fit_rate``
    of the median finite ``abs_err`` at each L, as {label: {"slope",
    "intercept", "r_squared"}}, or {label: {"error": why fit_rate failed}}."""
    report = {}
    for label in sorted({r.p for r in rows}):
        per_L: dict = {}
        for r in rows:
            if r.p == label and np.isfinite(r.abs_err):
                per_L.setdefault(r.L, []).append(r.abs_err)
        try:
            report[label] = dict(zip(("slope", "intercept", "r_squared"), fit_rate(
                [(L, float(np.median(v))) for L, v in sorted(per_L.items())])))
        except ValueError as exc:
            report[label] = {"error": str(exc)}
    return report


def check_sandwich(result: StudyResult, constants: StructuralConstants,
                   tol_margin: float = 1e-6) -> dict:
    """Both branches of the approximation theorem in testable form.

    Upper branch (large-L proxy of the limsup): constant_L <= constant_ref
    + tol_margin.  Lower branch: constant_ref <= constant_L +
    C_report (|p|^gamma + 1) eta + tol_margin, with C_report the smallest
    constant making every finite row pass.
    """
    rows = [r for r in result.rows if np.isfinite(r.constant_L)]
    scale = [_p_norm(r.p) ** constants.gamma + 1.0 for r in rows]
    c_report = max([0.0] + [(r.constant_ref - r.constant_L - tol_margin)
                            / (s * r.eta_used) for r, s in zip(rows, scale)])
    per_L: dict = {}
    for r, s in zip(rows, scale):
        upper_ok = r.constant_L <= r.constant_ref + tol_margin
        lower_ok = r.constant_ref <= (r.constant_L + c_report * s * r.eta_used
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
    """The rows of an ``emit_csv`` file, each field read by its type."""
    types = typing.get_type_hints(ResultRow)
    with open(path, newline="") as f:
        return [ResultRow(**{name: types[name](rec[name]) for name in ROW_FIELDS})
                for rec in csv.DictReader(f)]

"""Monotone finite-difference solvers for (possibly degenerate) viscous HJB
operators on tori, d in {1, 2}.

The discretization is Lax-Friedrichs in the gradient and centered second
differences in the diffusion.  Beyond the gradient R(x) at which its
slope reaches theta / 1.5 the Hamiltonian is continued linearly, so the
dissipation theta dominates the slope and the scheme is monotone at every
iterate.  Discounted and ergodic cell problems are both solved by one
Newton (Howard) loop: a delta diagonal closes the discounted system, and a
border carrying the unknown constant closes the ergodic one.  The returned
residual is the sup-norm defect of the discrete equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
import struct

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .environment import eval_potential, sigma_scalar
from .model import HamiltonianSpec
from .periodize import PeriodizedHJB

__all__ = [
    "TorusGrid",
    "GridField",
    "SolverParams",
    "ErgodicEstimate",
    "NonConvergenceError",
    "lf_numerical_hamiltonian",
    "solve_delta_problem",
    "ergodic_constant_periodic",
    "estimate_Hbar_reference",
    "corrector_lipschitz",
    "save_field",
    "load_field",
]


class NonConvergenceError(RuntimeError):
    """Solver failed to reach the residual tolerance."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic lattice; node i sits at x = i * h in [0, period)."""

    dimension: int
    periods: tuple[float, ...]
    ns: tuple[int, ...]

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if len(self.periods) != self.dimension or len(self.ns) != self.dimension:
            raise ValueError("periods/ns must match the dimension")
        if any(n < 8 for n in self.ns):
            raise ValueError("need at least 8 nodes per axis")

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(p / n for p, n in zip(self.periods, self.ns))

    def axes(self) -> list[np.ndarray]:
        return [h * np.arange(n) for h, n in zip(self.spacings, self.ns)]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.ns


def make_grid(dimension: int, period, n) -> TorusGrid:
    periods = tuple(float(p) for p in np.broadcast_to(period, (dimension,)))
    ns = tuple(int(v) for v in np.broadcast_to(n, (dimension,)))
    return TorusGrid(dimension=dimension, periods=periods, ns=ns)


@dataclass
class GridField:
    """Real values on a torus grid (row-major array of shape grid.ns)."""

    grid: TorusGrid
    values: np.ndarray
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")


@dataclass
class SolverParams:
    """delta is the discount (0 for ergodic problems); lf_theta overrides
    the automatic per-axis dissipation bound; max_iter bounds the Newton
    steps of each phase of a solve, one sparse linear solve each.  Nothing
    marches in pseudo-time, so there is no CFL safety factor."""

    delta: float = 0.0
    lf_theta: tuple[float, ...] | None = None
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be >= 0")


@dataclass
class ErgodicEstimate:
    """A computed ergodic constant (H-bar side sign convention)."""

    value: float
    residual: float
    iterations: int
    corrector: GridField
    lipschitz_estimate: float
    converged: bool
    info: dict = field(default_factory=dict)


def lf_numerical_hamiltonian(H, p_minus, p_plus, x, theta) -> float:
    """Lax-Friedrichs flux: H((p- + p+)/2, x) - sum theta_i (p+_i - p-_i)/2.

    Consistent (equals H(p, x) when p- = p+ = p) and monotone when theta
    dominates |dH/dp| componentwise on the hull of (p-, p+).
    """
    pm = np.atleast_1d(np.asarray(p_minus, dtype=float))
    pp = np.atleast_1d(np.asarray(p_plus, dtype=float))
    th = np.broadcast_to(np.asarray(theta, dtype=float), pm.shape)
    return float(H(0.5 * (pm + pp), x) - 0.5 * np.dot(th, pp - pm))


# --- grid-coefficient form of the (blended) power-family operator ---------

@dataclass
class _GridProblem:
    """H(q, x) = c1(x)|q|^gamma - V(x), diffusion coefficient a(x) per axis.

    Both the base family and its periodization stay inside this
    coefficient form, so the interior identity H_L = H is the same code
    path evaluated with identical coefficients.
    """

    grid: TorusGrid
    gamma: float
    c1: np.ndarray
    V: np.ndarray
    a: np.ndarray  # shape (d,) + grid.shape


def _discretize(spec, grid: TorusGrid) -> _GridProblem:
    axes = grid.axes()
    d = grid.dimension
    if isinstance(spec, PeriodizedHJB):
        base = spec.base
        if d == 1:
            pts = axes[0][:, None]
        else:
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        Vr = np.array([eval_potential(base.env, x) for x in pts]).reshape(grid.shape)
        sg = np.array([sigma_scalar(base.env, x) for x in pts]).reshape(grid.shape)
        zet = np.array([spec.zeta(spec._reduce(x)) for x in pts]).reshape(grid.shape)
        c1 = (1.0 - zet) * base.c1 + zet * spec.h0_c1
        V = (1.0 - zet) * Vr + zet * spec.H0_constant
        a = np.broadcast_to((1.0 - zet) * sg ** 2, (d,) + grid.shape).copy()
        return _GridProblem(grid=grid, gamma=base.gamma, c1=c1, V=V, a=a)
    if isinstance(spec, HamiltonianSpec):
        if d == 1:
            pts = axes[0][:, None]
        else:
            pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        V = np.array([eval_potential(spec.env, x) for x in pts]).reshape(grid.shape)
        sg = np.array([sigma_scalar(spec.env, x) for x in pts]).reshape(grid.shape)
        c1 = np.full(grid.shape, float(spec.c1))
        a = np.broadcast_to(sg ** 2, (d,) + grid.shape).copy()
        return _GridProblem(grid=grid, gamma=spec.gamma, c1=c1, V=V, a=a)
    raise TypeError(f"cannot discretize {type(spec).__name__}")


# theta is this factor above the slope of H at the first-order gradient
# bound, and the cap keeps every slope this factor below theta.  1.25 left
# 3 of the 192 criterion-4 rows (L = 64) unconverged; 2.0 raised the
# median row error at every L (0.17 to 0.26 at L = 64).
_THETA_MARGIN = 1.5


def default_theta(spec, p, grid: TorusGrid) -> tuple[float, ...]:
    """Per-axis dissipation: _THETA_MARGIN times the largest slope
    gamma c1^(1/gamma) (V + M)^(1-1/gamma) of H at the first-order
    gradient bound ((V + M) / c1)^(1/gamma).

    The slope is maximized in closed form, over V in the medium's value
    range and, for a periodized operator, over every blend weight zeta in
    [0, 1]; M = max over the same set of c1 |p|^gamma - V bounds
    max_x H(p, x).  No node is sampled.
    """
    base = spec.base if isinstance(spec, PeriodizedHJB) else spec
    g, a = base.gamma, 1.0 / base.gamma
    vmin, vmax = base.env.spec.value_range
    # c1 and the top of V's range at the blend weights zeta = 0 and 1
    c0, v0, c1, v1 = base.c1, vmax, base.c1, vmax
    if isinstance(spec, PeriodizedHJB):
        c1, v1 = spec.h0_c1, spec.H0_constant
    pg = float(np.linalg.norm(np.atleast_1d(p))) ** g
    w0 = v0 + max(c0 * pg - vmin, c1 * pg - v1)  # V + M at zeta = 0
    dc, dv = c1 - c0, v1 - v0
    # the log of the slope, a ln(c0 + z dc) + (1 - a) ln(w0 + z dv), is
    # concave in z: it peaks at an end or at its stationary point
    zs = [0.0, 1.0]
    if dc * dv != 0.0:
        zs.append(min(1.0, max(0.0, -(a * dc * w0 + (1.0 - a) * dv * c0)
                               / (dc * dv))))
    slope = max(g * (c0 + z * dc) ** a * (w0 + z * dv) ** (1.0 - a)
                for z in zs)
    return (_THETA_MARGIN * slope,) * grid.dimension


def _gradient_cap(prob: _GridProblem, theta) -> np.ndarray:
    """Per-node cap R(x) where the slope c1 gamma R^(gamma-1) of H reaches
    min(theta) / _THETA_MARGIN; beyond it H is continued linearly, which
    keeps the scheme monotone for any theta (a caller's ``lf_theta``
    too).  The default theta puts R at or past the first-order bound
    ((V + max_y H(p, y)) / c1)^(1/gamma) at every node."""
    g = prob.gamma
    return (min(theta) / (_THETA_MARGIN * g * prob.c1)) ** (1.0 / (g - 1.0))


def _extended_H(prob: _GridProblem, r: np.ndarray, R: np.ndarray):
    """c1 r^gamma - V for r = |q| <= R, continued linearly beyond R with
    matching value and slope (convex and C^1); returns (H, dH/dr)."""
    s = np.minimum(r, R)
    slope = prob.gamma * prob.c1 * s ** (prob.gamma - 1.0)
    return prob.c1 * s ** prob.gamma + slope * (r - s) - prob.V, slope


def _stencil(prob: _GridProblem, u: np.ndarray, p, theta):
    """Per axis: u at i+1 and i-1, the centred momentum p_i + (D+u + D-u)/2
    and the coefficient (a_i + theta_i h_i / 2) / h_i^2 of the second
    difference, which the Lax-Friedrichs term theta_i (D+u - D-u)/2 is
    too; and the norm of the centred momentum."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    axes = []
    for i, h in enumerate(prob.grid.spacings):
        up, um = np.roll(u, -1, axis=i), np.roll(u, 1, axis=i)
        axes.append((up, um, p[i] + (up - um) / (2.0 * h),
                     (prob.a[i] + 0.5 * theta[i] * h) / h ** 2))
    return axes, np.sqrt(sum(q * q for _, _, q, _ in axes))


def _operator(prob: _GridProblem, u: np.ndarray, p, theta,
              R: np.ndarray) -> np.ndarray:
    """H-hat(D-u, D+u, x) - tr(a D^2 u) on the grid (vectorized), with H
    extended linearly beyond the gradient cap R."""
    axes, r = _stencil(prob, u, p, theta)
    out = _extended_H(prob, r, R)[0]
    for up, um, _, k in axes:
        out = out - k * (up - 2.0 * u + um)
    return out


def _jacobian(prob: _GridProblem, u: np.ndarray, p, theta, R: np.ndarray,
              delta: float):
    """Sparse Jacobian of delta*u + ``_operator`` in the node values.

    Off the diagonal every entry is +-dH/dq_i / (2 h_i) - (a_i + theta_i h_i
    / 2) / h_i^2 < 0, since the extension keeps |dH/dq_i| below theta_i:
    the scheme is monotone.
    """
    n = u.size
    idx = np.arange(n).reshape(u.shape)
    axes, r = _stencil(prob, u, p, theta)
    # dH/dq_i = (dH/dr) q_i / r, and 0 at q = 0 (gamma > 1)
    fac = _extended_H(prob, r, R)[1] / np.where(r > 0.0, r, 1.0)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], []
    diag = np.full(u.shape, delta)
    for i, ((_, _, q, k), h) in enumerate(zip(axes, prob.grid.spacings)):
        hq = fac * q / (2.0 * h)
        diag = diag + 2.0 * k
        for shift, v in ((-1, hq - k), (1, -hq - k)):
            rows.append(idx.ravel())
            cols.append(np.roll(idx, shift, axis=i).ravel())
            vals.append(v.ravel())
    vals.insert(0, diag.ravel())
    return sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


def _newton(prob: _GridProblem, p, theta, R: np.ndarray, u: np.ndarray,
            delta: float, tol: float, max_steps: int):
    """Full Newton (Howard) steps on the discrete cell equation, until the
    residual is <= tol or non-finite, or after ``max_steps`` steps.

    delta > 0: delta u + H-hat(u) - diffusion = 0; the delta diagonal makes
    the Jacobian of the monotone, convex scheme an M-matrix, and Howard's
    algorithm converges from any start.  delta = 0: H-hat(u) - diffusion =
    c, with c one more unknown and u pinned to 0 at node 0, which borders
    the singular Jacobian with a column of -1.  Returns (u, c, sup-norm
    residual history); the Newton steps taken are len(history) - 1.
    """
    shape, n = u.shape, u.size
    c = 0.0
    if delta == 0.0:
        u = u - u.flat[0]
        c = float(np.mean(_operator(prob, u, p, theta, R)))
        border = sp.csc_matrix(-np.ones((n, 1)))
    history = []
    while True:
        # v^delta carries a constant of size |H-bar|/delta; centering before
        # the finite differences keeps the residual roundoff at the O(1)
        # oscillation scale instead of the 1/delta scale
        m = float(u.mean())
        r = delta * (u - m) + delta * m - c + \
            _operator(prob, u - m, p, theta, R)
        history.append(float(np.max(np.abs(r))))
        if history[-1] <= tol or len(history) > max_steps or \
                not np.isfinite(history[-1]):
            return u, c, history
        J = _jacobian(prob, u, p, theta, R, delta)
        if delta > 0.0:
            u = u - spla.spsolve(J, r.ravel()).reshape(shape)
        else:
            w = spla.spsolve(sp.hstack([J[:, 1:], border], format="csc"),
                             r.ravel())
            u = u - np.concatenate(([0.0], w[:-1])).reshape(shape)
            c -= float(w[-1])


def solve_delta_problem(spec, p, grid: TorusGrid, params: SolverParams) -> GridField:
    """Approximate corrector: delta v - tr(A D^2 v) + H(Dv + p, x) = 0.

    Returns the grid field with ``info`` carrying residual, Newton steps,
    theta and ``nodes_above_cap``.  Raises NonConvergenceError when the
    tolerance is out of reach within ``max_iter`` Newton steps.
    """
    if params.delta <= 0:
        raise ValueError("solve_delta_problem needs delta > 0")
    prob = _discretize(spec, grid)
    theta = params.lf_theta or default_theta(spec, p, grid)
    R = _gradient_cap(prob, theta)
    u, _, history = _newton(prob, p, theta, R, np.zeros(grid.shape),
                            params.delta, params.tol, params.max_iter)
    res = history[-1]
    if not res <= params.tol:
        raise NonConvergenceError(
            f"discounted solve stalled at residual {res:.3e}", history)
    bound = float(np.max(np.abs(prob.c1 * np.linalg.norm(np.atleast_1d(p))
                                ** prob.gamma - prob.V))) / params.delta
    if float(np.max(np.abs(u))) > 1.01 * bound + params.tol / params.delta:
        raise NonConvergenceError("discounted solution violates the sup bound",
                                  history)
    return GridField(grid=grid, values=u,
                     info={"residual": res, "iterations": len(history) - 1,
                           "theta": tuple(theta), "delta": params.delta,
                           "nodes_above_cap": int(np.count_nonzero(
                               _stencil(prob, u, p, theta)[1] > R))})


def corrector_lipschitz(fld: GridField) -> float:
    """Max one-sided difference quotient over nodes and axes."""
    u = fld.values
    out = 0.0
    for i, h in enumerate(fld.grid.spacings):
        out = max(out, float(np.max(np.abs(np.roll(u, -1, axis=i) - u))) / h)
    return out


def ergodic_constant_periodic(prob, p, grid: TorusGrid,
                              params: SolverParams,
                              init: np.ndarray | None = None) -> ErgodicEstimate:
    """Periodic cell problem: the unique c with an L-periodic corrector for
    -tr(A_L D^2 chi) + H_L(D chi + p, x) = c; the returned value is c
    (the H-bar-side constant).

    The corrector is normalized to zero at node 0 (spatial origin).  The
    Newton loop runs twice on the same monotone scheme: a discounted solve
    with delta = 1 from ``init`` (zero by default), which Howard's
    algorithm solves from any start, then the bordered ergodic system from
    where it stopped.  ``max_iter`` bounds each; ``iterations`` sums both.

    ``info["nodes_above_cap"]`` counts the nodes whose converged centred
    gradient passes the cap R(x) of ``_gradient_cap``; with none, c is the
    constant of the scheme for H itself.  In first-order cells at the
    default theta or above, R(x) lies past the gradient bound of {H <=
    max_x H(p, x)} and H-bar(p) <= max_x H(p, x), so the extension leaves
    the continuum constant unchanged, though Lax-Friedrichs dissipation at
    convex kinks can still push discrete gradients past R.  In viscous
    cells, which have no such bound, a larger ``lf_theta`` moves R out.
    """
    if isinstance(prob, PeriodizedHJB):
        for per in grid.periods:
            if abs(per - prob.L) > 1e-12 * prob.L:
                raise ValueError("grid period must equal L")
    gprob = _discretize(prob, grid)
    theta = params.lf_theta or default_theta(prob, p, grid)
    R = _gradient_cap(gprob, theta)
    u = np.zeros(grid.shape) if init is None else np.reshape(init, grid.shape)
    u, _, warmup = _newton(gprob, p, theta, R, u, 1.0, params.tol,
                           params.max_iter)
    u, c, history = _newton(gprob, p, theta, R, u, 0.0, params.tol,
                            params.max_iter)
    res = history[-1]
    if not res <= params.tol:
        raise NonConvergenceError(
            f"ergodic solve stalled at residual {res:.3e}", warmup + history)
    fld = GridField(grid=grid, values=u, info={"residual": res})
    return ErgodicEstimate(
        value=c, residual=res, iterations=len(warmup) + len(history) - 2,
        corrector=fld, lipschitz_estimate=corrector_lipschitz(fld),
        converged=True,
        info={"theta": tuple(theta),
              "nodes_above_cap": int(np.count_nonzero(
                  _stencil(gprob, u, p, theta)[1] > R))})


def _theta_extrapolated(solve, params: SolverParams, theta, value):
    """Dissipation extrapolation: run ``solve(params)`` with dissipation
    theta and 2 theta, and extrapolate ``value`` of the two results
    linearly to theta = 0.

    The leading scheme error is the Lax-Friedrichs dissipation, linear in
    theta, so this removes the O(theta h) bias that otherwise dominates on
    flat spots of the effective Hamiltonian.  Returns (extrapolated value,
    [result at theta, result at 2 theta]).
    """
    results = [solve(replace(params, lf_theta=tuple(m * t for t in theta)))
               for m in (1.0, 2.0)]
    return 2.0 * value(results[0]) - value(results[1]), results


def estimate_Hbar_reference(spec: HamiltonianSpec, p, delta_seq, box: float,
                            params: SolverParams, grid_n: int | None = None,
                            box_multiplier: float = 1.0,
                            dissipation_extrapolation: bool = False) -> ErgodicEstimate:
    """Reference ergodic constant via the small-discount limit.

    Solves the discounted problem on a torus of period ``box`` for each
    discount in the (decreasing) sequence, reads -delta v(0) and Richardson
    extrapolates linearly in delta.  ``box_multiplier`` is the constant c
    in the nominal requirement box >= c / min(delta); for periodic or
    periodically wrapped media a smaller box is exact, so a violation is
    only flagged in ``info``, not fatal.

    With ``dissipation_extrapolation`` each discounted problem is solved
    twice, with dissipation theta and 2 theta (``_theta_extrapolated``).
    """
    deltas = [float(d) for d in delta_seq]
    if len(deltas) < 2 or any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("need a decreasing sequence of at least 2 discounts")
    d = spec.dimension
    n = grid_n or max(64, int(64 * box))
    grid = make_grid(d, box, n)
    small_box = box < box_multiplier / deltas[-1]
    theta0 = params.lf_theta or default_theta(spec, p, grid)
    solve = partial(solve_delta_problem, spec, p, grid)

    def read(fld):  # -delta v(0)
        return -fld.info["delta"] * float(fld.values.ravel()[0])

    vals = []
    total_iters = 0
    for dl in deltas:
        pd = replace(params, delta=dl, lf_theta=theta0)
        if dissipation_extrapolation:
            v, flds = _theta_extrapolated(solve, pd, theta0, read)
        else:
            flds = [solve(pd)]
            v = read(flds[0])
        vals.append(v)
        total_iters += sum(f.info["iterations"] for f in flds)
        last = flds[0]
    extrap = []
    for (da, va), (db, vb) in zip(zip(deltas, vals), zip(deltas[1:], vals[1:])):
        extrap.append((vb * da - va * db) / (da - db))
    value = extrap[-1]
    residual = abs(extrap[-1] - extrap[-2]) if len(extrap) >= 2 else \
        abs(vals[-1] - vals[-2])
    diffs = np.diff(vals)
    monotone = bool(np.all(diffs >= 0) or np.all(diffs <= 0))
    sup_dev = float(np.max(np.abs(deltas[-1] * last.values + value)))
    return ErgodicEstimate(
        value=value, residual=residual, iterations=total_iters,
        corrector=last, lipschitz_estimate=corrector_lipschitz(last),
        converged=True,
        info={"delta_values": vals, "extrapolants": extrap,
              "monotone_input": monotone, "sup_deviation": sup_dev,
              "small_box": small_box})


# --- flat binary persistence ("PHF1") -------------------------------------

def save_field(fld: GridField, path) -> None:
    """magic 'PHF1', then d, N per axis (int64 LE), period per axis
    (float64 LE), then values as float64 LE row-major."""
    g = fld.grid
    with open(path, "wb") as f:
        f.write(b"PHF1")
        f.write(struct.pack("<q", g.dimension))
        for n in g.ns:
            f.write(struct.pack("<q", n))
        for p in g.periods:
            f.write(struct.pack("<d", p))
        f.write(np.ascontiguousarray(fld.values, dtype="<f8").tobytes())


def load_field(path) -> GridField:
    with open(path, "rb") as f:
        if f.read(4) != b"PHF1":
            raise ValueError("bad magic bytes")
        (d,) = struct.unpack("<q", f.read(8))
        ns = tuple(struct.unpack("<q", f.read(8))[0] for _ in range(d))
        periods = tuple(struct.unpack("<d", f.read(8))[0] for _ in range(d))
        vals = np.frombuffer(f.read(), dtype="<f8").reshape(ns)
    grid = TorusGrid(dimension=d, periods=periods, ns=ns)
    return GridField(grid=grid, values=vals.copy())

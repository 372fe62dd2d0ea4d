"""Monotone finite-difference solvers for (possibly degenerate) viscous HJB
operators on tori, d in {1, 2}.

The discretization is Lax-Friedrichs in the gradient and centered second
differences in the diffusion.  Beyond the gradient R(x) at which its
slope reaches theta / 1.5 the Hamiltonian is continued linearly, so the
dissipation theta dominates the slope and the scheme is monotone at every
iterate.  Discounted and ergodic cell problems are both solved by one
Newton (Howard) loop, ``_newton``, which the elliptic solvers share: a
delta diagonal closes the discounted system, and a border carrying the
unknown constant closes the ergodic one.  Its linear steps run on a
LAPACK band solver on 1D tori and on SuperLU otherwise.  The returned
residual is the sup-norm defect of the discrete equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
import struct
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import MatrixRankWarning
from scipy.linalg import lapack

from .environment import lattice_points
from .model import HamiltonianSpec
from .periodize import PeriodizedElliptic, PeriodizedHJB

__all__ = [
    "TorusGrid",
    "GridField",
    "SolverParams",
    "ErgodicEstimate",
    "NonConvergenceError",
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

    def nodes(self) -> np.ndarray:
        """Node coordinates, row-major, as an (n_nodes, d) array."""
        return lattice_points(self.axes())

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
    (Howard) steps of each phase of a solve, one sparse linear solve each,
    for the HJB and the elliptic solvers alike.  Nothing marches in
    pseudo-time, so there is no CFL safety factor."""

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
    info: dict = field(default_factory=dict)


# --- grid-coefficient form of the (blended) power-family operator ---------

@dataclass
class _GridProblem:
    """A discretized cell: H(q, x) = c1(x)|q|^gamma - V(x) and diffusion
    coefficient a(x) per axis at the grid nodes, read from the spec's one
    ``coefficients`` method (V sampled once per node).  The solvers accept
    it in place of a spec, so several solves (theta and 2 theta, a
    sequence of discounts) share one discretization and its stencil.
    """

    grid: TorusGrid
    gamma: float
    c1: np.ndarray
    V: np.ndarray
    a: np.ndarray  # shape (d,) + grid.shape
    cols: np.ndarray  # _neighbours(grid), shape (1 + 2d, n)


def _neighbours(grid: TorusGrid, diagonal: bool = False) -> np.ndarray:
    """Column table of a stencil: row t holds the t-th neighbour of each node
    i (row-major) on the torus: i, i +- e_k for each axis k, then with
    ``diagonal`` (2D) i +- (1, 1) and i +- (1, -1).  No two are equal."""
    idx = np.arange(int(np.prod(grid.shape))).reshape(grid.shape)
    eye = np.eye(grid.dimension, dtype=int)  # np.roll by -e_k reads i + e_k
    shifts = [0 * eye[0]] + [-s * e for e in eye for s in (1, -1)]
    if diagonal:
        shifts += [(-1, -1), (1, 1), (-1, 1), (1, -1)]
    axes = tuple(range(grid.dimension))
    return np.stack([np.roll(idx, s, axis=axes).ravel() for s in shifts])


def _discretize(spec, grid: TorusGrid) -> _GridProblem:
    """The coefficients of ``spec`` at the grid nodes; an already
    discretized cell is returned unchanged."""
    if isinstance(spec, _GridProblem):
        return spec
    shape = grid.shape
    c1, V, a = spec.coefficients(grid.nodes())
    return _GridProblem(grid=grid, gamma=spec.gamma, c1=c1.reshape(shape),
                        V=V.reshape(shape),
                        a=np.broadcast_to(a.reshape(shape),
                                          (grid.dimension,) + shape).copy(),
                        cols=_neighbours(grid))


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
        up, um = (u.ravel()[prob.cols[t]].reshape(u.shape)
                  for t in (1 + 2 * i, 2 + 2 * i))
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
              delta: float) -> np.ndarray:
    """Jacobian of delta*u + ``_operator`` on the stencil ``prob.cols``.

    Off the diagonal every entry is +-dH/dq_i / (2 h_i) - (a_i + theta_i h_i
    / 2) / h_i^2 < 0, since the extension keeps |dH/dq_i| below theta_i:
    the scheme is monotone.
    """
    axes, r = _stencil(prob, u, p, theta)
    # dH/dq_i = (dH/dr) q_i / r, and 0 at q = 0 (gamma > 1)
    fac = _extended_H(prob, r, R)[1] / np.where(r > 0.0, r, 1.0)
    diag, vals = np.full(u.shape, delta), []
    for (_, _, q, k), h in zip(axes, prob.grid.spacings):
        hq = fac * q / (2.0 * h)
        diag = diag + 2.0 * k
        vals += [hq - k, -hq - k]
    return np.stack([diag] + vals).reshape(len(prob.cols), -1)


def _hjb_scheme(prob: _GridProblem, p, theta):
    """The capped Lax-Friedrichs scheme as ``_newton`` takes it: F, J, cols."""
    R = _gradient_cap(prob, theta)
    return (lambda v: _operator(prob, v, p, theta, R),
            lambda v, dl: _jacobian(prob, v, p, theta, R, dl), prob.cols)


def _pattern(rows: np.ndarray, cols: np.ndarray, src: np.ndarray, n: int):
    """The n x n CSC matrix with entry e at (rows[e], cols[e]) and the
    gather ``take``: A.data[:] = values[take] puts values[src[e]] at e.
    Tagged e + 1 in COO form, the entries leave the conversion in order."""
    A = sp.csc_matrix((np.arange(1.0, rows.size + 1), (rows, cols)),
                      shape=(n, n))
    return src[A.data.astype(np.intp) - 1], A


def _superlu(cols: np.ndarray, bordered: bool):
    """A phase's solver on any stencil: the CSC matrix J, or [J[:, 1:], -1]
    with the constant last.  The first step factors with SuperLU's COLAMD
    ordering; the later ones refill one CSC matrix, its columns already in
    that order, and factor it with the natural ordering."""
    n = cols.shape[1]
    rows = np.broadcast_to(np.arange(n), cols.shape).ravel()
    cols = cols.ravel()
    src = np.arange(cols.size)  # entry e takes the e-th value of J
    if bordered:
        keep = cols != 0  # the -1 is appended to J's values
        rows = np.concatenate((rows[keep], np.arange(n)))
        src = np.concatenate((src[keep], np.full(n, cols.size)))
        cols = np.concatenate((cols[keep] - 1, np.full(n, n - 1)))
    take, A = _pattern(rows, cols, src, n)
    perm = None

    def solve(vals, b):
        nonlocal take, A, perm
        if take is None:  # column j moves to perm[j], once per phase
            take, A = _pattern(rows, perm[cols], src, n)
        A.data[:] = vals[take]
        if perm is not None:
            with warnings.catch_warnings():  # singular: a NaN step, silently
                warnings.simplefilter("ignore", MatrixRankWarning)
                return spla.spsolve(A, b, permc_spec="NATURAL")[perm]
        try:
            lu = spla.splu(A)  # COLAMD, as spsolve orders by default
        except RuntimeError:  # exactly singular: a NaN step ends the phase
            return np.full(n, np.nan)
        perm, take = lu.perm_c.copy(), None
        return lu.solve(b)

    return solve


def _banded(cols: np.ndarray, bordered: bool):
    """A phase's solver on a 1D torus, in LAPACK band storage.

    In the zigzag order z = (0, 1, n-1, 2, n-2, ...) the cyclic tridiagonal
    J has bandwidths 2.  Each row after the first, minus the row before it
    (the right-hand side alike), cancels the border's -1 in all but row 0;
    the constant takes the column of the pinned node 0, and the system is
    banded with kl = 3, ku = 2.  ``dgbsv`` solves it with partial pivoting;
    a singular factor gives a NaN step.  Without the border (delta > 0)
    node 0 keeps its column."""
    n = cols.shape[1]
    node = np.arange(n)
    pos = np.where(node <= n // 2, 2 * node - 1, 2 * (n - node))
    pos[0] = 0  # node j sits at zigzag position pos[j]
    i = np.broadcast_to(pos, cols.shape).ravel()
    j = pos[cols.ravel()]
    src = np.arange(cols.size)
    if bordered:
        keep = j != 0
        i, j, src = i[keep], j[keep], src[keep]
    nxt = i < n - 1  # each entry enters the next row too, negated
    i, j = np.concatenate((i, i[nxt] + 1)), np.concatenate((j, j[nxt]))
    sign = np.concatenate((np.ones(src.size), -np.ones(nxt.sum())))
    src = np.concatenate((src, src[nxt]))
    if bordered:
        i, j = np.append(i, 0), np.append(j, 0)
        src, sign = np.append(src, cols.size), np.append(sign, 1.0)
    band = 5 + i - j + 9 * j  # A[i, j] at ab[kl + ku + i - j, j], column-major
    out = np.roll(pos, -1) if bordered else pos  # the unknowns' positions
    z = np.argsort(pos)

    def solve(vals, b):
        ab = np.bincount(band, vals[src] * sign, minlength=9 * n)
        rhs = b[z]
        rhs[1:] -= b[z[:-1]]
        _, _, x, info = lapack.dgbsv(3, 2, ab.reshape((9, n), order="F"),
                                     rhs, overwrite_ab=True, overwrite_b=True)
        return x[out] if info == 0 else np.full(n, np.nan)

    return solve


def _newton(F, J, cols: np.ndarray, u: np.ndarray, delta: float, tol: float,
            max_steps: int):
    """Full Newton (Howard) steps on a monotone, convex scheme, until the
    residual is <= tol or non-finite, or after ``max_steps`` steps.

    ``F(u)`` is the scheme's operator at the nodes, and ``J(u, delta)`` the
    Jacobian of delta u + F(u) on its stencil: entry [t, i] of the (k, n)
    array sits in row i, column ``cols[t, i]``; no row repeats a column.
    delta > 0: delta u + F(u) = 0, an M-matrix system that Howard's
    algorithm solves from any start.  delta = 0: F(u) = c with u = 0 at
    node 0, so the matrix is [J[:, 1:], -1] and c is the last unknown.
    At steep iterates its condition number passes 1e16, so the steps
    follow the solver's rounding; eliminating node 0 by a Schur complement
    instead overflowed.

    One call is one phase, with one linear solver chosen from the stencil.
    A 1D torus (three columns per row) goes to ``_banded``, a differenced
    band form that LAPACK solves with pivoting over the whole band.  Every
    other stencil goes to ``_superlu``: one COLAMD ordering per phase and
    one CSC matrix in that order, whose data one gather per step refills.
    Returns (u, c, residual history); the steps are len(history) - 1.
    """
    shape, c = u.shape, 0.0
    if delta == 0.0:
        u = u - u.flat[0]
        c = float(np.mean(F(u)))
    solve = (_banded if len(cols) == 3 else _superlu)(cols, delta == 0.0)
    history = []
    while True:
        # v^delta carries a constant of size |H-bar|/delta; centering before
        # the finite differences keeps the residual roundoff at the O(1)
        # oscillation scale instead of the 1/delta scale
        m = float(u.mean())
        r = delta * (u - m) + delta * m - c + F(u - m)
        history.append(float(np.max(np.abs(r))))
        if history[-1] <= tol or len(history) > max_steps or \
                not np.isfinite(history[-1]):
            return u, c, history
        w = solve(np.append(J(u, delta), -1.0), r.ravel())
        if delta > 0.0:
            u = u - w.reshape(shape)
        else:
            u = u - np.concatenate(([0.0], w[:-1])).reshape(shape)
            c -= float(w[-1])


def _check_period(prob, grid: TorusGrid) -> None:
    """A periodized operator is solved on the torus of its period L."""
    if isinstance(prob, (PeriodizedHJB, PeriodizedElliptic)):
        for per in grid.periods:
            if abs(per - prob.L) > 1e-12 * prob.L:
                raise ValueError("grid period must equal L")


def solve_delta_problem(spec, p, grid: TorusGrid, params: SolverParams) -> GridField:
    """Approximate corrector: delta v - tr(A D^2 v) + H(Dv + p, x) = 0.

    ``spec`` may be a cell already discretized by ``_discretize``; then
    ``params.lf_theta`` must be set.  Returns the grid field with ``info``
    carrying residual, Newton steps, theta and ``nodes_above_cap``.  Raises
    NonConvergenceError when the tolerance is out of reach within
    ``max_iter`` Newton steps.
    """
    if params.delta <= 0:
        raise ValueError("solve_delta_problem needs delta > 0")
    prob = _discretize(spec, grid)
    theta = params.lf_theta or default_theta(spec, p, grid)
    u, _, history = _newton(*_hjb_scheme(prob, p, theta),
                            np.zeros(grid.shape), params.delta, params.tol,
                            params.max_iter)
    res = history[-1]
    if not res <= params.tol:
        raise NonConvergenceError(
            f"discounted solve stalled at residual {res:.3e}", history)
    bound = float(np.max(np.abs(prob.c1 * np.linalg.norm(np.atleast_1d(p))
                                ** prob.gamma - prob.V))) / params.delta
    if float(np.max(np.abs(u))) > 1.01 * bound + params.tol / params.delta:
        raise NonConvergenceError("discounted solution violates the sup bound",
                                  history)
    above = _stencil(prob, u, p, theta)[1] > _gradient_cap(prob, theta)
    return GridField(grid=grid, values=u,
                     info={"residual": res, "iterations": len(history) - 1,
                           "theta": tuple(theta), "delta": params.delta,
                           "nodes_above_cap": int(np.count_nonzero(above))})


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
    (the H-bar-side constant).  ``prob`` may be a cell already discretized
    by ``_discretize``; then ``params.lf_theta`` must be set.

    The corrector is normalized to zero at node 0 (spatial origin).  The
    Newton loop runs twice on the same monotone scheme: a discounted solve
    with delta = 1 from zero, which Howard's algorithm solves from any
    start, then the bordered ergodic system from where it stopped, or from
    ``init`` (a nearby cell's corrector, such as 2 theta's) with no first
    phase.  ``max_iter`` bounds each; ``iterations`` sums the two
    ``info`` counts ``warmup_steps`` and ``bordered_steps``.

    ``info["nodes_above_cap"]`` counts the nodes whose converged centred
    gradient passes the cap R(x) of ``_gradient_cap``; with none, c is the
    constant of the scheme for H itself.  In first-order cells at the
    default theta or above, R(x) lies past the gradient bound of {H <=
    max_x H(p, x)} and H-bar(p) <= max_x H(p, x), so the extension leaves
    the continuum constant unchanged, though Lax-Friedrichs dissipation at
    convex kinks can still push discrete gradients past R.  In viscous
    cells, which have no such bound, a larger ``lf_theta`` moves R out.
    """
    _check_period(prob, grid)
    gprob = _discretize(prob, grid)
    theta = params.lf_theta or default_theta(prob, p, grid)
    scheme = _hjb_scheme(gprob, p, theta)
    warmup = []  # with an init, no discounted phase
    if init is None:
        init, _, warmup = _newton(*scheme, np.zeros(grid.shape), 1.0,
                                  params.tol, params.max_iter)
    u, c, history = _newton(*scheme, np.reshape(init, grid.shape), 0.0,
                            params.tol, params.max_iter)
    res = history[-1]
    if not res <= params.tol:
        raise NonConvergenceError(
            f"ergodic solve stalled at residual {res:.3e}", warmup + history)
    fld = GridField(grid=grid, values=u, info={"residual": res})
    above = _stencil(gprob, u, p, theta)[1] > _gradient_cap(gprob, theta)
    steps = {"warmup_steps": len(warmup[1:]), "bordered_steps": len(history) - 1}
    return ErgodicEstimate(
        value=c, residual=res, iterations=sum(steps.values()),
        corrector=fld, lipschitz_estimate=corrector_lipschitz(fld),
        info={"theta": tuple(theta),
              "nodes_above_cap": int(np.count_nonzero(above)), **steps})


def _theta_extrapolated(solve, params: SolverParams, theta, value):
    """Dissipation extrapolation: run ``solve(params, start)`` with
    dissipation 2 theta (start None), then theta (start the 2 theta result,
    the easier problem, to continue from or ignore), and extrapolate
    ``value`` of the two results linearly to theta = 0.

    The leading scheme error is the Lax-Friedrichs dissipation, linear in
    theta, so this removes the O(theta h) bias that otherwise dominates on
    flat spots of the effective Hamiltonian.  Returns (extrapolated value,
    [result at theta, result at 2 theta]).
    """
    doubled = solve(replace(params, lf_theta=tuple(2.0 * t for t in theta)), None)
    results = [solve(replace(params, lf_theta=tuple(theta)), doubled), doubled]
    return 2.0 * value(results[0]) - value(results[1]), results


def estimate_Hbar_reference(spec: HamiltonianSpec, p, delta_seq, box: float,
                            params: SolverParams, grid_n: int | None = None,
                            box_multiplier: float = 1.0) -> ErgodicEstimate:
    """Reference ergodic constant via the small-discount limit.

    Solves the discounted problem on a torus of period ``box`` for each
    discount in the (decreasing) sequence, reads -delta v(0) and Richardson
    extrapolates linearly in delta.  ``box_multiplier`` is the constant c
    in the nominal requirement box >= c / min(delta); for periodic or
    periodically wrapped media a smaller box is exact, so a violation is
    only flagged in ``info``, not fatal.

    Each discounted problem is solved twice, with dissipation theta and
    2 theta, and extrapolated to theta = 0 (``_theta_extrapolated``).
    Every solve reads the same discretized cell.
    """
    deltas = [float(d) for d in delta_seq]
    if len(deltas) < 2 or any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("need a decreasing sequence of at least 2 discounts")
    d = spec.dimension
    n = grid_n or max(64, int(64 * box))
    grid = make_grid(d, box, n)
    small_box = box < box_multiplier / deltas[-1]
    theta0 = params.lf_theta or default_theta(spec, p, grid)
    solve = partial(solve_delta_problem, _discretize(spec, grid), p, grid)

    def read(fld):  # -delta v(0)
        return -fld.info["delta"] * float(fld.values.ravel()[0])

    vals = []
    total_iters = 0
    for dl in deltas:
        pd = replace(params, delta=dl)
        v, flds = _theta_extrapolated(lambda pp, _: solve(pp), pd, theta0, read)
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

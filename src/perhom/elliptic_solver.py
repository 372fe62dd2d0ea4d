"""Ergodic constants for fully nonlinear uniformly elliptic operators.

Three routes:

* an exact 1D inverse-integral oracle that only uses the strict
  monotonicity of F in its matrix argument,
* the resolvent problem v + F(D^2 v + P, Lx) = 0 on the unit cell,
* periodic-cell constants.

The last two discretize F monotonely (wide stencil; 2D cross terms need
diagonally dominant coefficient matrices and a square grid) and solve the
resulting Bellman system with the one Newton (Howard) loop of
``hjb_solver``: with a delta = 1 diagonal for the resolvent, bordered by
the unknown constant for the cell.  ``max_iter`` bounds its steps.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # noqa: F401  (patched by perfbench/layer_trace.py)

from .environment import gauss_legendre_panels
from .hjb_solver import (
    ErgodicEstimate,
    GridField,
    NonConvergenceError,
    SolverParams,
    TorusGrid,
    _check_period,
    _newton,
    corrector_lipschitz,
)

__all__ = [
    "ergodic_constant_1d_exact",
    "solve_resolvent",
    "ergodic_constant_periodic_elliptic",
]


def ergodic_constant_1d_exact(spec, P: float, quadrature_N: int = 256,
                              period: float = 1.0) -> float:
    """Exact 1D constant: the unique c with mean-zero chi'' where
    F(chi'' + P, x) = c, found by nested bisection.

    The inner inversion brackets chi'' through the two-sided ellipticity
    bound; the outer equation integral_0^period chi''(c, x) dx = 0 is
    monotone decreasing in c.  Composite 5-point Gauss quadrature on
    ``quadrature_N`` panels.
    """
    lam = getattr(spec, "base", spec).constants.lambda_bar
    xs, ws = gauss_legendre_panels(period, quadrature_N)
    # per-node control coefficients, sampled once so the bisections below
    # evaluate F as a vectorized max of affine functions of G
    controls = spec.coefficients(xs[:, None])
    amat = np.stack([a_mat[:, 0, 0] for a_mat, _ in controls], axis=1)
    fvec = np.stack([f for _, f in controls], axis=1)

    def F_of(G: np.ndarray) -> np.ndarray:
        return np.max(-amat * (G + P)[:, None] - fvec, axis=1)

    FP = F_of(np.zeros_like(xs))

    def invert_all(c: float) -> np.ndarray:
        # solve F(G + P, x_i) = c for G at every node; F strictly
        # decreasing in G with slope at least lambda_bar
        span = 2.0 * (np.abs(FP - c) / lam + 1e-9)
        lo, hi = -span, span
        if np.any(F_of(lo) < c) or np.any(F_of(hi) > c):
            raise NonConvergenceError("ellipticity bracket failure")
        tol = 1e-12 * max(1.0, float(span.max()))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            pos = F_of(mid) >= c
            lo = np.where(pos, mid, lo)
            hi = np.where(pos, hi, mid)
            if float(np.max(hi - lo)) < tol:
                break
        return 0.5 * (lo + hi)

    def mean_G(c: float) -> float:
        return float(np.dot(ws, invert_all(c))) / period

    c_lo = float(FP.min()) - 1.0
    c_hi = float(FP.max()) + 1.0
    while mean_G(c_lo) < 0:
        c_lo -= max(1.0, c_hi - c_lo)
    while mean_G(c_hi) > 0:
        c_hi += max(1.0, c_hi - c_lo)
    for _ in range(80):
        c_mid = 0.5 * (c_lo + c_hi)
        if mean_G(c_mid) >= 0:
            c_lo = c_mid
        else:
            c_hi = c_mid
        if c_hi - c_lo < 1e-12 * max(1.0, abs(c_lo) + abs(c_hi)):
            break
    return 0.5 * (c_lo + c_hi)


# --- monotone discretization ---------------------------------------------

def _trace_operator_matrix(grid: TorusGrid, mats: np.ndarray) -> sp.csr_matrix:
    """Sparse matrix of u -> tr(A(x) D^2_h u) with the monotone stencil."""
    d = grid.dimension
    hs = grid.spacings
    n = int(np.prod(grid.shape))
    idx = np.arange(n).reshape(grid.shape)
    rows, cols, vals = [], [], []
    diag = np.zeros(grid.shape)

    def add(shift_axes, coeff):
        tgt = idx
        for ax, s in shift_axes:
            tgt = np.roll(tgt, -s, axis=ax)
        rows.append(idx.ravel())
        cols.append(tgt.ravel())
        vals.append(coeff.ravel())

    if d == 1:
        a = mats[..., 0, 0]
        c = a / hs[0] ** 2
        add([(0, 1)], c)
        add([(0, -1)], c)
        diag -= 2.0 * c
    else:
        a11 = mats[..., 0, 0]
        a22 = mats[..., 1, 1]
        a12 = 0.5 * (mats[..., 0, 1] + mats[..., 1, 0])
        if np.any(np.abs(a12) > 1e-14) and abs(hs[0] - hs[1]) > 1e-12 * hs[0]:
            raise NonConvergenceError("cross-term stencil needs a square grid")
        h2 = hs[0] * hs[1]
        ax_x = (a11 - np.abs(a12)) / hs[0] ** 2
        ax_y = (a22 - np.abs(a12)) / hs[1] ** 2
        if np.any(ax_x < -1e-12) or np.any(ax_y < -1e-12):
            raise NonConvergenceError(
                "coefficient matrix not diagonally dominant: monotone stencil infeasible")
        add([(0, 1)], ax_x)
        add([(0, -1)], ax_x)
        add([(1, 1)], ax_y)
        add([(1, -1)], ax_y)
        diag -= 2.0 * (ax_x + ax_y)
        apos = np.maximum(a12, 0.0) / h2
        aneg = np.maximum(-a12, 0.0) / h2
        add([(0, 1), (1, 1)], apos)
        add([(0, -1), (1, -1)], apos)
        add([(0, 1), (1, -1)], aneg)
        add([(0, -1), (1, 1)], aneg)
        diag -= 2.0 * (apos + aneg)
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


def _bellman_scheme(spec, P, grid: TorusGrid, coord_scale: float):
    """The monotone Bellman scheme of F(D^2 u + P, x) with the controls
    sampled at coord_scale * node, in the form ``hjb_solver._newton``
    takes: F(u) = max over controls k of -L_k u - (tr(A_k P) + f_k), and
    J(u, delta) = delta I - L_k row by row, k the control active at u.
    Each control's trace operator L_k and affine term are built once."""
    d = grid.dimension
    P = np.asarray(P, dtype=float).reshape(d, d)
    ops = []
    for mats, fs in spec.coefficients(grid.nodes() * coord_scale):
        mats = mats.reshape(grid.shape + (d, d))
        ops.append((_trace_operator_matrix(grid, mats),
                    np.einsum("...ij,ji->...", mats, P).ravel() + fs))

    def controls(u):
        return np.stack([-(Lk @ u.ravel()) - g for Lk, g in ops])

    def F(u):
        return np.max(controls(u), axis=0).reshape(u.shape)

    def J(u, delta):
        best = np.argmax(controls(u), axis=0)
        active = sum(sp.diags((best == k).astype(float)) @ Lk
                     for k, (Lk, _) in enumerate(ops))
        return (delta * sp.identity(u.size) - active).tocsc()

    return F, J


def solve_resolvent(spec, P, L: float, grid: TorusGrid,
                    params: SolverParams) -> GridField:
    """v + F(D^2 v + P, L x) = 0 on the unit cell, monotone discretization.

    The Newton (Howard) loop of ``hjb_solver`` with delta = 1, from v = 0:
    linear controls solve in one step.  Raises NonConvergenceError when the
    tolerance is out of reach within ``max_iter`` steps.
    """
    F, J = _bellman_scheme(spec, P, grid, coord_scale=L)
    u, _, history = _newton(F, J, np.zeros(grid.shape), 1.0, params.tol,
                            params.max_iter)
    res = history[-1]
    if not res <= params.tol:
        raise NonConvergenceError(f"resolvent stalled at residual {res:.3e}",
                                  history)
    return GridField(grid=grid, values=u,
                     info={"residual": res, "iterations": len(history) - 1})


def ergodic_constant_periodic_elliptic(prob, P, grid: TorusGrid,
                                       params: SolverParams) -> ErgodicEstimate:
    """Periodic cell constant: the unique c with an L-periodic corrector of
    F_L(D^2 chi + P, x) = c; corrector normalized to zero at node 0.

    The bordered Newton (Howard) loop of ``hjb_solver`` (delta = 0), from
    chi = 0; ``max_iter`` bounds its steps.
    """
    _check_period(prob, grid)
    F, J = _bellman_scheme(prob, P, grid, coord_scale=1.0)
    u, c, history = _newton(F, J, np.zeros(grid.shape), 0.0, params.tol,
                            params.max_iter)
    res = history[-1]
    if not res <= params.tol:
        raise NonConvergenceError(f"elliptic cell solve stalled at {res:.3e}",
                                  history)
    fld = GridField(grid=grid, values=u, info={"residual": res})
    return ErgodicEstimate(
        value=c, residual=res, iterations=len(history) - 1, corrector=fld,
        lipschitz_estimate=corrector_lipschitz(fld), converged=True,
        info={"oscillation": float(u.max() - u.min())})

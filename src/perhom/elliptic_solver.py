"""Ergodic constants for fully nonlinear uniformly elliptic operators.

Three routes:

* an exact 1D inverse-integral oracle: F is a max of controls affine and
  decreasing in its matrix argument, so each node's chi'' has a closed
  form and one bisection in the constant remains,
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
import scipy.sparse.linalg as spla  # noqa: F401  (patched by perfbench/layer_trace.py)

from .environment import gauss_legendre_panels
from .hjb_solver import (
    ErgodicEstimate,
    GridField,
    NonConvergenceError,
    SolverParams,
    TorusGrid,
    _check_period,
    _finish,
    _neighbours,
    _newton,
    corrector_lipschitz,
)
from .oracle import _bisect

__all__ = [
    "ergodic_constant_1d_exact",
    "solve_resolvent",
    "ergodic_constant_periodic_elliptic",
]


def ergodic_constant_1d_exact(spec, P: float, quadrature_N: int = 256,
                              period: float = 1.0) -> float:
    """Exact 1D constant: the unique c with mean-zero chi'' where
    F(chi'' + P, x) = c.

    Every control -a_k X - f_k is affine and decreasing in X, so at each
    node chi''(c, x) = max_k (-f_k - c) / a_k - P in closed form.  Its mean
    decreases in c, and it is >= 0 at c = min_x F(P, x) and <= 0 at
    c = max_x F(P, x); the oracle's bisection finds the root between.
    Composite 5-point Gauss quadrature on ``quadrature_N`` panels.
    """
    xs, ws = gauss_legendre_panels(period, quadrature_N)
    controls = spec.coefficients(xs[:, None])  # sampled once per node
    amat = np.stack([a_mat[:, 0, 0] for a_mat, _ in controls], axis=1)
    fvec = np.stack([f for _, f in controls], axis=1)
    if np.any(amat <= 0.0):
        raise NonConvergenceError("F is not decreasing in X: a control has a <= 0")
    FP = np.max(-amat * P - fvec, axis=1)

    def minus_mean_G(c: float) -> float:
        G = np.max((-fvec - c) / amat, axis=1) - P
        return -float(np.dot(ws, G)) / period

    c_lo, c_hi = float(FP.min()), float(FP.max())
    return _bisect(minus_mean_G, 0.0, c_lo, c_hi,
                   1e-12 * max(1.0, abs(c_lo) + abs(c_hi)))


# --- monotone discretization ---------------------------------------------

def _trace_weights(grid: TorusGrid, mats: np.ndarray) -> np.ndarray:
    """Weights of the monotone stencil of u -> tr(A(x) D^2_h u), one row per
    offset: the node, +-e_i per axis, and in 2D the diagonal neighbours
    (+1, +1), (-1, -1), (+1, -1), (-1, +1)."""
    hs = grid.spacings
    if grid.dimension == 1:
        c = mats[..., 0, 0] / hs[0] ** 2
        w = [-2.0 * c, c, c]
    else:
        a12 = 0.5 * (mats[..., 0, 1] + mats[..., 1, 0])
        if np.any(np.abs(a12) > 1e-14) and abs(hs[0] - hs[1]) > 1e-12 * hs[0]:
            raise NonConvergenceError("cross-term stencil needs a square grid")
        h2 = hs[0] * hs[1]
        ax_x = (mats[..., 0, 0] - np.abs(a12)) / hs[0] ** 2
        ax_y = (mats[..., 1, 1] - np.abs(a12)) / hs[1] ** 2
        if np.any(ax_x < -1e-12) or np.any(ax_y < -1e-12):
            raise NonConvergenceError(
                "coefficient matrix not diagonally dominant: monotone stencil infeasible")
        apos = np.maximum(a12, 0.0) / h2
        aneg = np.maximum(-a12, 0.0) / h2
        w = [-2.0 * (ax_x + ax_y) - 2.0 * (apos + aneg), ax_x, ax_x, ax_y,
             ax_y, apos, apos, aneg, aneg]
    return np.stack([x.ravel() for x in w])


def _bellman_scheme(spec, P, grid: TorusGrid, coord_scale: float):
    """The monotone Bellman scheme of F(D^2 u + P, x) with the controls
    sampled at coord_scale * node, in the form ``hjb_solver._newton``
    takes: F(u) = max over controls k of -L_k u - (tr(A_k P) + f_k), and
    J(u, delta) = delta I - L_k row by row, k the control active at u.
    Each control's stencil weights and affine term are computed once; the
    diagonal neighbours join the stencil only if a control has a cross term.
    """
    d = grid.dimension
    P = np.asarray(P, dtype=float).reshape(d, d)
    weights, gs = [], []
    for mats, fs in spec.coefficients(grid.nodes() * coord_scale):
        mats = mats.reshape(grid.shape + (d, d))
        weights.append(_trace_weights(grid, mats))
        gs.append(np.einsum("...ij,ji->...", mats, P).ravel() + fs)
    W, g = np.stack(weights), np.stack(gs)  # (controls, k, n), (controls, n)
    cols = _neighbours(grid, diagonal=bool(np.any(W[:, 1 + 2 * d:] != 0.0)))
    W = W[:, :len(cols)]

    def controls(u):
        return -np.sum(W * u.ravel()[cols], axis=1) - g

    def F(u):
        return np.max(controls(u), axis=0).reshape(u.shape)

    def J(u, delta):
        vals = -W[np.argmax(controls(u), axis=0), :, np.arange(u.size)].T
        vals[0] += delta
        return vals

    return F, J, cols


def solve_resolvent(spec, P, L: float, grid: TorusGrid,
                    params: SolverParams) -> GridField:
    """v + F(D^2 v + P, L x) = 0 on the unit cell, monotone discretization.

    The Newton (Howard) loop of ``hjb_solver`` with delta = 1, from v = 0:
    linear controls solve in one step.  Raises NonConvergenceError when the
    tolerance is out of reach within ``max_iter`` steps.
    """
    u, _, history = _newton(*_bellman_scheme(spec, P, grid, coord_scale=L),
                            np.zeros(grid.shape), 1.0, params.tol,
                            params.max_iter)
    return _finish("resolvent", grid, u, history, params.tol)


def ergodic_constant_periodic_elliptic(prob, P, grid: TorusGrid,
                                       params: SolverParams) -> ErgodicEstimate:
    """Periodic cell constant: the unique c with an L-periodic corrector of
    F_L(D^2 chi + P, x) = c; corrector normalized to zero at node 0.

    The bordered Newton (Howard) loop of ``hjb_solver`` (delta = 0), from
    chi = 0; ``max_iter`` bounds its steps.
    """
    _check_period(prob, grid)
    u, c, history = _newton(*_bellman_scheme(prob, P, grid, coord_scale=1.0),
                            np.zeros(grid.shape), 0.0, params.tol,
                            params.max_iter)
    fld = _finish("elliptic cell solve", grid, u, history, params.tol)
    return ErgodicEstimate(
        value=c, residual=fld.info["residual"],
        iterations=fld.info["iterations"], corrector=fld,
        lipschitz_estimate=corrector_lipschitz(fld))

"""Independent ground-truth computations used to validate the grid solvers.

The 1D first-order effective Hamiltonian of c1 |q|^gamma - V(x) with a
periodic potential has a classical closed form: flat value -min V on the
flat spot, and otherwise the unique c with

    integral_0^1 ((V(x) + c) / c1)^(1/gamma) dx = |p|.

These routines use only quadrature, one bisection (``_bisect``, shared with
the exact 1D elliptic route) and golden-section search: no finite differences.

Array contract: the medium functions handed to the oracles (V, a and f)
map an array of positions to an array of values of the same shape, and
each oracle samples them with one call per array (a constant return is
broadcast).  ``brute_force_min`` is the exception: it minimizes a
function of one point.
"""

from __future__ import annotations

import math

import numpy as np

from .environment import (
    EnvironmentSample,
    eval_potential_points,
    gauss_legendre_panels,
    lattice_points,
)

__all__ = [
    "hbar_1d_first_order",
    "hbar_flat_spot_value",
    "fbar_linear_1d",
    "brute_force_min",
    "flat_spot_halfwidth",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _on(fn, xs: np.ndarray) -> np.ndarray:
    """Values of an array function at the positions ``xs``."""
    return np.broadcast_to(np.asarray(fn(xs), dtype=float), xs.shape)


def _golden_min(fn, lo, hi, tol: float = 1e-12):
    """Golden-section minimizer of an array function on each bracket
    [lo_k, hi_k].  Every bracket follows the float sequence of a search on
    its own, and a finished bracket stops updating; ``fn`` is called once
    per step, at the brackets still running.  Returns the (x, fn(x))
    arrays."""
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = _on(fn, c).copy(), _on(fn, d).copy()
    run = b - a > tol * np.maximum(1.0, np.abs(a) + np.abs(b))
    while run.any():
        left = run & (fc < fd)
        right = run & ~left
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))[run]
        fx = _on(fn, x)
        c[left], fc[left] = x[left[run]], fx[left[run]]
        d[right], fd[right] = x[right[run]], fx[right[run]]
        run &= b - a > tol * np.maximum(1.0, np.abs(a) + np.abs(b))
    x = 0.5 * (a + b)
    return x, _on(fn, x)


def _min_periodic(V, period: float, n_seeds: int) -> float:
    """Global minimum of a periodic array function: coarse grid followed by
    golden-section refinement around the best few seeds, as one array of
    brackets."""
    xs = np.linspace(0.0, period, n_seeds, endpoint=False)
    vals = _on(V, xs)
    x0 = xs[np.argsort(vals)[: max(3, n_seeds // 64)]]
    h = period / n_seeds
    _, v = _golden_min(V, x0 - h, x0 + h)
    return float(min(vals.min(), v.min()))


def _bisect(f, target: float, lo: float, hi: float, tol: float) -> float:
    """Root of f(c) = target, f nondecreasing: hi grows by (hi - lo) + 1
    while f(hi) < target, then bisection runs until hi - lo < tol or no
    float lies strictly between lo and hi.  Returns the midpoint."""
    while f(hi) < target:
        hi += (hi - lo) + 1.0
    while hi - lo >= tol and math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sample_box(V, c1: float, gamma: float, quad_N: int, period: float):
    """Sample V once over the box; returns -min V and the map
    g(c) = (1/period) * integral ((V + c)/c1)^(1/gamma) on those samples."""
    c_flat = -_min_periodic(V, period, quad_N)
    xs, ws = gauss_legendre_panels(period, quad_N)
    Vx = _on(V, xs)

    def g(c: float) -> float:
        integrand = np.maximum(Vx + c, 0.0) / c1
        return float(np.dot(ws, integrand ** (1.0 / gamma))) / period

    return c_flat, g


def hbar_1d_first_order(V, c1: float, gamma: float, p,
                        quad_N: int = 256, period: float = 1.0):
    """Effective Hamiltonian of c1 |q|^gamma - V(x), A = 0, V periodic.

    Returns the flat value -min V when |p| <= g(-min V), otherwise the
    unique c >= -min V with g(c) = |p|, where
    g(c) = (1/period) * integral ((V + c)/c1)^(1/gamma).  ``p`` may also
    be a sequence of momenta; they share one sampling of V, and the
    constants come back as a list.
    """
    if quad_N < 256:
        raise ValueError("quad_N must be >= 256")
    c_flat, g = _sample_box(V, c1, gamma, quad_N, period)

    def solve(target: float) -> float:
        if target <= g(c_flat):
            return c_flat
        return _bisect(g, target, c_flat,
                       c_flat + max(1.0, c1 * target ** gamma + 1.0), 1e-10)

    if np.ndim(p) == 0:
        return solve(abs(p))
    return [solve(abs(q)) for q in p]


def flat_spot_halfwidth(V, c1: float, gamma: float, quad_N: int = 256,
                        period: float = 1.0) -> float:
    """g(c_flat): the momentum |p| below which the 1D effective Hamiltonian
    is flat."""
    c_flat, g = _sample_box(V, c1, gamma, quad_N, period)
    return g(c_flat)


def hbar_flat_spot_value(env: EnvironmentSample, box: float,
                         grid_N: int = 1024) -> tuple[float, float]:
    """Flat-spot value of the first-order family over a finite box.

    Returns (-min V, min V): both sign conventions, so the classical
    value -min V and the raw minimum can be compared directly.
    """
    if env.dimension == 1:
        raw = _min_periodic(lambda xs: eval_potential_points(env, xs[:, None]),
                            box, grid_N)
    else:
        xs = np.linspace(0.0, box, grid_N, endpoint=False)
        raw = float(eval_potential_points(env, lattice_points([xs, xs])).min())
    return -raw, raw


def fbar_linear_1d(a, f, P: float, quad_N: int = 256,
                   period: float = 1.0) -> float:
    """Effective constant of F(X, x) = -a(x) X + f(x) in 1D:
    (mean(f/a) - P) / mean(1/a)."""
    xs, ws = gauss_legendre_panels(period, quad_N)
    av, fv = _on(a, xs), _on(f, xs)
    mean_fa = float(np.dot(ws, fv / av)) / period
    mean_ia = float(np.dot(ws, 1.0 / av)) / period
    return (mean_fa - P) / mean_ia


def brute_force_min(fn, box, N: int = 256):
    """Grid minimum over [0, box]^d of a function of one point, followed
    by golden-section refinement in the winning cell (axis by axis for
    d = 2). Returns (value, point)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    box = np.atleast_1d(np.asarray(box, dtype=float))
    d = box.size

    def refine(f, lo, hi):  # one bracket, through a per-point adapter
        x, v = _golden_min(lambda ts: [f(t) for t in ts], [lo], [hi])
        return x[0], v[0]

    if d == 1:
        xs = np.linspace(0.0, box[0], N)
        vals = np.array([fn(x) for x in xs])
        i = int(np.argmin(vals))
        h = box[0] / (N - 1)
        x, v = refine(fn, max(0.0, xs[i] - h), min(box[0], xs[i] + h))
        if v <= vals[i]:
            return v, np.array([x])
        return float(vals[i]), np.array([xs[i]])
    xs = np.linspace(0.0, box[0], N)
    ys = np.linspace(0.0, box[1], N)
    grid = np.array([[fn(np.array([x, y])) for y in ys] for x in xs])
    i, j = np.unravel_index(int(np.argmin(grid)), grid.shape)
    hx, hy = box[0] / (N - 1), box[1] / (N - 1)
    px, py = xs[i], ys[j]
    best = float(grid[i, j])
    for _ in range(6):  # coordinate descent with golden section
        px, _ = refine(lambda x: fn(np.array([x, py])),
                       max(0.0, px - hx), min(box[0], px + hx))
        py, v = refine(lambda y: fn(np.array([px, y])),
                       max(0.0, py - hy), min(box[1], py + hy))
        best = min(best, v)
    return best, np.array([px, py])

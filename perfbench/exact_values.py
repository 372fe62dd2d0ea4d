"""Exact constants and reference values, computed apart from perhom.

Nothing here imports perhom.  The media are re-derived from their
definitions (splitmix64 cell hashing, the C^2 plateau kernel, Poisson
bumps) with vectorized numpy, the cutoff and the blend are re-derived from
their formulas, and every constant comes from closed forms, quadrature and
root finding.  The benchmark's correctness checks compare the program's
outputs with these values.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


# --- media ----------------------------------------------------------------

def splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 on uint64 values; the arithmetic wraps mod 2^64."""
    with np.errstate(over="ignore"):
        x = x + _GOLDEN
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def cell_hash(seed: int, *index: np.ndarray) -> np.ndarray:
    """Hash of lattice cells: seed chained with each signed index."""
    shape = np.broadcast(*index).shape
    h = splitmix64(np.full(shape, seed & (2 ** 64 - 1), dtype=np.uint64))
    for i in index:
        h = splitmix64(h ^ np.asarray(i, dtype=np.int64).astype(np.uint64))
    return h


def hash_to_unit(h: np.ndarray) -> np.ndarray:
    return (h >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def smoothstep(t):
    """Quintic smoothstep 6t^5 - 15t^4 + 10t^3."""
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_integral(t):
    """Integral of the smoothstep from 0 to t."""
    return t ** 4 * (2.5 + t * (-3.0 + t))


def kernel_cdf(s):
    """Integral over [-1, s] of the unit-mass plateau kernel: 2/3 on
    |s| <= 1/2, (2/3) smoothstep(2(1 - |s|)) on 1/2 < |s| < 1."""
    s = np.clip(s, -1.0, 1.0)
    left = _smoothstep_integral(2.0 * (1.0 + s)) / 3.0
    mid = 1.0 / 6.0 + (2.0 / 3.0) * (s + 0.5)
    right = 1.0 - _smoothstep_integral(2.0 * (1.0 - s)) / 3.0
    return np.where(s <= -0.5, left, np.where(s <= 0.5, mid, right))


def checkerboard(seed: int, vrange, rho: float, points: np.ndarray) -> np.ndarray:
    """Mollified checkerboard on unit cells at points of shape (n, d)."""
    vmin, vmax = vrange
    d = points.shape[1]
    cells = np.floor(points).astype(np.int64)
    loc = points - cells
    # per-axis kernel mass of the own cell and its two neighbours
    masses = [kernel_cdf((di + 1 - loc) / rho) - kernel_cdf((di - loc) / rho)
              for di in (-1, 0, 1)]
    num = np.zeros(len(points))
    den = np.zeros(len(points))
    offsets = [(a,) for a in (0, 1, 2)] if d == 1 else \
        [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)]
    for off in offsets:
        w = np.ones(len(points))
        for ax, k in enumerate(off):
            w = w * masses[k][:, ax]
        u = hash_to_unit(cell_hash(seed, *(cells[:, ax] + k - 1
                                         for ax, k in enumerate(off))))
        num += w * (vmin + (vmax - vmin) * u)
        den += w
    return num / den


def _poisson_count(u: float, intensity: float, cap: int) -> int:
    p = math.exp(-intensity)
    cdf, k = p, 0
    while u > cdf and k < cap:
        k += 1
        p *= intensity / k
        cdf += p
    return k


def poisson_bumps(seed: int, vrange, bump: dict, points: np.ndarray) -> np.ndarray:
    """2D Poisson cloud of C^2 bumps on unit cells at points of shape (n, 2)."""
    vmin, vmax = vrange
    amp = float(bump.get("amplitude", vmax - vmin))
    radius = float(bump["radius"])
    intensity = float(bump.get("intensity", 1.0))
    cap = int(bump.get("max_per_cell", 4))
    reach = int(math.ceil(radius))
    lo = np.floor(points.min(axis=0)).astype(int) - reach
    hi = np.floor(points.max(axis=0)).astype(int) + reach
    total = np.zeros(len(points))
    for i in range(lo[0], hi[0] + 1):
        for j in range(lo[1], hi[1] + 1):
            h = cell_hash(seed, np.int64(i), np.int64(j))
            n = _poisson_count(float(hash_to_unit(h)), intensity, cap)
            for k in range(n):
                cx = (i + float(hash_to_unit(splitmix64(h ^ np.uint64(2 * k + 1)))))
                cy = (j + float(hash_to_unit(splitmix64(h ^ np.uint64(2 * k + 2)))))
                dist = np.hypot(points[:, 0] - cx, points[:, 1] - cy) / radius
                total += amp * np.where(dist >= 1.0, 0.0,
                                        smoothstep(np.clip(1.0 - dist, 0.0, 1.0)))
    return np.minimum(vmin + total, vmax)


def medium(env: dict, seed: int, points: np.ndarray) -> np.ndarray:
    """V at points (n, d) for an EnvSpec-style dict with unit cells."""
    kind = env["kind"]
    vmin, vmax = env["value_range"]
    if env.get("cell_size", 1.0) != 1.0:
        raise ValueError("only unit cells are re-derived")
    if kind == "checkerboard":
        return checkerboard(seed, (vmin, vmax), env["mollify_radius"], points)
    if kind == "poisson_bump":
        return poisson_bumps(seed, (vmin, vmax), env["bump"], points)
    if kind == "cosine":
        return 0.5 * (vmin + vmax) + 0.5 * (vmax - vmin) * np.cos(2.0 * np.pi * points[:, 0])
    raise ValueError(f"unknown medium {kind!r}")


# --- periodization --------------------------------------------------------

def cutoff(eta: float, y: np.ndarray) -> np.ndarray:
    """zeta at points y (n, d) in units of the period: 0 on the inner cube
    |y - round(y)|_inf <= 1/2 - eta, 1 beyond 1/2 - eta/2."""
    r = y - np.round(y)
    m = np.max(np.abs(r), axis=1)
    return smoothstep(np.clip((m - (0.5 - eta)) / (eta / 2.0), 0.0, 1.0))


def reduce_to_cell(L: float, points: np.ndarray) -> np.ndarray:
    return points - L * np.round(points / L)


def h0_constant(c_struct: float, c_corr: float, gamma: float) -> float:
    """Blend-target constant C_H0 of the standard coercive member."""
    k = 2.0 ** (gamma - 1.0) * c_corr ** gamma
    return max(k * c_struct, k + c_struct)


def blended_hjb(V: np.ndarray, zeta: np.ndarray, c1: float, h0: float):
    """(c1_L, V_L) of H_L = (1 - zeta) (c1 |q|^g - V) + zeta (|q|^g / h0 - h0)."""
    return (1.0 - zeta) * c1 + zeta / h0, (1.0 - zeta) * V + zeta * h0


def torus_nodes(L: float, n: int, d: int) -> np.ndarray:
    """Nodes i * L / n of the d-dimensional torus grid, row-major, (n^d, d)."""
    ax = (L / n) * np.arange(n)
    if d == 1:
        return ax[:, None]
    return np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)


def cell_points(L: float, m: int, d: int) -> np.ndarray:
    """Midpoint-rule points of the cell [-L/2, L/2)^d, m per unit length."""
    n = int(round(m * L))
    ax = -0.5 * L + (np.arange(n) + 0.5) * (L / n)
    if d == 1:
        return ax[:, None]
    return np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)


# --- first-order 1D effective Hamiltonian ----------------------------------

def hbar_1d(V: np.ndarray, c1: np.ndarray, gamma: float, p: float) -> float:
    """Effective constant of c1(x)|q|^gamma - V(x) from equal-weight samples
    of one period: -min V when |p| <= mean(((V - min V)/c1)^(1/gamma)),
    otherwise the root c of mean(((V + c)/c1)^(1/gamma)) = |p|."""
    flat = -float(V.min())
    target = abs(p)
    if target <= flat_halfwidth(V, c1, gamma):
        return flat

    def g(c):
        return float(np.mean((np.maximum(V + c, 0.0) / c1) ** (1.0 / gamma)))

    hi = flat + 1.0
    while g(hi) < target:
        hi = flat + 2.0 * (hi - flat)
    return brentq(lambda c: g(c) - target, flat, hi, xtol=1e-13, rtol=1e-14)


def flat_halfwidth(V: np.ndarray, c1, gamma: float) -> float:
    """mean(((V - min V)/c1)^(1/gamma)): the end of the flat spot."""
    return float(np.mean(((V - V.min()) / c1) ** (1.0 / gamma)))


def grid_min_tolerance(vrange, rho: float, h: float) -> float:
    """Largest gap between a grid minimum at spacing h and the true minimum
    of a mollified checkerboard: |V''| <= osc * max|k'| / rho^2, with
    max|k'| = (4/3) * 15/8, and the nearest node lies within h/2."""
    osc = vrange[1] - vrange[0]
    return 0.5 * osc * 2.5 / rho ** 2 * (0.5 * h) ** 2


# --- linear elliptic ------------------------------------------------------

def linear_constant(a: np.ndarray, f: np.ndarray, trP: float) -> float:
    """Constant of -a(x)(Delta chi + tr P) + f(x) = c from equal-weight
    samples: (mean(f/a) - tr P) / mean(1/a).  Over the nodes of the
    5-point scheme this is an identity of the discrete problem; over a fine
    quadrature it is the continuum constant."""
    return (float(np.mean(f / a)) - trP) / float(np.mean(1.0 / a))


def coefficient(desc: dict, V: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """An EllipticSpec coefficient descriptor evaluated from V and x_1."""
    if "const" in desc:
        return np.full(x1.shape, float(desc["const"]))
    if "affine_of_V" in desc:
        k, b = desc["affine_of_V"]
        return k * V + b
    if "inv_cos" in desc:
        (amp,) = desc["inv_cos"]
        return 1.0 / (1.0 + amp * np.cos(2.0 * np.pi * x1))
    if "cos" in desc:
        b, amp = desc["cos"]
        return b + amp * np.cos(2.0 * np.pi * x1)
    raise ValueError(f"unknown descriptor {desc}")

"""Seeded stationary random media with exact shift covariance.

Three families of bounded random potentials on R^d (d in {1, 2}):

* ``constant`` -- V identically equal to the midpoint of the value range,
* ``cosine`` -- deterministic benchmark V = mid + amp cos(2 pi x_1 / cs),
  spanning the value range; the classical explicitly solvable case,
* ``checkerboard`` -- i.i.d. uniform draws per unit lattice cell, optionally
  mollified by a C^2 bump kernel of radius ``mollify_radius``,
* ``poisson_bump`` -- a Poisson cloud of compactly supported C^2 bumps.

All randomness is derived from a 64-bit seed through the splitmix64
avalanche mix, so every evaluation is a pure function of
(spec, seed, lattice_offset, x) and is bit-identical across runs and
platforms.  Lattice shifts act exactly on the cell indices, which gives
exact (bit-level) shift covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

__all__ = [
    "EnvSpec",
    "EnvironmentSample",
    "sample_env",
    "eval_potential",
    "shift_env",
    "eval_sigma",
    "dependence_range",
]

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One step of the splitmix64 avalanche function (scalar)."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def cell_hash(seed: int, index: tuple[int, ...]) -> int:
    """Hash of a lattice cell: chain seed with each (signed) index coordinate."""
    h = splitmix64(seed & _MASK)
    for i in index:
        h = splitmix64(h ^ (i & _MASK))
    return h


def _hash_to_unit(h: int) -> float:
    """Map a 64-bit hash to a uniform double in [0, 1)."""
    return (h >> 11) * (1.0 / (1 << 53))


def cell_uniform(seed: int, index: tuple[int, ...], stream: int = 0) -> float:
    """Uniform draw in [0,1) attached to a lattice cell (sub-stream ``stream``)."""
    h = cell_hash(seed, index)
    if stream:
        h = splitmix64(h ^ (stream & _MASK))
    return _hash_to_unit(h)


# --- mollification kernel: C^2 plateau bump on [-1, 1] --------------------

# quintic smoothstep s(t) = 6t^5 - 15t^4 + 10t^3 on [0,1]
def smoothstep(t):
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _kernel(t):
    """Normalized C^2 bump: 1 on |t|<=1/2, smoothstep decay to 0 at |t|=1.

    Integral over [-1,1] equals 3/2 before normalization, so the factor is
    2/3 and max |k| = 2/3, which keeps the Lipschitz constant of the
    mollified field below osc(V)/rho.
    """
    u = np.abs(t)
    out = np.where(u <= 0.5, 1.0, smoothstep(np.clip(2.0 * (1.0 - u), 0.0, 1.0)))
    return (2.0 / 3.0) * np.where(u >= 1.0, 0.0, out)


# 5-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_X = np.array([
    -0.9061798459386640, -0.5384693101056831, 0.0,
    0.5384693101056831, 0.9061798459386640,
])
_GL_W = np.array([
    0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
    0.4786286704993665, 0.2369268850561891,
])


def gauss_legendre_panels(period: float, n_panels: int):
    """Nodes and weights of composite 5-point Gauss-Legendre quadrature
    on ``n_panels`` equal panels of [0, period]."""
    edges = np.linspace(0.0, period, n_panels + 1)
    halves = 0.5 * np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    xs = (mids[:, None] + halves[:, None] * _GL_X[None, :]).ravel()
    ws = (halves[:, None] * _GL_W[None, :]).ravel()
    return xs, ws


def _kernel_mass(lo: float, hi: float) -> float:
    """Integral of the kernel over [lo, hi], exact via piecewise Gauss-5.

    The kernel is piecewise polynomial with breakpoints at +-1/2 and +-1;
    splitting there makes 5-point Gauss exact (degree 5 < 9).
    """
    lo = max(lo, -1.0)
    hi = min(hi, 1.0)
    if hi <= lo:
        return 0.0
    pts = [lo] + [b for b in (-0.5, 0.5) if lo < b < hi] + [hi]
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        total += half * float(np.dot(_GL_W, _kernel(mid + half * _GL_X)))
    return total


@dataclass(frozen=True)
class EnvSpec:
    """Static description of a random-medium family.

    ``value_range`` bounds the potential, ``cell_size`` is the pitch of the
    underlying i.i.d. lattice, ``mollify_radius`` smooths the checkerboard,
    and ``bump`` configures the poisson_bump family
    (keys: amplitude, radius, intensity, max_per_cell).
    ``sigma`` is an affine map v -> slope*v + offset from potential values
    to the scalar diffusion factor, with a declared Lipschitz cap.
    """

    kind: str
    dimension: int
    value_range: tuple[float, float]
    cell_size: float = 1.0
    mollify_radius: float = 0.0
    bump: dict = field(default_factory=dict)
    sigma: dict = field(default_factory=lambda: {"slope": 0.0, "offset": 0.0, "lipschitz_cap": 0.0})

    def __post_init__(self):
        if self.kind not in ("constant", "cosine", "checkerboard", "poisson_bump"):
            raise ValueError(f"unknown environment kind {self.kind!r}")
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        vmin, vmax = self.value_range
        if vmin > vmax:
            raise ValueError("empty value range")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if self.mollify_radius < 0:
            raise ValueError("mollify_radius must be nonnegative")
        if self.mollify_radius >= self.cell_size / 2:
            raise ValueError("mollify_radius must be < cell_size/2")
        if self.kind == "poisson_bump":
            r = self.bump.get("radius", 0.0)
            if not 0 < r <= self.cell_size / 2:
                raise ValueError("bump radius must lie in (0, cell_size/2]")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "value_range": list(self.value_range),
            "cell_size": self.cell_size,
            "mollify_radius": self.mollify_radius,
            "bump": dict(self.bump),
            "sigma": dict(self.sigma),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "EnvSpec":
        return cls(
            kind=obj["kind"],
            dimension=int(obj["dimension"]),
            value_range=tuple(obj["value_range"]),
            cell_size=float(obj.get("cell_size", 1.0)),
            mollify_radius=float(obj.get("mollify_radius", 0.0)),
            bump=dict(obj.get("bump", {})),
            sigma=dict(obj.get("sigma", {"slope": 0.0, "offset": 0.0, "lipschitz_cap": 0.0})),
        )


@dataclass(frozen=True)
class EnvironmentSample:
    """A realization of the medium; ``lattice_offset`` carries the shift."""

    spec: EnvSpec
    seed: int
    lattice_offset: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return self.spec.dimension


def sample_env(spec: EnvSpec, seed: int) -> EnvironmentSample:
    """Realize the medium for a given seed (offset 0)."""
    return EnvironmentSample(spec=spec, seed=int(seed) & _MASK,
                             lattice_offset=(0,) * spec.dimension)


def shift_env(env: EnvironmentSample, z) -> EnvironmentSample:
    """Shift the sample by the integer lattice vector ``z`` (in cell units)."""
    z = tuple(int(zi) for zi in np.atleast_1d(z))
    if len(z) != env.dimension:
        raise ValueError("shift vector has wrong dimension")
    off = tuple(a + b for a, b in zip(env.lattice_offset, z))
    return EnvironmentSample(spec=env.spec, seed=env.seed, lattice_offset=off)


def _cell_value(env: EnvironmentSample, index: tuple[int, ...]) -> float:
    """Uniform draw of a checkerboard cell mapped into the value range."""
    vmin, vmax = env.spec.value_range
    shifted = tuple(i + o for i, o in zip(index, env.lattice_offset))
    return vmin + (vmax - vmin) * cell_uniform(env.seed, shifted)


def _split_coords(env: EnvironmentSample, x) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Cell index and local coordinate of a point, offset not yet applied."""
    cs = env.spec.cell_size
    idx, loc = [], []
    for xi in x:
        i = math.floor(xi / cs)
        idx.append(int(i))
        loc.append(xi - i * cs)
    return tuple(idx), tuple(loc)


def _checkerboard_value(env: EnvironmentSample, x: tuple[float, ...]) -> float:
    spec = env.spec
    rho = spec.mollify_radius
    idx, loc = _split_coords(env, x)
    if rho == 0.0:
        return _cell_value(env, idx)
    # separable kernel: per-axis mass of each overlapped cell, then a
    # normalized tensor-product average of the per-cell draws
    cs = spec.cell_size
    axis_masses = []
    for d in range(spec.dimension):
        # overlap with own cell [0, cs) and the two neighbours, in kernel units
        t = loc[d]
        masses = {}
        for di in (-1, 0, 1):
            a = (di * cs - t) / rho
            b = ((di + 1) * cs - t) / rho
            m = _kernel_mass(a, b)
            if m > 0.0:
                masses[di] = m
        axis_masses.append(masses)
    num = 0.0
    den = 0.0
    if spec.dimension == 1:
        for di, m in axis_masses[0].items():
            num += m * _cell_value(env, (idx[0] + di,))
            den += m
    else:
        for di, mi in axis_masses[0].items():
            for dj, mj in axis_masses[1].items():
                w = mi * mj
                num += w * _cell_value(env, (idx[0] + di, idx[1] + dj))
                den += w
    return num / den


def _bump_profile(t):
    """C^2 unit bump on [-1,1] with b(0)=1 (quintic smoothstep shoulder)."""
    u = np.abs(t)
    return np.where(u >= 1.0, 0.0, smoothstep(np.clip(1.0 - u, 0.0, 1.0)))


def _poisson_count(u: float, intensity: float, cap: int) -> int:
    """Inverse-CDF Poisson draw truncated at ``cap`` bumps per cell."""
    p = math.exp(-intensity)
    cdf = p
    k = 0
    while u > cdf and k < cap:
        k += 1
        p *= intensity / k
        cdf += p
    return k


def _poisson_bump_value(env: EnvironmentSample, x: tuple[float, ...]) -> float:
    spec = env.spec
    vmin, vmax = spec.value_range
    amp = float(spec.bump.get("amplitude", vmax - vmin))
    radius = float(spec.bump["radius"])
    intensity = float(spec.bump.get("intensity", 1.0))
    cap = int(spec.bump.get("max_per_cell", 4))
    cs = spec.cell_size
    idx, _ = _split_coords(env, x)
    reach = int(math.ceil(radius / cs))
    total = 0.0
    dim = spec.dimension
    ranges = [range(i - reach, i + reach + 1) for i in idx]
    cells = [(i,) for i in ranges[0]] if dim == 1 else [
        (i, j) for i in ranges[0] for j in ranges[1]]
    for cell in cells:
        shifted = tuple(c + o for c, o in zip(cell, env.lattice_offset))
        h = cell_hash(env.seed, shifted)
        n = _poisson_count(_hash_to_unit(h), intensity, cap)
        for k in range(n):
            center = []
            for d in range(dim):
                u = _hash_to_unit(splitmix64(h ^ ((2 * k + d + 1) & _MASK)))
                center.append((cell[d] + u) * cs)
            dist = math.sqrt(sum((x[d] - center[d]) ** 2 for d in range(dim)))
            total += amp * float(_bump_profile(dist / radius))
    return min(vmin + total, vmax)


def eval_potential(env: EnvironmentSample, x) -> float:
    """Potential value V(x); always inside the declared value range."""
    x = tuple(float(v) for v in np.atleast_1d(x))
    if len(x) != env.dimension:
        raise ValueError("point has wrong dimension")
    spec = env.spec
    vmin, vmax = spec.value_range
    if spec.kind == "constant":
        return 0.5 * (vmin + vmax)
    if spec.kind == "cosine":
        t = (x[0] + env.lattice_offset[0] * spec.cell_size) / spec.cell_size
        return 0.5 * (vmin + vmax) + 0.5 * (vmax - vmin) * math.cos(2.0 * math.pi * t)
    if spec.kind == "checkerboard":
        return _checkerboard_value(env, x)
    return _poisson_bump_value(env, x)


def lattice_points(axes: list[np.ndarray]) -> np.ndarray:
    """Rows of the tensor product of d coordinate arrays, row-major:
    an array of shape (n_1 * ... * n_d, d)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def eval_potential_points(env: EnvironmentSample, points) -> np.ndarray:
    """V at each row of an (n, d) array of points, one ``eval_potential``
    call per point."""
    return np.array([eval_potential(env, x) for x in points])


def eval_potential_grid(env: EnvironmentSample, axes: list[np.ndarray]) -> np.ndarray:
    """Potential sampled on a tensor grid (d arrays of coordinates)."""
    return eval_potential_points(env, lattice_points(axes)).reshape(
        tuple(a.size for a in axes))


def sigma_of_potential(env: EnvironmentSample, v):
    """Scalar factor slope*v + offset of Sigma where the potential is v
    (a number or an array of samples)."""
    s = env.spec.sigma
    return s.get("slope", 0.0) * v + s.get("offset", 0.0)


def eval_sigma(env: EnvironmentSample, x) -> np.ndarray:
    """Diffusion factor Sigma(x) = (slope*V(x)+offset) * I_d."""
    return sigma_scalar(env, x) * np.eye(env.dimension)


def sigma_scalar(env: EnvironmentSample, x) -> float:
    """Scalar factor of Sigma (Sigma is a multiple of the identity)."""
    return sigma_of_potential(env, eval_potential(env, x))


def dependence_range(env: EnvironmentSample) -> float:
    """Finite dependence range D of the medium."""
    spec = env.spec
    if spec.kind == "constant":
        return 0.0
    if spec.kind == "cosine":
        return spec.cell_size
    if spec.kind == "checkerboard":
        return spec.cell_size + 2.0 * spec.mollify_radius
    return 2.0 * float(spec.bump["radius"])


def potential_lipschitz_bound(env: EnvironmentSample) -> float:
    """Declared Lipschitz constant of V for this family."""
    spec = env.spec
    vmin, vmax = spec.value_range
    if spec.kind == "constant":
        return 0.0
    if spec.kind == "cosine":
        return math.pi * (vmax - vmin) / spec.cell_size
    if spec.kind == "checkerboard":
        if spec.mollify_radius == 0.0:
            return math.inf
        return (vmax - vmin) / spec.mollify_radius
    amp = float(spec.bump.get("amplitude", vmax - vmin))
    cap = int(spec.bump.get("max_per_cell", 4))
    radius = float(spec.bump["radius"])
    reach = int(math.ceil(radius / spec.cell_size))
    n_cells = (2 * reach + 1) ** spec.dimension
    # smoothstep max slope 15/8 per bump, all overlapping bumps may align
    return 1.875 * amp / radius * cap * n_cells

"""Seeded stationary random media with exact shift covariance.

Four families of bounded random potentials on R^d (d in {1, 2}):

* ``constant`` -- V identically equal to the midpoint of the value range,
* ``cosine`` -- deterministic benchmark V = mid + amp cos(2 pi x_1 / cs),
  spanning the value range; the classical explicitly solvable case,
* ``checkerboard`` -- i.i.d. uniform draws per unit lattice cell, optionally
  mollified by a C^2 bump kernel of radius ``mollify_radius``,
* ``poisson_bump`` -- a Poisson cloud of compactly supported C^2 bumps.

All randomness is derived from a 64-bit seed through the splitmix64
avalanche mix, hashed over uint64 arrays, so every evaluation is a pure
function of (spec, seed, lattice_offset, x).  ``eval_potential_points``
is the one implementation: it evaluates an (n, d) array of points, and
``eval_potential`` is its one-row call.  Samples are built from
elementwise IEEE operations only, with no BLAS reduction, so a point's
value does not depend on the other rows.  Lattice shifts act exactly on
the cell indices, which gives exact (bit-level) shift covariance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
import math

import numpy as np

__all__ = [
    "EnvSpec",
    "EnvironmentSample",
    "sample_env",
    "eval_potential",
    "eval_potential_points",
    "shift_env",
    "eval_sigma",
    "dependence_range",
]

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x):
    """The splitmix64 avalanche step on uint64 values (an array or a
    number); the arithmetic wraps mod 2^64."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):  # a 0-d multiply warns where arrays wrap
        x = x + _GOLDEN
        x = (x ^ (x >> 30)) * _MIX1
        x = (x ^ (x >> 27)) * _MIX2
    return x ^ (x >> 31)


def _cell_hash(seed: int, cells):
    """Hash of lattice cells, given as rows of d signed indices (an integer
    array of shape (..., d)): the seed chained with each index."""
    cells = np.asarray(cells, dtype=np.int64)
    h = splitmix64(seed)
    for a in range(cells.shape[-1]):
        h = splitmix64(h ^ cells[..., a].astype(np.uint64))
    return h


def _to_unit(h):
    """Map 64-bit hashes to uniform doubles in [0, 1)."""
    return (h >> 11).astype(np.float64) * (1.0 / (1 << 53))


def cell_uniform(seed: int, cells):
    """Uniform draw in [0,1) attached to each lattice cell (rows of d
    signed indices)."""
    return _to_unit(_cell_hash(seed, cells))


# --- mollification kernel: C^2 plateau bump on [-1, 1] --------------------

# quintic smoothstep s(t) = 6t^5 - 15t^4 + 10t^3 on [0,1]
def smoothstep(t):
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _kernel_tail(s):
    """Mass beyond s >= 0 (an array) of the unit-mass C^2 plateau kernel:
    2/3 on |t| <= 1/2, (2/3) smoothstep(2(1 - |t|)) on 1/2 < |t| < 1, 0
    beyond.  Its maximum 2/3 keeps the Lipschitz constant of the mollified
    field below osc(V)/rho.  The smoothstep integrates to
    u^4 (5/2 - 3u + u^2)."""
    s = np.minimum(s, 1.0)
    u = 2.0 * (1.0 - s)
    return np.where(s <= 0.5, 1.0 / 6.0 + (2.0 / 3.0) * (0.5 - s),
                    u ** 4 * (2.5 + u * (-3.0 + u)) / 3.0)


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


class JsonFields:
    """The JSON form of a dataclass, read off its fields: ``to_json``
    writes every field, and ``from_json`` converts each field ``obj``
    names to its annotated type and leaves the others at their defaults.
    A key that names no field is an error."""

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict):
        import typing
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(obj) - set(names))
        if unknown:
            raise ValueError(f"{cls.__name__} has no fields {unknown}")
        hints = typing.get_type_hints(cls)
        return cls(**{k: _from_json(hints[k], obj[k]) for k in names if k in obj})


def _from_json(kind, value):
    """``value`` as the annotation ``kind``; ``str | None`` keeps it."""
    origin, args = getattr(kind, "__origin__", kind), getattr(kind, "__args__", ())
    if origin in (list, tuple):
        return origin(_from_json(args[0], v) for v in value) if args else origin(value)
    if origin in (int, float, str, dict):
        return origin(value)
    if hasattr(origin, "from_json"):
        return origin.from_json(value)
    return value


@dataclass(frozen=True)
class EnvSpec(JsonFields):
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


def lattice_points(axes: list[np.ndarray]) -> np.ndarray:
    """Rows of the tensor product of d coordinate arrays, row-major:
    an array of shape (n_1 * ... * n_d, d)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# offsets of a cell and its lattice neighbours, row-major, per dimension
_NEAR = {d: lattice_points([np.arange(-1, 2)] * d).astype(np.int64) for d in (1, 2)}


def _checkerboard(env: EnvironmentSample, cells: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Checkerboard at points in lattice ``cells`` (offset applied) with
    local coordinates ``t``, both (n, d)."""
    spec = env.spec
    vmin, vmax = spec.value_range
    rho = spec.mollify_radius
    if rho == 0.0:
        return vmin + (vmax - vmin) * cell_uniform(env.seed, cells)
    # separable kernel of radius rho < cs/2: on each axis it reaches the
    # two neighbours only, with the tails beyond the cell edges as masses
    lo, hi = _kernel_tail(np.array([t, spec.cell_size - t]) / rho)
    mass = np.empty(t.shape + (3,))
    mass[..., 0], mass[..., 1], mass[..., 2] = lo, (1.0 - lo) - hi, hi
    # tensor product over the axes, then the normalized average of draws;
    # Python's sum adds the cells in order, so no row depends on the others
    near = _NEAR[spec.dimension]
    w = 1.0
    for a in range(spec.dimension):
        w = w * mass[:, a, near[:, a] + 1]
    v = vmin + (vmax - vmin) * cell_uniform(env.seed, cells[:, None, :] + near)
    return sum((w * v).T) / sum(w.T)


def _poisson_bumps(env: EnvironmentSample, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Poisson cloud of C^2 unit bumps (quintic smoothstep shoulder) at
    points ``x`` with cell indices ``idx`` (offset not applied), both (n, d)."""
    spec = env.spec
    vmin, vmax = spec.value_range
    amp = float(spec.bump.get("amplitude", vmax - vmin))
    radius = float(spec.bump["radius"])
    intensity = float(spec.bump.get("intensity", 1.0))
    cap = int(spec.bump.get("max_per_cell", 4))
    # inverse-CDF Poisson count truncated at ``cap``: the number of table
    # entries below a cell's draw
    pmf = np.cumprod([math.exp(-intensity)] + [intensity / k for k in range(1, cap)])
    cdf = np.cumsum(pmf)[:cap]
    # every bump k < cap of the own cell and its neighbours (radius <=
    # cs/2 reaches no further), shape (n, cells, cap); absent bumps add an
    # exact 0.0, in the order cells, then k
    near = _NEAR[spec.dimension]
    cell = idx[:, None, :] + near
    h = _cell_hash(env.seed, cell + env.lattice_offset)
    count = np.searchsorted(cdf, _to_unit(h))
    streams = (2 * np.arange(cap)[:, None] + np.arange(1, spec.dimension + 1)).astype(np.uint64)
    center = (cell[:, :, None, :] + _to_unit(splitmix64(h[..., None, None] ^ streams))) * spec.cell_size
    # libm pow, as a float's ** 2, where ndarray ** 2 is x * x
    u = np.sqrt(np.float_power(x[:, None, None, :] - center, 2).sum(axis=-1)) / radius
    bump = np.where((np.arange(cap) < count[..., None]) & (u < 1.0), amp * smoothstep(1.0 - u), 0.0)
    total = sum(bump.reshape(len(x), len(near) * cap).T, np.zeros(len(x)))
    return np.minimum(vmin + total, vmax)


def eval_potential_points(env: EnvironmentSample, points) -> np.ndarray:
    """V at each row of an (n, d) array of points; always inside the
    declared value range.  Every family is elementwise: a point's value
    does not depend on the other rows."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != env.dimension:
        raise ValueError("points must be an (n, d) array of the medium's dimension")
    spec = env.spec
    vmin, vmax = spec.value_range
    if spec.kind == "constant":
        return np.full(len(x), 0.5 * (vmin + vmax))
    if spec.kind == "cosine":
        t = (x[:, 0] + env.lattice_offset[0] * spec.cell_size) / spec.cell_size
        return 0.5 * (vmin + vmax) + 0.5 * (vmax - vmin) * np.cos(2.0 * np.pi * t)
    i = np.floor(x / spec.cell_size)
    idx = i.astype(np.int64)
    if spec.kind == "checkerboard":
        return _checkerboard(env, idx + env.lattice_offset, x - i * spec.cell_size)
    return _poisson_bumps(env, idx, x)


def eval_potential(env: EnvironmentSample, x) -> float:
    """Potential value V(x) at one point: a one-row ``eval_potential_points``."""
    return float(eval_potential_points(env, np.reshape(np.asarray(x, dtype=float), (1, -1)))[0])


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

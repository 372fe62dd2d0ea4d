"""Operator families H, A, F and numerical checks of their standing assumptions.

The Hamiltonian family is the power-minus-potential class
``H(p, x) = c1 |p|^gamma - V(x)`` with diffusion ``A = Sigma Sigma^T`` and
``Sigma`` a scalar multiple of the identity derived from the medium.  The
elliptic family is either linear, ``F(X, x) = -a(x) tr(X) + f(x)``, or a
finite Bellman max of such linear operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .environment import (
    EnvironmentSample,
    JsonFields,
    eval_potential_points,
    sigma_of_potential,
)

__all__ = [
    "StructuralConstants",
    "HamiltonianSpec",
    "EllipticSpec",
    "eval_H",
    "eval_A",
    "eval_F",
    "verify_structure",
]


@dataclass(frozen=True)
class StructuralConstants(JsonFields):
    """Declared structural constants of an operator family.

    ``c_struct`` is the coercivity/Lipschitz constant, ``gamma`` the
    coercivity exponent, ``c_corr`` the corrector gradient constant
    (||Dv + p|| <= c_corr (|p|+1)), ``lambda_bar < Lambda_bar`` the
    ellipticity constants, ``c_bar`` bounds |F(0,0)| and ``rho_slope`` is
    the slope of the linear continuity modulus.
    """

    c_struct: float = 1.0
    gamma: float = 2.0
    c_corr: float = 1.0
    lambda_bar: float = 1.0
    Lambda_bar: float = 2.0
    c_bar: float = 1.0
    rho_slope: float = 1.0

    def __post_init__(self):
        if self.c_struct < 1:
            raise ValueError("c_struct must be >= 1")
        if self.gamma <= 1:
            raise ValueError("gamma must be > 1")
        if self.c_corr < 1:
            raise ValueError("c_corr must be >= 1")
        if not 0 < self.lambda_bar < self.Lambda_bar:
            raise ValueError("need 0 < lambda_bar < Lambda_bar")


@dataclass(frozen=True)
class HamiltonianSpec:
    """H(p, x) = c1 |p|^gamma - V(x) with A = (sigma-factor)^2 I."""

    env: EnvironmentSample
    c1: float
    gamma: float
    constants: StructuralConstants

    def __post_init__(self):
        if self.c1 <= 0:
            raise ValueError("c1 must be positive")
        if not 1 < self.gamma <= 2:
            raise ValueError("gamma must lie in (1, 2]")

    @property
    def dimension(self) -> int:
        return self.env.dimension

    def coefficients(self, points):
        """(c1, V, a) at each row of an (n, d) array of points, with A = a I:
        V is sampled once per point, and a = sigma^2 is taken from that
        sample."""
        V = eval_potential_points(self.env, points)
        return (np.full(V.shape, float(self.c1)), V,
                sigma_of_potential(self.env, V) ** 2)


@dataclass(frozen=True)
class EllipticSpec:
    """Linear or Bellman elliptic family with env-derived coefficients.

    ``family`` is "linear" or "bellman".  Each control is a dict with keys

    * ``matrix`` -- constant SPD base matrix M (row-major list),
    * ``a`` -- coefficient descriptor for the scalar multiplier a(x),
    * ``f`` -- descriptor for the source term f(x).

    Descriptors: {"const": v} | {"affine_of_V": [k, b]} (k*V(x)+b) |
    {"inv_cos": [amp]} (1/(1+amp*cos(2 pi x_1))) | {"cos": [b, amp]}
    (b + amp*cos(2 pi x_1)).  The linear family is the one-control case
    with M = I.
    """

    env: EnvironmentSample | None
    family: str
    controls: tuple = ()
    constants: StructuralConstants = field(default_factory=StructuralConstants)
    dimension: int = 1

    def __post_init__(self):
        if self.family not in ("linear", "bellman"):
            raise ValueError("family must be 'linear' or 'bellman'")
        if not self.controls:
            raise ValueError("need at least one control")
        if len(self.controls) > 8:
            raise ValueError("at most 8 controls")

    def coefficients(self, points):
        """Per control, (A(x), f(x)) at each row of an (n, d) array of
        points, as arrays of shape (n, d, d) and (n,).  V is sampled once
        per point, and only when a descriptor needs it."""
        points = np.asarray(points, dtype=float)
        d = self.dimension
        uses_V = any("affine_of_V" in ctl["a"] or "affine_of_V" in ctl.get("f", {})
                     for ctl in self.controls)
        V = eval_potential_points(self.env, points) if uses_V else None
        out = []
        for ctl in self.controls:
            m = np.array(ctl.get("matrix", np.eye(d).tolist()), dtype=float).reshape(d, d)
            a = _coefficient(ctl["a"], V, points[:, 0])
            f = _coefficient(ctl.get("f", {"const": 0.0}), V, points[:, 0])
            out.append((a[:, None, None] * m, f))
        return out


def _coefficient(desc: dict, V, x1: np.ndarray) -> np.ndarray:
    """A coefficient descriptor at points with potential V and first
    coordinate x1."""
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
    raise ValueError(f"unknown coefficient descriptor {desc}")


def _one_point(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))[None, :]


def control_coefficients(spec, x) -> list[tuple[np.ndarray, float]]:
    """Per-control (A_alpha(x), f_alpha(x)) at a point of an elliptic spec
    or its periodization."""
    return [(a[0], float(f[0])) for a, f in spec.coefficients(_one_point(x))]


def eval_H(spec, p, x) -> float:
    """H(p, x) = c1(x) |p|^gamma - V(x), from the coefficients at x of a
    Hamiltonian spec or its periodization."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    c1, V, _ = spec.coefficients(_one_point(x))
    return float(c1[0] * float(np.linalg.norm(p)) ** spec.gamma - V[0])


def eval_A(spec, x) -> np.ndarray:
    """A(x) = a(x) I = Sigma(x) Sigma(x)^T."""
    return spec.coefficients(_one_point(x))[2][0] * np.eye(spec.dimension)


def eval_F(spec, X, x) -> float:
    """F(X, x) = max over controls of (-tr(A_alpha X) - f_alpha)."""
    X = np.asarray(X, dtype=float).reshape(spec.dimension, spec.dimension)
    vals = [-float(np.trace(a_mat @ X)) - f for a_mat, f in control_coefficients(spec, x)]
    return max(vals)


def _negate_desc(desc: dict) -> dict:
    if "const" in desc:
        return {"const": -float(desc["const"])}
    if "affine_of_V" in desc:
        k, b = desc["affine_of_V"]
        return {"affine_of_V": [-k, -b]}
    if "cos" in desc:
        b, amp = desc["cos"]
        return {"cos": [-b, -amp]}
    raise ValueError(f"cannot negate descriptor {desc}")


def linear_elliptic_spec(env, a_desc: dict, f_desc: dict,
                         constants: StructuralConstants,
                         dimension: int = 1) -> EllipticSpec:
    """F(X, x) = -a(x) tr(X) + f(x) as a one-control Bellman spec.

    The stored control subtracts its source term, so f is negated here.
    """
    ctl = {"matrix": np.eye(dimension).tolist(), "a": a_desc,
           "f": _negate_desc(f_desc)}
    return EllipticSpec(env=env, family="linear", controls=(ctl,),
                        constants=constants, dimension=dimension)


def verify_structure(spec, samples: int = 2000, box: float = 4.0, seed: int = 0) -> dict:
    """Sampled audit of the structural assumptions against declared constants.

    Returns a report ``{name: {"worst": float, "bound": float, "passed":
    bool}}``.  ``worst`` is the largest observed ratio of measured to
    allowed quantity, so passing means worst <= 1.  This is a sampling
    check, not a proof; failures show up as report entries, never raises.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    report = {}

    def entry(name, worst, bound=1.0):
        report[name] = {"worst": float(worst), "bound": float(bound),
                        "passed": bool(worst <= bound)}

    def worst(ratio, where=True):
        return float(np.max(ratio, where=where, initial=0.0))

    if isinstance(spec, HamiltonianSpec):
        C = spec.constants.c_struct
        g = spec.constants.gamma
        d = spec.dimension
        xs = rng.uniform(-box / 2, box / 2, size=(samples, d))
        ps = rng.uniform(-5, 5, size=(samples, d))
        qs = rng.uniform(-5, 5, size=(samples, d))
        ys = rng.uniform(-box / 2, box / 2, size=(samples, d))

        # two samples per trial, at x and at y; sigma comes from them too
        c1x, Vx, _ = spec.coefficients(xs)
        c1y, Vy, _ = spec.coefficients(ys)

        def H(c1, V, mom):
            return c1 * np.linalg.norm(mom, axis=1) ** spec.gamma - V

        pn, qn = np.linalg.norm(ps, axis=1), np.linalg.norm(qs, axis=1)
        dxy, dpq = np.linalg.norm(xs - ys, axis=1), np.linalg.norm(ps - qs, axis=1)
        h, hq = H(c1x, Vx, ps), H(c1x, Vx, qs)
        # ratio > 1 means the sandwich is violated
        worst_co = worst(np.maximum(C ** -1 * pn ** g - C - h,
                                    h - (C * pn ** g + C)))
        worst_cx = worst(H(c1x, Vx, (ps + qs) / 2) - 0.5 * (h + hq))
        with np.errstate(divide="ignore", invalid="ignore"):
            worst_hx = worst(np.abs(h - H(c1y, Vy, ps))
                             / (C * (pn ** g + 1) * dxy), dxy > 0)
            worst_hp = worst(np.abs(h - hq) / (
                C * (pn ** (g - 1) + qn ** (g - 1) + 1) * dpq), dpq > 0)
            ds = np.abs(sigma_of_potential(spec.env, Vx)
                        - sigma_of_potential(spec.env, Vy)) * np.sqrt(d)
            worst_sx = worst(ds / (C * dxy), dxy > 0)
        entry("coercivite", worst_co, 0.0)
        entry("convex", worst_cx, 1e-12)
        entry("Hx_Hy", worst_hx)
        entry("Hp_Hq", worst_hp)
        entry("Sx_Sy", worst_sx)
        return report

    # elliptic spec
    cst = spec.constants
    d = spec.dimension
    xs = rng.uniform(-box / 2, box / 2, size=(samples, d))
    ys = rng.uniform(-box / 2, box / 2, size=(samples, d))
    # trial by trial X = -2 + 4u, then B = -1 + 2u, as rng.uniform draws them
    draws = rng.random((samples, 2, d, d))
    X = -2.0 + 4.0 * draws[:, 0]
    X = 0.5 * (X + X.transpose(0, 2, 1))
    B = -1.0 + 2.0 * draws[:, 1]
    Y = B @ B.transpose(0, 2, 1)  # PSD
    # each trial point is sampled once: the controls at every x and every y
    at_x, at_y = spec.coefficients(xs), spec.coefficients(ys)

    def F(ctl, X):  # eval_F at every trial from its sampled controls
        return np.max([-np.trace(a @ X, axis1=1, axis2=2) - f for a, f in ctl],
                      axis=0)

    ny, dxy = np.linalg.norm(Y, axis=(1, 2)), np.linalg.norm(xs - ys, axis=1)
    diff, big = F(at_x, X + Y) - F(at_x, X), ny > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        # F(X+Y)-F(X) <= -lambda ||Y|| and >= -Lambda ||Y|| (Frobenius, the
        # literal form), and the latter with the trace norm (standard form)
        min_up = np.min(diff / (-cst.lambda_bar * ny), where=big,
                        initial=math.inf)
        worst_lo = worst(diff / (-cst.Lambda_bar * ny), big)
        worst_lo_tr = worst(diff / (-cst.Lambda_bar
                                    * np.trace(Y, axis1=1, axis2=2)), big)
        worst_rho = worst(np.abs(F(at_x, X) - F(at_y, X))
                          / (cst.rho_slope * dxy), dxy > 0)
    # min_up >= 1 certifies at least lambda_bar decay per unit ||Y||;
    # worst_lo <= 1 would certify the literal Frobenius lower bound (it can
    # fail for d >= 2, the trace variant is the sharp one)
    entry("Felliptic_upper", 1.0 / min_up if min_up > 0 else math.inf)
    entry("Felliptic_lower_frobenius", worst_lo)
    entry("Felliptic_lower_trace", worst_lo_tr)
    entry("Fbounded", abs(eval_F(spec, np.zeros((d, d)), np.zeros(d))) / cst.c_bar)
    entry("Fcontinuous", worst_rho)
    return report

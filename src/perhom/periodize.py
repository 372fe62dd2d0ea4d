"""Periodized operators: the cutoff zeta, H_L / A_L, F_L and eta schedules.

An L-periodic medium is built from a stationary sample by keeping the
original operator in the inner cube Q_{L(1-2 eta)} and blending to a
space-independent operator (H0 or F0) in a boundary layer of relative width
eta, through a C^2 cutoff that is radial in the l-infinity norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import smoothstep
from .model import (
    EllipticSpec,
    HamiltonianSpec,
    StructuralConstants,
    control_coefficients,
    eval_A,
    eval_F,
    eval_H,
)

__all__ = [
    "CutoffProfile",
    "PeriodizedHJB",
    "PeriodizedElliptic",
    "eval_cutoff",
    "choose_H0_constant",
    "periodize_hjb",
    "periodize_elliptic",
    "eta_schedule_hjb",
    "eta_schedule_elliptic",
    "default_F0_coeff",
]


@dataclass(frozen=True)
class CutoffProfile:
    """Cutoff width eta; zero plateau on Q_{1-2 eta}, one outside Q_{1-eta}.

    The transition uses the quintic smoothstep, so the profile is C^2 with
    |D zeta| <= 4/eta and |D^2 zeta| <= 60/eta^2.
    """

    eta: float

    def __post_init__(self):
        if not 0 < self.eta <= 0.25:
            raise ValueError("eta must lie in (0, 1/4]")


def eval_cutoff(profile: CutoffProfile, x, d: int | None = None):
    """zeta(x) for x reduced periodically to Q_1 = [-1/2, 1/2)^d.

    Radial in the l-infinity norm m = |x|_inf: 0 for m <= 1/2 - eta,
    1 for m >= 1/2 - eta/2, smoothstep in between.  Accepts arrays
    broadcast along the last axis being the spatial dimension when
    ``d`` > 1, or plain arrays of points for d = 1.
    """
    eta = profile.eta
    x = np.asarray(x, dtype=float)
    r = np.abs(x - np.round(x))
    m = np.max(r, axis=-1) if d is not None and d > 1 else r
    t = np.clip((m - (0.5 - eta)) / (eta / 2.0), 0.0, 1.0)
    out = smoothstep(t)
    if np.ndim(out) == 0:
        return float(out)
    return out


def choose_H0_constant(constants: StructuralConstants) -> float:
    """Constant C_H0 such that C_H0^{-1}(C_corr(|p|+1))^gamma - C_H0 lies
    below C_struct^{-1}|p|^gamma - C_struct for every p.

    The closed form uses (t+1)^gamma <= 2^{gamma-1}(t^gamma + 1).  The
    inequality is re-verified on a p-grid up to |p| = 100; a failure there
    would mean the closed form itself is wrong.
    """
    C = constants.c_struct
    Cc = constants.c_corr
    g = constants.gamma
    c_h0 = max(2.0 ** (g - 1) * Cc ** g * C, 2.0 ** (g - 1) * Cc ** g + C)
    t = np.linspace(0.0, 100.0, 4001)
    lhs = (Cc * (t + 1.0)) ** g / c_h0 - c_h0
    rhs = t ** g / C - C
    if np.any(lhs > rhs + 1e-12):
        raise AssertionError("H0 constant closed form violated on the check grid")
    return c_h0


# zeta and _reduce of both periodized families; each class binds them in
# its own body
def _zeta(self, x):
    """zeta(x / L) at a point x, or at each row of an (n, d) array of
    points."""
    y = np.atleast_1d(np.asarray(x, dtype=float)) / self.L
    if self.dimension == 1:
        return eval_cutoff(self.cutoff, y[..., 0])
    return eval_cutoff(self.cutoff, y, d=self.dimension)


def _reduce(self, x) -> np.ndarray:
    """x, or each row of an (n, d) array, reduced periodically into the
    centred cell [-L/2, L/2]^d."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return x - self.L * np.round(x / self.L)


@dataclass(frozen=True)
class PeriodizedHJB:
    """H_L = (1 - zeta(x/L)) H + zeta(x/L) H0, A_L = (1 - zeta(x/L)) A.

    H0(p) = H0_c1 |p|^gamma - H0_constant; the standard family member has
    H0_c1 = 1/H0_constant, but H0_c1 is overridable so an x-independent
    base Hamiltonian can be blended with itself exactly (the analogue of
    choosing F0 = F for an x-independent elliptic operator).
    """

    base: HamiltonianSpec
    L: float
    cutoff: CutoffProfile
    H0_constant: float
    H0_c1: float | None = None

    @property
    def dimension(self) -> int:
        return self.base.dimension

    @property
    def h0_c1(self) -> float:
        return self.H0_c1 if self.H0_c1 is not None else 1.0 / self.H0_constant

    @property
    def gamma(self) -> float:
        return self.base.gamma

    zeta = _zeta
    _reduce = _reduce

    def coefficients(self, points):
        """(c1_L, V_L, a_L) at each row of an (n, d) array of points: the
        base's coefficients blended with H0's, c1_L = (1 - zeta) c1 + zeta
        H0_c1, V_L = (1 - zeta) V + zeta H0_constant, a_L = (1 - zeta) a.

        zeta is taken at the points' periodic reduction, V and a where the
        points lie.  ``eval_H``/``eval_A`` pass reduced points; the grid
        discretizer passes the nodes of [0, L), whose upper half lies
        outside the centred cell the cutoff is built on.
        """
        z = self.zeta(self._reduce(points))
        c1, V, a = self.base.coefficients(points)
        return ((1.0 - z) * c1 + z * self.h0_c1,
                (1.0 - z) * V + z * self.H0_constant, (1.0 - z) * a)

    def eval_H0(self, p) -> float:
        q = float(np.linalg.norm(np.atleast_1d(p)))
        return self.h0_c1 * q ** self.base.gamma - self.H0_constant

    def eval_H(self, p, x) -> float:
        return eval_H(self, p, self._reduce(x))

    def eval_A(self, x) -> np.ndarray:
        return eval_A(self, self._reduce(x))


def periodize_hjb(base: HamiltonianSpec, L: float, eta: float,
                  H0_constant: float | None = None,
                  H0_c1: float | None = None) -> PeriodizedHJB:
    """Build the L-periodic blended HJB operator.

    Without overrides the blend target is the standard coercive member
    H0(p) = C_H0^{-1}|p|^gamma - C_H0 with C_H0 from the declared
    constants; pass ``H0_constant`` / ``H0_c1`` to choose another member.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    cutoff = CutoffProfile(eta)
    if H0_constant is None:
        H0_constant = choose_H0_constant(base.constants)
    return PeriodizedHJB(base=base, L=float(L), cutoff=cutoff,
                         H0_constant=float(H0_constant),
                         H0_c1=None if H0_c1 is None else float(H0_c1))


def default_F0_coeff(constants: StructuralConstants) -> float:
    """Default space-independent operator F0(X) = -m tr(X), m the midpoint
    of the ellipticity interval."""
    return 0.5 * (constants.lambda_bar + constants.Lambda_bar)


@dataclass(frozen=True)
class PeriodizedElliptic:
    """F_L = (1 - zeta_L) F + zeta_L F0 with F0(X) = -f0_coeff tr(X)."""

    base: EllipticSpec
    L: float
    cutoff: CutoffProfile
    f0_coeff: float

    @property
    def dimension(self) -> int:
        return self.base.dimension

    zeta = _zeta
    _reduce = _reduce

    def coefficients(self, points):
        """Per control, (A_L, f_L) at each row of an (n, d) array of points
        reduced into the centred cell: A_L = (1 - zeta) A + zeta f0_coeff I
        and f_L = (1 - zeta) f.  The blend of a Bellman max with the linear
        F0 distributes over the controls."""
        xr = self._reduce(points)
        z = self.zeta(xr)
        zm = z[:, None, None]
        eye = np.eye(self.dimension)
        return [((1.0 - zm) * a_mat + zm * self.f0_coeff * eye, (1.0 - z) * f)
                for a_mat, f in self.base.coefficients(xr)]

    def eval_F0(self, X) -> float:
        X = np.asarray(X, dtype=float).reshape(self.dimension, self.dimension)
        return -self.f0_coeff * float(np.trace(X))

    def eval_F(self, X, x) -> float:
        return eval_F(self, X, x)

    def blended_controls(self, x) -> list[tuple[np.ndarray, float]]:
        """Per-control (A, f) of the blend at a point."""
        return control_coefficients(self, x)


def periodize_elliptic(base: EllipticSpec, L: float, eta: float,
                       f0_coeff: float | None = None) -> PeriodizedElliptic:
    """Build the L-periodic blended elliptic operator."""
    if L < 1:
        raise ValueError("L must be >= 1")
    cutoff = CutoffProfile(eta)
    if f0_coeff is None:
        f0_coeff = default_F0_coeff(base.constants)
    cst = base.constants
    if not cst.lambda_bar <= f0_coeff <= cst.Lambda_bar:
        raise ValueError("F0 coefficient outside the ellipticity interval")
    return PeriodizedElliptic(base=base, L=float(L), cutoff=cutoff,
                              f0_coeff=float(f0_coeff))


def eta_schedule_hjb(L: float, a_bar: float) -> tuple[float, bool]:
    """eta_L = L^{-a_bar/(4(a_bar+1))}, clamped into (0, 1/4].

    Returns (eta, clamped).
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if not 0 < a_bar < 1:
        raise ValueError("a_bar must lie in (0, 1)")
    eta = L ** (-a_bar / (4.0 * (a_bar + 1.0)))
    if eta > 0.25:
        return 0.25, True
    return eta, False


def eta_schedule_elliptic(lambda_L: float, d: int) -> tuple[float, bool]:
    """eta_L = lambda(L)^{d/(2d+1)}, clamped into (0, 1/4].

    Returns (eta, clamped).
    """
    if not 0 < lambda_L <= 1:
        raise ValueError("lambda(L) must lie in (0, 1]")
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    eta = lambda_L ** (d / (2.0 * d + 1.0))
    if eta > 0.25:
        return 0.25, True
    return eta, False

"""Numerical laboratory for periodic approximations of ergodic constants
in the stochastic homogenization of viscous HJB and fully nonlinear
uniformly elliptic operators.

Layers: seeded stationary random media (environment), operator families
and structural audits (model), cutoff periodization and eta schedules
(periodize), monotone grid solvers (hjb_solver, elliptic_solver),
independent 1D oracles (oracle), and study orchestration with a CLI
(harness, cli).
"""

from .environment import (
    EnvSpec,
    EnvironmentSample,
    dependence_range,
    eval_potential,
    eval_potential_points,
    eval_sigma,
    sample_env,
    shift_env,
)
from .model import (
    EllipticSpec,
    HamiltonianSpec,
    StructuralConstants,
    eval_A,
    eval_F,
    eval_H,
    linear_elliptic_spec,
    verify_structure,
)
from .periodize import (
    CutoffProfile,
    PeriodizedElliptic,
    PeriodizedHJB,
    choose_H0_constant,
    default_F0_coeff,
    eta_schedule_elliptic,
    eta_schedule_hjb,
    eval_cutoff,
    periodize_elliptic,
    periodize_hjb,
)
from .hjb_solver import (
    ErgodicEstimate,
    GridField,
    NonConvergenceError,
    SolverParams,
    TorusGrid,
    ergodic_constant_periodic,
    estimate_Hbar_reference,
    load_field,
    make_grid,
    save_field,
    solve_delta_problem,
)
from .elliptic_solver import (
    ergodic_constant_1d_exact,
    ergodic_constant_periodic_elliptic,
    solve_resolvent,
)
from .oracle import (
    brute_force_min,
    fbar_linear_1d,
    flat_spot_halfwidth,
    hbar_1d_first_order,
    hbar_flat_spot_value,
)
from .harness import (
    StudyConfig,
    StudyResult,
    check_sandwich,
    emit_csv,
    emit_json,
    fit_rate,
    rate_report,
    run_convergence_study,
)
from .validation import run_validation

__version__ = "0.1.0"

import numpy as np
import pytest

from perhom import (
    EllipticSpec,
    EnvSpec,
    NonConvergenceError,
    SolverParams,
    StructuralConstants,
    ergodic_constant_1d_exact,
    ergodic_constant_periodic_elliptic,
    fbar_linear_1d,
    linear_elliptic_spec,
    make_grid,
    periodize_elliptic,
    sample_env,
    solve_resolvent,
)


def _cst(lam=0.5, Lam=3.0):
    return StructuralConstants(lambda_bar=lam, Lambda_bar=Lam)


def _inv_cos_spec(amp=0.5):
    # a(x) = 1/(1 + amp cos(2 pi x)): harmonic mean 1, so the effective
    # constant has the closed form (mean(f/a) - P) / mean(1/a)
    return linear_elliptic_spec(None, {"inv_cos": [amp]}, {"const": 0.0},
                                _cst(lam=0.4, Lam=3.0), dimension=1)


def test_exact_constant_coefficients():
    spec = linear_elliptic_spec(None, {"const": 2.0}, {"const": 3.0},
                                _cst(), dimension=1)
    # F(X) = -2X + 3 is x-independent: c = F(P) = -2P + 3
    for P in (-1.0, 0.0, 1.5):
        assert ergodic_constant_1d_exact(spec, P) == \
            pytest.approx(-2.0 * P + 3.0, abs=1e-9)


def test_exact_matches_harmonic_mean_formula():
    spec = _inv_cos_spec(0.5)
    a = lambda x: 1.0 / (1.0 + 0.5 * np.cos(2 * np.pi * x))
    f = lambda x: 0.0
    for P in (-1.0, 0.7):
        want = fbar_linear_1d(a, f, P)
        assert ergodic_constant_1d_exact(spec, P) == \
            pytest.approx(want, abs=1e-8)


def test_exact_with_source_term():
    spec = linear_elliptic_spec(None, {"inv_cos": [0.5]},
                                {"cos": [1.0, 0.5]}, _cst(lam=0.4), dimension=1)
    a = lambda x: 1.0 / (1.0 + 0.5 * np.cos(2 * np.pi * x))
    f = lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x)
    want = fbar_linear_1d(a, f, 0.3)
    assert ergodic_constant_1d_exact(spec, 0.3) == pytest.approx(want, abs=1e-8)


def test_exact_bellman_dominating_control():
    # two linear controls where one dominates pointwise: the Bellman
    # constant is the dominating control's constant
    cst = _cst()
    dom = EllipticSpec(
        env=None, family="bellman", dimension=1, constants=cst,
        controls=(
            {"matrix": [[1.0]], "a": {"const": 1.0}, "f": {"const": 0.0}},
            {"matrix": [[1.0]], "a": {"const": 1.0}, "f": {"const": 2.0}},
        ))
    only = linear_elliptic_spec(None, {"const": 1.0}, {"const": 0.0},
                                cst, dimension=1)
    # control 1 subtracts a smaller source (f stored with sign flipped),
    # control 0 gives -X - 0 vs control 1's -X - 2: control 0 dominates
    assert ergodic_constant_1d_exact(dom, 0.5) == \
        pytest.approx(ergodic_constant_1d_exact(only, 0.5), abs=1e-9)


def test_periodic_grid_matches_exact_1d():
    spec = _inv_cos_spec(0.5)
    grid = make_grid(1, 1.0, 512)
    for P in (-1.0, 0.0, 1.0):
        est = ergodic_constant_periodic_elliptic(spec, [[P]], grid,
                                                 SolverParams(tol=1e-8))
        want = ergodic_constant_1d_exact(spec, P)
        assert abs(est.value - want) <= 1e-4
        assert est.converged


def test_periodized_interior_identity_value():
    # the blend of an x-independent operator with matching F0 is the
    # operator itself, so the periodic constant is exactly F(P)
    spec = linear_elliptic_spec(None, {"const": 2.0}, {"const": 0.0},
                                _cst(), dimension=1)
    per = periodize_elliptic(spec, L=4.0, eta=0.25, f0_coeff=2.0)
    grid = make_grid(1, 4.0, 64)
    est = ergodic_constant_periodic_elliptic(per, [[0.7]], grid,
                                             SolverParams(tol=1e-10))
    assert est.value == pytest.approx(-2.0 * 0.7, abs=1e-9)
    assert np.max(np.abs(est.corrector.values)) <= 1e-8


def test_linear_solves_in_one_howard_step():
    spec = _inv_cos_spec(0.3)
    grid = make_grid(1, 1.0, 128)
    est = ergodic_constant_periodic_elliptic(spec, [[0.5]], grid,
                                             SolverParams(tol=1e-9))
    assert est.iterations <= 2


def test_bellman_periodic_cell():
    env = sample_env(EnvSpec(kind="cosine", dimension=1,
                             value_range=(1.0, 3.0)), 0)
    cst = _cst(lam=0.5, Lam=4.0)
    spec = EllipticSpec(
        env=env, family="bellman", dimension=1, constants=cst,
        controls=(
            {"matrix": [[1.0]], "a": {"affine_of_V": [1.0, 0.0]},
             "f": {"const": 0.0}},
            {"matrix": [[1.0]], "a": {"const": 2.0}, "f": {"cos": [0.0, -1.0]}},
        ))
    grid = make_grid(1, 1.0, 256)
    est = ergodic_constant_periodic_elliptic(spec, [[0.4]], grid,
                                             SolverParams(tol=1e-8))
    want = ergodic_constant_1d_exact(spec, 0.4)
    assert abs(est.value - want) <= 5e-4
    # Bellman constant dominates each single control's constant
    for ctl in spec.controls:
        single = EllipticSpec(env=env, family="bellman", dimension=1,
                              constants=cst, controls=(ctl,))
        est_s = ergodic_constant_periodic_elliptic(single, [[0.4]], grid,
                                                   SolverParams(tol=1e-8))
        assert est.value >= est_s.value - 1e-6


def test_bellman_cell_samples_each_node_once(sample_counter):
    # every affine_of_V descriptor of every control reads one sample of V
    env = sample_env(EnvSpec(kind="checkerboard", dimension=1,
                             value_range=(0.0, 3.0), mollify_radius=0.25), 2)
    spec = EllipticSpec(
        env=env, family="bellman", dimension=1, constants=_cst(Lam=2.5),
        controls=(
            {"matrix": [[1.0]], "a": {"affine_of_V": [0.2, 1.0]},
             "f": {"affine_of_V": [-0.5, 0.2]}},
            {"matrix": [[1.0]], "a": {"affine_of_V": [-0.15, 1.8]},
             "f": {"affine_of_V": [0.3, -0.6]}},
        ))
    per = periodize_elliptic(spec, L=4.0, eta=0.1)
    est = ergodic_constant_periodic_elliptic(per, [[0.4]], make_grid(1, 4.0, 64),
                                             SolverParams(tol=1e-8))
    assert est.converged
    assert len(sample_counter) == 64


def test_resolvent_constant_coefficients():
    # x-independent F: v + F(P) = 0 has the constant solution v = -F(P)
    spec = linear_elliptic_spec(None, {"const": 2.0}, {"const": 3.0},
                                _cst(), dimension=1)
    grid = make_grid(1, 1.0, 64)
    fld = solve_resolvent(spec, [[1.0]], L=4.0, grid=grid,
                          params=SolverParams(tol=1e-10))
    assert np.allclose(fld.values, -(-2.0 + 3.0), atol=1e-9)


def test_resolvent_residual_contract():
    spec = _inv_cos_spec(0.4)
    grid = make_grid(1, 1.0, 128)
    fld = solve_resolvent(spec, [[0.5]], L=8.0, grid=grid,
                          params=SolverParams(tol=1e-9))
    assert fld.info["residual"] <= 1e-9
    # sup bound: |v| <= sup |F(P, .)|
    sup_F = 3.0 * 0.5  # |a|_inf * |P| with f = 0
    assert np.max(np.abs(fld.values)) <= sup_F + 1e-6


def test_2d_periodic_constant_coefficients():
    spec = linear_elliptic_spec(None, {"const": 1.5}, {"const": 0.0},
                                _cst(), dimension=2)
    grid = make_grid(2, 1.0, 16)
    P = np.diag([0.4, -0.2])
    est = ergodic_constant_periodic_elliptic(spec, P, grid,
                                             SolverParams(tol=1e-10))
    assert est.value == pytest.approx(-1.5 * 0.2, abs=1e-9)


def test_2d_cross_terms_monotone_stencil():
    # constant anisotropic diagonally dominant matrix: c = -tr(M P)
    M = [[2.0, 0.5], [0.5, 1.0]]
    cst = _cst(lam=0.5, Lam=3.0)
    spec = EllipticSpec(env=None, family="bellman", dimension=2,
                        constants=cst,
                        controls=({"matrix": M, "a": {"const": 1.0},
                                   "f": {"const": 0.0}},))
    grid = make_grid(2, 1.0, 16)
    P = np.array([[0.3, 0.1], [0.1, -0.5]])
    est = ergodic_constant_periodic_elliptic(spec, P, grid,
                                             SolverParams(tol=1e-9))
    want = -float(np.trace(np.array(M) @ P))
    assert est.value == pytest.approx(want, abs=1e-8)


def test_2d_non_dominant_matrix_raises():
    M = [[1.0, 2.0], [2.0, 1.0]]  # off-diagonal exceeds diagonal
    spec = EllipticSpec(env=None, family="bellman", dimension=2,
                        constants=_cst(), controls=(
                            {"matrix": M, "a": {"const": 1.0},
                             "f": {"const": 0.0}},))
    grid = make_grid(2, 1.0, 16)
    with pytest.raises(NonConvergenceError):
        ergodic_constant_periodic_elliptic(spec, np.zeros((2, 2)), grid,
                                           SolverParams(tol=1e-9))


def test_monotone_in_P():
    # F decreasing in its matrix argument: the cell constant inherits
    # monotonicity, c(P + tI) <= c(P)
    spec = _inv_cos_spec(0.5)
    grid = make_grid(1, 1.0, 128)
    params = SolverParams(tol=1e-9)
    c0 = ergodic_constant_periodic_elliptic(spec, [[0.2]], grid, params).value
    c1 = ergodic_constant_periodic_elliptic(spec, [[0.7]], grid, params).value
    assert c1 <= c0 - 0.4 * 0.5 + 1e-8  # at least lambda_bar decay


def test_grid_period_must_match_L_elliptic():
    spec = _inv_cos_spec(0.5)
    per = periodize_elliptic(spec, L=8.0, eta=0.1)
    grid = make_grid(1, 4.0, 64)
    with pytest.raises(ValueError):
        ergodic_constant_periodic_elliptic(per, [[0.0]], grid, SolverParams())


def _two_control_spec():
    env = sample_env(EnvSpec(kind="cosine", dimension=1,
                             value_range=(1.0, 3.0)), 0)
    return EllipticSpec(
        env=env, family="bellman", dimension=1, constants=_cst(lam=0.5, Lam=4.0),
        controls=(
            {"matrix": [[1.0]], "a": {"affine_of_V": [1.0, 0.0]},
             "f": {"const": 0.0}},
            {"matrix": [[1.0]], "a": {"const": 2.0}, "f": {"cos": [0.0, -1.0]}},
        ))


def _bellman_solves():
    # at P = -0.75 the active control changes across the cell, so both
    # solves take more than one Howard step
    spec, grid = _two_control_spec(), make_grid(1, 1.0, 64)
    return {
        "cell": lambda params: ergodic_constant_periodic_elliptic(
            spec, [[-0.75]], grid, params),
        "resolvent": lambda params: solve_resolvent(
            spec, [[-0.75]], L=1.0, grid=grid, params=params),
    }


@pytest.mark.parametrize("name", ["cell", "resolvent"])
def test_max_iter_bounds_howard_steps(name):
    solve = _bellman_solves()[name]
    out = solve(SolverParams(tol=1e-8))
    steps = out.iterations if name == "cell" else out.info["iterations"]
    assert steps >= 2
    solve(SolverParams(tol=1e-8, max_iter=steps))
    with pytest.raises(NonConvergenceError):
        solve(SolverParams(tol=1e-8, max_iter=steps - 1))


def test_bellman_resolvent_below_each_control_resolvent():
    # F >= F_k, so each control's own resolvent is a supersolution of the
    # Bellman resolvent equation, and the discrete comparison principle
    # puts v below it at every node
    spec, grid, tol = _two_control_spec(), make_grid(1, 1.0, 64), 1e-9
    P = [[-0.75]]
    fld = solve_resolvent(spec, P, L=1.0, grid=grid,
                          params=SolverParams(tol=tol))
    assert fld.info["residual"] <= tol
    singles = [solve_resolvent(
        EllipticSpec(env=spec.env, family="bellman", dimension=1,
                     constants=spec.constants, controls=(ctl,)),
        P, L=1.0, grid=grid, params=SolverParams(tol=tol)).values
        for ctl in spec.controls]
    assert np.all(fld.values <= np.minimum(*singles) + 10 * tol)

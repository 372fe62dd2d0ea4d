import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perhom import (
    EllipticSpec,
    EnvSpec,
    HamiltonianSpec,
    StructuralConstants,
    eval_A,
    eval_F,
    eval_H,
    linear_elliptic_spec,
    sample_env,
    verify_structure,
)


def test_eval_H_constant_medium():
    env = sample_env(EnvSpec(kind="constant", dimension=1,
                             value_range=(2.0, 2.0)), 0)
    spec = HamiltonianSpec(env=env, c1=1.0, gamma=2.0,
                           constants=StructuralConstants(c_struct=3.0))
    # H(p, x) = |p|^2 - 2: zero gradient recovers minus the level
    assert eval_H(spec, (0.0,), (0.3,)) == -2.0
    assert eval_H(spec, (3.0,), (0.3,)) == 7.0


def test_eval_H_gamma_three_halves():
    env = sample_env(EnvSpec(kind="constant", dimension=2,
                             value_range=(0.0, 0.0)), 0)
    spec = HamiltonianSpec(env=env, c1=2.0, gamma=1.5,
                           constants=StructuralConstants(c_struct=3.0,
                                                         gamma=1.5))
    assert eval_H(spec, (3.0, 4.0), (0.0, 0.0)) == pytest.approx(
        2.0 * 5.0 ** 1.5, rel=1e-14)


def test_eval_A_scalar_diffusion():
    env = sample_env(
        EnvSpec(kind="constant", dimension=2, value_range=(2.0, 2.0),
                sigma={"slope": 1.0, "offset": 0.0, "lipschitz_cap": 1.0}), 0)
    spec = HamiltonianSpec(env=env, c1=1.0, gamma=2.0,
                           constants=StructuralConstants(c_struct=3.0))
    assert np.allclose(eval_A(spec, (0.1, 0.7)), 4.0 * np.eye(2))


def test_linear_elliptic_sign_convention():
    # F(X, x) = -a tr(X) + f evaluated at X = t*I must be -a*t*d + f
    cst = StructuralConstants(lambda_bar=0.5, Lambda_bar=3.0)
    spec = linear_elliptic_spec(None, {"const": 2.0}, {"const": 5.0},
                                cst, dimension=2)
    X = 1.5 * np.eye(2)
    assert eval_F(spec, X, (0.0, 0.0)) == pytest.approx(-2.0 * 3.0 + 5.0)
    assert eval_F(spec, np.zeros((2, 2)), (0.0, 0.0)) == pytest.approx(5.0)


def test_bellman_max_of_linear():
    cst = StructuralConstants(lambda_bar=0.5, Lambda_bar=3.0)
    spec = EllipticSpec(
        env=None, family="bellman", dimension=1, constants=cst,
        controls=(
            {"matrix": [[1.0]], "a": {"const": 1.0}, "f": {"const": 0.0}},
            {"matrix": [[1.0]], "a": {"const": 2.0}, "f": {"const": 1.0}},
        ))
    # at X = [[-3]]: controls give 3 - 0 = 3 and 6 - 1 = 5 -> max 5
    assert eval_F(spec, [[-3.0]], (0.0,)) == 5.0
    # at X = [[3]]: controls give -3 and -7 -> max -3
    assert eval_F(spec, [[3.0]], (0.0,)) == -3.0


def test_elliptic_env_coefficient():
    env = sample_env(EnvSpec(kind="cosine", dimension=1,
                             value_range=(1.0, 3.0)), 0)
    cst = StructuralConstants(lambda_bar=0.5, Lambda_bar=4.0)
    spec = linear_elliptic_spec(env, {"affine_of_V": [1.0, 0.0]},
                                {"const": 0.0}, cst, dimension=1)
    # a(0) = V(0) = 3, so F([[1]], 0) = -3
    assert eval_F(spec, [[1.0]], (0.0,)) == pytest.approx(-3.0, abs=1e-12)


def test_verify_structure_hjb_passes(cosine_hjb):
    report = verify_structure(cosine_hjb, samples=500)
    for name, ent in report.items():
        assert ent["passed"], (name, ent)


def test_verify_structure_detects_violation():
    # declared c_struct = 1 cannot dominate a potential reaching 3, so the
    # coercivity sandwich entry must fail
    env = sample_env(EnvSpec(kind="checkerboard", dimension=1,
                             value_range=(0.0, 3.0), mollify_radius=0.25), 4)
    spec = HamiltonianSpec(env=env, c1=1.0, gamma=2.0,
                           constants=StructuralConstants(c_struct=1.0))
    report = verify_structure(spec, samples=500)
    assert not report["coercivite"]["passed"]


def test_verify_structure_samples_each_trial_point_once(sample_counter,
                                                       checkerboard_env):
    spec = HamiltonianSpec(env=sample_env(checkerboard_env, 0), c1=1.0,
                           gamma=2.0, constants=StructuralConstants(c_struct=4.0))
    verify_structure(spec, samples=50)
    assert len(sample_counter) == 100  # x and y of each trial


def test_verify_structure_elliptic_passes():
    env = sample_env(EnvSpec(kind="cosine", dimension=1,
                             value_range=(1.0, 3.0)), 0)
    # the audit samples X with entries in [-2, 2], so the spatial modulus of
    # F(X, .) = -V(x) tr(X) can reach |tr X| * Lip(V) <= 2 * 2 pi
    cst = StructuralConstants(lambda_bar=0.5, Lambda_bar=4.0, c_bar=4.0,
                              rho_slope=4.0 * np.pi + 1.0)
    spec = linear_elliptic_spec(env, {"affine_of_V": [1.0, 0.0]},
                                {"const": 0.0}, cst, dimension=1)
    report = verify_structure(spec, samples=500)
    for name in ("Felliptic_upper", "Felliptic_lower_trace", "Fbounded",
                 "Fcontinuous"):
        assert report[name]["passed"], (name, report[name])


@settings(max_examples=100, deadline=None)
@given(p=st.floats(-5, 5), q=st.floats(-5, 5),
       t=st.floats(0, 1), x=st.floats(-3, 3))
def test_H_convex_in_p(p, q, t, x):
    env = sample_env(EnvSpec(kind="cosine", dimension=1,
                             value_range=(1.0, 3.0)), 0)
    spec = HamiltonianSpec(env=env, c1=1.0, gamma=1.5,
                           constants=StructuralConstants(gamma=1.5))
    mid = eval_H(spec, (t * p + (1 - t) * q,), (x,))
    assert mid <= t * eval_H(spec, (p,), (x,)) \
        + (1 - t) * eval_H(spec, (q,), (x,)) + 1e-10


@settings(max_examples=100, deadline=None)
@given(x=st.floats(-3, 3), t=st.floats(0.01, 2.0))
def test_F_monotone_in_X(x, t):
    # adding a PSD matrix t*I must strictly decrease F
    env = sample_env(EnvSpec(kind="cosine", dimension=1,
                             value_range=(1.0, 3.0)), 0)
    cst = StructuralConstants(lambda_bar=0.5, Lambda_bar=4.0)
    spec = linear_elliptic_spec(env, {"affine_of_V": [1.0, 0.0]},
                                {"const": 0.0}, cst, dimension=1)
    base = eval_F(spec, [[0.4]], (x,))
    assert eval_F(spec, [[0.4 + t]], (x,)) <= base - cst.lambda_bar * t + 1e-12


def test_structural_constants_validation():
    with pytest.raises(ValueError):
        StructuralConstants(c_struct=0.5)
    with pytest.raises(ValueError):
        StructuralConstants(gamma=1.0)
    with pytest.raises(ValueError):
        StructuralConstants(c_corr=0.9)
    with pytest.raises(ValueError):
        StructuralConstants(lambda_bar=2.0, Lambda_bar=1.0)
    assert StructuralConstants.from_json(
        StructuralConstants(c_struct=2.0).to_json()).c_struct == 2.0


def test_hamiltonian_spec_validation(cosine_env):
    env = sample_env(cosine_env, 0)
    cst = StructuralConstants()
    with pytest.raises(ValueError):
        HamiltonianSpec(env=env, c1=0.0, gamma=2.0, constants=cst)
    with pytest.raises(ValueError):
        HamiltonianSpec(env=env, c1=1.0, gamma=2.5, constants=cst)
    with pytest.raises(ValueError):
        HamiltonianSpec(env=env, c1=1.0, gamma=1.0, constants=cst)


def test_elliptic_spec_validation():
    cst = StructuralConstants(lambda_bar=0.5, Lambda_bar=3.0)
    with pytest.raises(ValueError):
        EllipticSpec(env=None, family="quasilinear", controls=(
            {"a": {"const": 1.0}},), constants=cst)
    with pytest.raises(ValueError):
        EllipticSpec(env=None, family="bellman", controls=(), constants=cst)
    with pytest.raises(ValueError):
        EllipticSpec(env=None, family="bellman",
                     controls=tuple({"a": {"const": 1.0}} for _ in range(9)),
                     constants=cst)


def test_verify_structure_elliptic_samples_each_trial_point_once(sample_counter):
    # the controls at x and at y of every trial come from one sampling
    # each, plus the origin for the F(0, 0) bound
    env = sample_env(EnvSpec(kind="checkerboard", dimension=2,
                             value_range=(0.0, 3.0), mollify_radius=0.25), 3)
    spec = EllipticSpec(
        env=env, family="bellman", dimension=2,
        constants=StructuralConstants(lambda_bar=0.5, Lambda_bar=4.0, c_bar=2.0,
                                      rho_slope=10.0),
        controls=(
            {"matrix": [[1.0, 0.0], [0.0, 1.0]], "a": {"affine_of_V": [0.2, 1.0]},
             "f": {"affine_of_V": [-0.5, 0.2]}},
            {"matrix": [[1.5, 0.2], [0.2, 1.0]], "a": {"affine_of_V": [-0.15, 1.8]},
             "f": {"const": 0.1}},
        ))
    report = verify_structure(spec, samples=50)
    assert len(sample_counter) == 101
    assert report["Felliptic_upper"]["passed"]

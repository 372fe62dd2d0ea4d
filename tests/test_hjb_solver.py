import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perhom import (
    EnvSpec,
    GridField,
    HamiltonianSpec,
    NonConvergenceError,
    SolverParams,
    StructuralConstants,
    ergodic_constant_periodic,
    estimate_Hbar_reference,
    hbar_1d_first_order,
    load_field,
    make_grid,
    periodize_hjb,
    sample_env,
    save_field,
    solve_delta_problem,
)
from perhom.hjb_solver import corrector_lipschitz


def _constant_base(v0=2.0):
    env = sample_env(EnvSpec(kind="constant", dimension=1,
                             value_range=(v0, v0)), 0)
    return HamiltonianSpec(env=env, c1=1.0, gamma=2.0,
                           constants=StructuralConstants(c_struct=max(3.0, v0 + 1)))


def _cosine_base():
    env = sample_env(EnvSpec(kind="cosine", dimension=1,
                             value_range=(1.0, 3.0)), 0)
    cst = StructuralConstants(c_struct=7.0, gamma=2.0, c_corr=2.0)
    return HamiltonianSpec(env=env, c1=1.0, gamma=2.0, constants=cst)


def test_scheme_monotone_under_node_bump():
    # bumping one node value must not increase the discrete operator at any
    # other node (monotone scheme), for the blended cosine operator; the
    # linear extension beyond the gradient cap keeps this for steep u too
    from perhom.hjb_solver import (_discretize, _gradient_cap, _operator,
                                   default_theta)
    base = _cosine_base()
    per = periodize_hjb(base, L=4.0, eta=0.25)
    grid = make_grid(1, 4.0, 64)
    prob = _discretize(per, grid)
    theta = default_theta(per, (1.0,), grid)
    R = _gradient_cap(prob, theta)
    rng = np.random.default_rng(1)
    xs = grid.axes()[0]
    for scale in (1.0 / 6.0, 20.0):
        for _ in range(200):
            coeffs = rng.uniform(-1, 1, 3)
            u = sum(c * np.sin(2 * np.pi * (k + 1) * xs / 4.0)
                    for k, c in enumerate(coeffs)) * scale
            r0 = _operator(prob, u, (1.0,), theta, R)
            j = rng.integers(0, 64)
            u2 = u.copy()
            u2[j] += 1e-3
            r1 = _operator(prob, u2, (1.0,), theta, R)
            mask = np.ones(64, bool)
            mask[j] = False
            assert np.all(r1[mask] <= r0[mask] + 1e-13)


def test_constant_medium_exact_value():
    # constant potential: the corrector is zero and c = c1 |p|^gamma - v0
    base = _constant_base(2.0)
    per = periodize_hjb(base, L=4.0, eta=0.25, H0_constant=2.0, H0_c1=1.0)
    grid = make_grid(1, 4.0, 64)
    est = ergodic_constant_periodic(per, (0.0,), grid, SolverParams(tol=1e-10))
    assert est.value == pytest.approx(-2.0, abs=1e-10)
    assert est.converged
    assert np.max(np.abs(est.corrector.values)) <= 1e-9
    est2 = ergodic_constant_periodic(per, (1.5,), grid, SolverParams(tol=1e-10))
    assert est2.value == pytest.approx(1.5 ** 2 - 2.0, abs=1e-9)


def test_two_initializations_agree():
    base = _cosine_base()
    per = periodize_hjb(base, L=4.0, eta=0.25)
    grid = make_grid(1, 4.0, 96)
    params = SolverParams(tol=1e-9)
    a = ergodic_constant_periodic(per, (2.0,), grid, params)
    rng = np.random.default_rng(2)
    init = rng.uniform(-0.5, 0.5, 96)
    b = ergodic_constant_periodic(per, (2.0,), grid, params, init=init)
    # both satisfy the residual contract, so the values match to O(tol)
    assert abs(a.value - b.value) <= 5e-9


def test_discounted_sup_bound_and_residual():
    base = _cosine_base()
    grid = make_grid(1, 1.0, 128)
    params = SolverParams(delta=0.1, tol=1e-9)
    fld = solve_delta_problem(base, (1.0,), grid, params)
    assert fld.info["residual"] <= 1e-9
    # |delta v| <= sup |H(p, .)| = |c1 |p|^gamma - V|_inf <= 2 here
    assert 0.1 * np.max(np.abs(fld.values)) <= 2.0 + 1e-6


def test_discounted_route_matches_cell_route():
    # -delta v^delta extrapolated in delta agrees with the periodic cell
    # constant for a 1-periodic medium
    base = _cosine_base()
    grid = make_grid(1, 1.0, 256)
    p = (2.5,)
    ref = estimate_Hbar_reference(base, p, [0.02, 0.01, 0.005], box=1.0,
                                  params=SolverParams(tol=1e-9), grid_n=256)
    est = ergodic_constant_periodic(base, p, grid, SolverParams(tol=1e-9))
    assert abs(ref.value - est.value) <= 1e-4


def test_reference_agrees_with_oracle(cosine_V):
    base = _cosine_base()
    # tol 1e-8: spsolve roundoff floors the residual near 1e-9 at N = 1024
    ref = estimate_Hbar_reference(
        base, (2.5,), [0.02, 0.01, 0.005], box=1.0,
        params=SolverParams(tol=1e-8), grid_n=1024,
        dissipation_extrapolation=True)
    exact = hbar_1d_first_order(cosine_V, 1.0, 2.0, 2.5)
    assert abs(ref.value - exact) <= 5e-4
    assert ref.info["small_box"]  # box 1 < 1/0.005, flagged not fatal


def test_reference_needs_decreasing_discounts():
    base = _cosine_base()
    with pytest.raises(ValueError):
        estimate_Hbar_reference(base, (1.0,), [0.01, 0.02], box=1.0,
                                params=SolverParams())


def test_grid_refinement_improves(cosine_V):
    base = _cosine_base()
    exact = hbar_1d_first_order(cosine_V, 1.0, 2.0, 2.5)
    errs = []
    for n in (64, 128, 256):
        grid = make_grid(1, 1.0, n)
        est = ergodic_constant_periodic(base, (2.5,), grid,
                                        SolverParams(tol=1e-9))
        errs.append(abs(est.value - exact))
    assert errs[2] < errs[0]
    assert errs[2] <= 0.6 * errs[0]


def test_value_convex_in_p():
    base = _cosine_base()
    grid = make_grid(1, 1.0, 128)
    params = SolverParams(tol=1e-9)
    vals = {}
    for p in (1.5, 2.0, 2.5):
        vals[p] = ergodic_constant_periodic(base, (p,), grid, params).value
    # midpoint convexity up to scheme error
    assert vals[2.0] <= 0.5 * (vals[1.5] + vals[2.5]) + 5e-3


def test_corrector_lipschitz_examples():
    grid = make_grid(1, 1.0, 8)
    zero = GridField(grid=grid, values=np.zeros(8))
    assert corrector_lipschitz(zero) == 0.0
    xs = grid.axes()[0]
    saw = GridField(grid=grid, values=np.minimum(xs, 1.0 - xs))
    assert corrector_lipschitz(saw) == pytest.approx(1.0, rel=1e-12)


def test_corrector_gradient_bound():
    # for c1 |q|^2 - V the corrector satisfies |chi' + p| = sqrt(V + c)
    # pointwise, so the one-sided quotients must respect that envelope
    base = _cosine_base()
    grid = make_grid(1, 1.0, 256)
    for p in (0.0, 1.0, 2.0):
        est = ergodic_constant_periodic(base, (p,), grid,
                                        SolverParams(tol=1e-8))
        envelope = np.sqrt(3.0 + est.value) + p
        assert est.lipschitz_estimate <= envelope + 0.1


@pytest.mark.parametrize("p, expected", [
    (0.0, -4.716060519669), (1.0, -4.208082774168)])
def test_viscous_cell_solves_the_true_hamiltonian(p, expected):
    # a viscous periodized cell whose theta dominates the slope of H at the
    # solution's gradients: no node passes the cap, so the constant is that
    # of c1 |q|^2 - V itself, the value of the scheme without an extension
    sigma = {"slope": 0.1, "offset": 0.2, "lipschitz_cap": 1.2}
    env = sample_env(EnvSpec(kind="checkerboard", dimension=1,
                             value_range=(0.0, 3.0), mollify_radius=0.25,
                             sigma=sigma), 0)
    cst = StructuralConstants(c_struct=4.0, gamma=2.0, c_corr=2.0)
    per = periodize_hjb(HamiltonianSpec(env=env, c1=1.0, gamma=2.0,
                                        constants=cst), L=4.0, eta=0.1)
    est = ergodic_constant_periodic(per, (p,), make_grid(1, 4.0, 64),
                                    SolverParams(tol=1e-10, lf_theta=(80.0,)))
    assert est.info["nodes_above_cap"] == 0
    assert est.value == pytest.approx(expected, abs=1e-8)


def test_nonconvergence_carries_history():
    base = _cosine_base()
    grid = make_grid(1, 1.0, 64)
    params = SolverParams(tol=1e-16, max_iter=10)
    with pytest.raises(NonConvergenceError) as exc:
        ergodic_constant_periodic(base, (2.0,), grid, params)
    assert len(exc.value.history) >= 1
    assert all(np.isfinite(exc.value.history))


def test_grid_period_must_match_L():
    base = _cosine_base()
    per = periodize_hjb(base, L=8.0, eta=0.1)
    grid = make_grid(1, 4.0, 64)
    with pytest.raises(ValueError):
        ergodic_constant_periodic(per, (1.0,), grid, SolverParams())


def test_delta_problem_rejects_zero_discount():
    base = _cosine_base()
    grid = make_grid(1, 1.0, 64)
    with pytest.raises(ValueError):
        solve_delta_problem(base, (1.0,), grid, SolverParams(delta=0.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(3, 1.0, 64)
    with pytest.raises(ValueError):
        make_grid(1, 1.0, 4)
    g = make_grid(2, (1.0, 2.0), (16, 32))
    assert g.spacings == (1.0 / 16, 2.0 / 32)


def test_field_round_trip(tmp_path):
    grid = make_grid(2, (1.0, 2.0), (8, 16))
    rng = np.random.default_rng(3)
    fld = GridField(grid=grid, values=rng.normal(size=(8, 16)))
    path = tmp_path / "f.phf"
    save_field(fld, path)
    back = load_field(path)
    assert back.grid == grid
    assert np.array_equal(back.values, fld.values)


def test_field_format_layout(tmp_path):
    grid = make_grid(1, 2.0, 8)
    fld = GridField(grid=grid, values=np.arange(8.0))
    path = tmp_path / "f.phf"
    save_field(fld, path)
    raw = path.read_bytes()
    assert raw[:4] == b"PHF1"
    assert int.from_bytes(raw[4:12], "little") == 1
    assert int.from_bytes(raw[12:20], "little") == 8
    assert np.frombuffer(raw[20:28], dtype="<f8")[0] == 2.0
    assert len(raw) == 4 + 8 + 8 + 8 + 8 * 8


def test_field_bad_magic(tmp_path):
    path = tmp_path / "bad.phf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_field(path)


@settings(max_examples=20, deadline=None)
@given(v0=st.floats(0.5, 4.0), p=st.floats(0.0, 3.0))
def test_constant_medium_family(v0, p):
    base = _constant_base(v0)
    per = periodize_hjb(base, L=4.0, eta=0.25, H0_constant=v0, H0_c1=1.0)
    grid = make_grid(1, 4.0, 32)
    est = ergodic_constant_periodic(per, (p,), grid, SolverParams(tol=1e-9))
    assert est.value == pytest.approx(p ** 2 - v0, abs=1e-8)

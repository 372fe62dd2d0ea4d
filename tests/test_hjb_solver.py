import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from perhom import (
    EllipticSpec,
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
from perhom import hjb_solver
from perhom.elliptic_solver import _bellman_scheme
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
    # constant for a 1-periodic medium, both extrapolated in theta alike
    base = _cosine_base()
    grid = make_grid(1, 1.0, 256)
    p = (2.5,)
    ref = estimate_Hbar_reference(base, p, [0.02, 0.01, 0.005], box=1.0,
                                  params=SolverParams(tol=1e-9), grid_n=256)
    theta = hjb_solver.default_theta(base, p, grid)
    c = [ergodic_constant_periodic(
        base, p, grid,
        SolverParams(tol=1e-9, lf_theta=tuple(k * t for t in theta))).value
        for k in (1.0, 2.0)]
    assert abs(ref.value - (2.0 * c[0] - c[1])) <= 1e-4


def test_reference_agrees_with_oracle(cosine_V):
    base = _cosine_base()
    # tol 1e-8: spsolve roundoff floors the residual near 1e-9 at N = 1024
    ref = estimate_Hbar_reference(
        base, (2.5,), [0.02, 0.01, 0.005], box=1.0,
        params=SolverParams(tol=1e-8), grid_n=1024)
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


# --- the Newton loop against a step that assembles the whole matrix --------

def _assembled(vals, cols, bordered):
    """The matrix of one step from J's values (and the border's -1) on
    ``cols``: COO to CSC, with the border stacked onto J[:, 1:]."""
    n = cols.shape[1]
    rows = np.broadcast_to(np.arange(n), cols.shape).ravel()
    Ju = sp.csc_matrix((np.ravel(vals)[:cols.size], (rows, cols.ravel())),
                       shape=(n, n))
    if not bordered:
        return Ju
    return sp.hstack([Ju[:, 1:], sp.csc_matrix(-np.ones((n, 1)))],
                     format="csc")


def _assembled_newton(F, J, cols, u, delta, tol, max_steps):
    """``_newton`` as a loop that builds each step's matrix anew
    (``_assembled``) and solves it with ``spsolve`` and its own COLAMD
    ordering."""
    shape = u.shape
    c = 0.0
    if delta == 0.0:
        u = u - u.flat[0]
        c = float(np.mean(F(u)))
    history = []
    while True:
        m = float(u.mean())
        r = delta * (u - m) + delta * m - c + F(u - m)
        history.append(float(np.max(np.abs(r))))
        if history[-1] <= tol or len(history) > max_steps or \
                not np.isfinite(history[-1]):
            return u, c, history
        A = _assembled(J(u, delta), cols, delta == 0.0)
        if delta > 0.0:
            u = u - spla.spsolve(A, r.ravel()).reshape(shape)
        else:
            w = spla.spsolve(A, r.ravel())
            u = u - np.concatenate(([0.0], w[:-1])).reshape(shape)
            c -= float(w[-1])


def _recording_banded(monkeypatch):
    """Wrap ``hjb_solver._banded`` so that every step's system and its
    solution are kept, as (values, right-hand side, solution, bordered)."""
    systems = []
    banded = hjb_solver._banded

    def record(cols, bordered):
        solve = banded(cols, bordered)

        def fn(vals, b):
            w = solve(vals, b)
            systems.append((vals, b.copy(), w, bordered))
            return w
        return fn

    monkeypatch.setattr(hjb_solver, "_banded", record)
    return systems


def _backward_error(A, w, b):
    """Normwise backward error |b - A w| / (|A| |w| + |b|), in the sup norm."""
    return float(np.max(np.abs(b - A @ w))
                 / (spla.norm(A, np.inf) * np.max(np.abs(w)) + np.max(np.abs(b))))


def _counting_spla(monkeypatch):
    """Replace ``hjb_solver.spla`` by a stand-in that counts the
    factorizations of ``splu`` and ``spsolve``."""
    calls = {"splu": 0, "spsolve": 0}

    def counted(name):
        def fn(*args, **kwargs):
            calls[name] += 1
            return getattr(spla, name)(*args, **kwargs)
        return fn

    monkeypatch.setattr(hjb_solver, "spla", types.SimpleNamespace(
        splu=counted("splu"), spsolve=counted("spsolve")))
    return calls


def _checkerboard_cell(d, n):
    env = sample_env(EnvSpec(kind="checkerboard", dimension=d,
                             value_range=(0.0, 3.0), mollify_radius=0.25), 0)
    cst = StructuralConstants(c_struct=4.0, gamma=2.0, c_corr=2.0)
    per = periodize_hjb(HamiltonianSpec(env=env, c1=1.0, gamma=2.0,
                                        constants=cst), L=8.0, eta=0.1)
    p = (1.0,) + (0.5,) * (d - 1)
    grid = make_grid(d, 8.0, n)
    prob = hjb_solver._discretize(per, grid)
    theta = hjb_solver.default_theta(per, p, grid)
    return prob, p, theta


@pytest.mark.parametrize("d, n", [(1, 128), (2, 16)])
@pytest.mark.parametrize("steep", [False, True])
def test_newton_matches_assembled_steps_bit_for_bit(monkeypatch, d, n, steep):
    # 2D: the pattern, the gather and the phase's one column ordering must
    # hand SuperLU the very matrices of a step that assembles everything:
    # the bordered system is ill-conditioned at steep iterates, so any other
    # rounding takes another Newton path.  1D runs on the banded kernel,
    # which rounds otherwise: no SuperLU call, every step a backward-stable
    # solve of the assembled system, and the assembled loop's limits
    prob, p, theta = _checkerboard_cell(d, n)
    F, J, cols = hjb_solver._hjb_scheme(prob, p, theta)
    u0 = np.zeros(prob.grid.shape)
    if steep:
        u0 = 30.0 * ergodic_constant_periodic(
            prob, p, prob.grid,
            SolverParams(tol=1e-8, lf_theta=theta)).corrector.values
    calls = _counting_spla(monkeypatch)
    systems = _recording_banded(monkeypatch)
    want_u, got_u = u0, u0
    for delta in (1.0, 0.0):
        want_u, want_c, want = _assembled_newton(F, J, cols, want_u, delta,
                                                 1e-8, 500)
        before = dict(calls)
        got_u, got_c, got = hjb_solver._newton(F, J, cols, got_u, delta,
                                               1e-8, 500)
        steps = len(got) - 1
        assert steps >= 1
        if d == 2:
            assert got == want
            assert np.array_equal(got_u, want_u)
            assert got_c == want_c
            # one factorization per step, and COLAMD only in the first
            assert calls["splu"] - before["splu"] == 1
            assert calls["spsolve"] - before["spsolve"] == steps - 1
            continue
        assert calls == {"splu": 0, "spsolve": 0}
        assert len(systems) == steps
        for vals, b, w, bordered in systems:
            assert bordered == (delta == 0.0)
            assert _backward_error(_assembled(vals, cols, bordered), w, b) <= 1e-13
        systems.clear()
        assert got[-1] <= 1e-8 and want[-1] <= 1e-8
        if delta > 0.0:  # -delta v, the discounted constant, at node 0
            assert abs(delta * (got_u.flat[0] - want_u.flat[0])) <= 1e-10
        else:
            assert abs(got_c - want_c) <= 1e-10


@pytest.mark.parametrize("n", [8, 9, 10, 127, 128])
@pytest.mark.parametrize("bordered", [False, True])
def test_banded_kernel_matches_dense_solve(n, bordered):
    # odd n puts the last zigzag position on node (n - 1) / 2 + 1
    rng = np.random.default_rng(n)
    cols = hjb_solver._neighbours(make_grid(1, 1.0, n))
    Jv = -rng.uniform(0.5, 1.5, cols.shape)
    Jv[0] = -Jv[1:].sum(axis=0) + (0.0 if bordered else 0.5)
    vals = np.append(Jv, -1.0)
    b = rng.standard_normal(n)
    w = hjb_solver._banded(cols, bordered)(vals, b)
    want = np.linalg.solve(_assembled(vals, cols, bordered).toarray(), b)
    assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("bordered", [False, True])
def test_banded_kernel_singular_system_gives_nan_step(bordered):
    cols = hjb_solver._neighbours(make_grid(1, 1.0, 16))
    vals = np.append(np.zeros(cols.shape), -1.0)
    w = hjb_solver._banded(cols, bordered)(vals, np.ones(16))
    assert w.shape == (16,) and np.all(np.isnan(w))


@pytest.mark.parametrize("later", [False, True])
@pytest.mark.parametrize("bordered", [False, True])
def test_superlu_singular_system_gives_nan_step(bordered, later):
    # the first step factors with splu, a later one calls spsolve; either
    # way an exactly singular system gives a NaN step and no warning
    cols = hjb_solver._neighbours(make_grid(2, 1.0, 8))
    solve = hjb_solver._superlu(cols, bordered)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if later:
            Jv = -np.random.default_rng(0).uniform(0.5, 1.5, cols.shape)
            Jv[0] = -Jv[1:].sum(axis=0) + (0.0 if bordered else 0.5)
            assert np.all(np.isfinite(solve(np.append(Jv, -1.0), np.ones(64))))
        w = solve(np.append(np.zeros(cols.shape), -1.0), np.ones(64))
    assert w.shape == (64,) and np.all(np.isnan(w))


def test_newton_bellman_cell_matches_assembled_steps(monkeypatch):
    # a two-control 2D Bellman cell whose cross term puts the diagonal
    # neighbours into the stencil, and whose active control changes in the
    # first step; only the sums of F change order
    env = sample_env(EnvSpec(kind="cosine", dimension=2,
                             value_range=(1.0, 3.0)), 0)
    spec = EllipticSpec(
        env=env, family="bellman", dimension=2,
        constants=StructuralConstants(lambda_bar=0.5, Lambda_bar=4.0),
        controls=(
            {"matrix": [[2.0, 0.5], [0.5, 1.0]],
             "a": {"affine_of_V": [0.5, 0.0]}, "f": {"const": 0.0}},
            {"matrix": [[1.0, 0.0], [0.0, 1.0]], "a": {"const": 2.0},
             "f": {"cos": [0.5, -1.0]}},
        ))
    grid = make_grid(2, 1.0, 16)
    F, J, cols = _bellman_scheme(spec, [[-0.75, 0.2], [0.2, 0.3]], grid, 1.0)
    assert cols.shape == (9, 256)
    u0 = np.zeros(grid.shape)
    _, want_c, want = _assembled_newton(F, J, cols, u0, 0.0, 1e-10, 50)
    calls = _counting_spla(monkeypatch)
    _, got_c, got = hjb_solver._newton(F, J, cols, u0, 0.0, 1e-10, 50)
    assert len(got) == len(want) >= 3
    assert got[-1] <= 1e-10
    assert abs(got_c - want_c) <= 1e-12
    assert calls == {"splu": 1, "spsolve": len(got) - 2}

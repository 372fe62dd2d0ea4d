import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perhom import (
    EnvSpec,
    dependence_range,
    eval_potential,
    eval_potential_points,
    eval_sigma,
    sample_env,
    shift_env,
)
from perhom.environment import (
    cell_uniform,
    potential_lipschitz_bound,
    splitmix64,
)


def _splitmix_reference(x):
    # independent re-derivation of the avalanche step from the pinned
    # constants, used to pin the implementation bit-for-bit
    mask = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def test_splitmix_matches_reference():
    xs = (0, 1, 42, 2**63, 0xDEADBEEF)
    for x in xs:
        assert splitmix64(x) == _splitmix_reference(x)
    # uint64 arrays wrap mod 2^64 like the reference
    out = splitmix64(np.array(xs, dtype=np.uint64))
    assert [int(v) for v in out] == [_splitmix_reference(x) for x in xs]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind,kwargs", [
    ("constant", {}),
    ("cosine", {}),
    ("checkerboard", {}),
    ("checkerboard", {"mollify_radius": 0.25}),
    ("poisson_bump", {"bump": {"radius": 0.4, "intensity": 1.5,
                               "amplitude": 1.5, "max_per_cell": 3}}),
])
def test_points_equal_rows_bit_for_bit(kind, kwargs, dim):
    # a sample must not depend on the other rows of its array
    spec = EnvSpec(kind=kind, dimension=dim, value_range=(0.5, 3.0),
                   cell_size=0.8, **kwargs)
    pts = np.random.default_rng(5).uniform(-20, 20, size=(300, dim))
    for env in (sample_env(spec, 31), shift_env(sample_env(spec, 31), (4,) * dim)):
        rows = [eval_potential(env, x) for x in pts]
        assert eval_potential_points(env, pts).tolist() == rows
        assert eval_potential_points(env, pts[:0]).shape == (0,)


def test_points_reject_wrong_shape():
    env = sample_env(EnvSpec(kind="cosine", dimension=2, value_range=(0.0, 1.0)), 0)
    with pytest.raises(ValueError):
        eval_potential_points(env, np.zeros(4))
    with pytest.raises(ValueError):
        eval_potential(env, (0.1,))


def test_constant_family_is_constant():
    spec = EnvSpec(kind="constant", dimension=1, value_range=(2.0, 2.0))
    env = sample_env(spec, seed=123)
    for x in np.linspace(-5, 5, 50):
        assert eval_potential(env, (x,)) == 2.0


def test_same_seed_bit_identical():
    spec = EnvSpec(kind="checkerboard", dimension=2, value_range=(0.0, 3.0))
    a = sample_env(spec, seed=99)
    b = sample_env(spec, seed=99)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-10, 10, size=(1000, 2))
    for x in pts:
        assert eval_potential(a, x) == eval_potential(b, x)


def test_cell_center_value_is_hash_draw():
    # checkerboard with no mollification: the value in cell i is the
    # hash-derived uniform mapped into the value range
    spec = EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 3.0))
    env = sample_env(spec, seed=7)
    h = _splitmix_reference(7)
    h = _splitmix_reference(h ^ 5)  # cell index 5
    expected = 3.0 * ((h >> 11) * (1.0 / (1 << 53)))
    assert eval_potential(env, (5.5,)) == expected
    assert cell_uniform(7, (5,)) == (h >> 11) * (1.0 / (1 << 53))


def test_piecewise_constant_within_cell():
    spec = EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 3.0))
    env = sample_env(spec, seed=3)
    assert eval_potential(env, (2.1,)) == eval_potential(env, (2.9,))


def test_mollified_midpoint_is_average():
    # at the boundary between two cells the symmetric kernel sees both
    # cells with equal mass, so the value is the plain average of the draws
    spec = EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 3.0),
                   mollify_radius=0.25)
    env = sample_env(spec, seed=11)
    a = 3.0 * cell_uniform(11, (0,))
    b = 3.0 * cell_uniform(11, (1,))
    assert eval_potential(env, (1.0,)) == pytest.approx((a + b) / 2, abs=1e-14)


def test_shift_identity_and_group_law():
    spec = EnvSpec(kind="checkerboard", dimension=2, value_range=(0.0, 1.0))
    env = sample_env(spec, seed=5)
    assert shift_env(env, (0, 0)) == env
    assert shift_env(shift_env(env, (2, -1)), (3, 4)) == shift_env(env, (5, 3))


def test_shift_matches_translation():
    spec = EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 3.0))
    env = sample_env(spec, seed=1)
    shifted = shift_env(env, (1,))
    assert eval_potential(shifted, (0.3,)) == eval_potential(env, (1.3,))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       xi=st.integers(-2048, 2048),
       z=st.integers(-50, 50))
def test_stationarity_bit_exact(seed, xi, z):
    # dyadic points keep x + z exactly representable, so shift covariance
    # must hold to the last bit even through the mollification kernel
    spec = EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 3.0),
                   mollify_radius=0.25)
    env = sample_env(spec, seed)
    x = xi / 1024.0
    assert eval_potential(shift_env(env, (z,)), (x,)) == \
        eval_potential(env, (x + z,))


@pytest.mark.parametrize("kind,kwargs", [
    ("constant", {}),
    ("cosine", {}),
    ("checkerboard", {"mollify_radius": 0.25}),
    ("poisson_bump", {"bump": {"radius": 0.4, "intensity": 1.0,
                               "amplitude": 1.5, "max_per_cell": 4}}),
])
def test_values_inside_range(kind, kwargs):
    spec = EnvSpec(kind=kind, dimension=1, value_range=(0.5, 3.0), **kwargs)
    env = sample_env(spec, seed=17)
    rng = np.random.default_rng(1)
    for x in rng.uniform(-20, 20, size=500):
        v = eval_potential(env, (x,))
        assert 0.5 - 1e-12 <= v <= 3.0 + 1e-12


@pytest.mark.parametrize("kind,kwargs", [
    ("cosine", {}),
    ("checkerboard", {"mollify_radius": 0.25}),
    ("poisson_bump", {"bump": {"radius": 0.4, "intensity": 1.0,
                               "amplitude": 1.0, "max_per_cell": 2}}),
])
def test_measured_lipschitz_below_declared(kind, kwargs):
    spec = EnvSpec(kind=kind, dimension=1, value_range=(0.0, 3.0), **kwargs)
    env = sample_env(spec, seed=23)
    bound = potential_lipschitz_bound(env)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10_000):
        x = rng.uniform(-10, 10)
        h = rng.uniform(1e-5, 1e-2)
        worst = max(worst, abs(eval_potential(env, (x + h,))
                               - eval_potential(env, (x,))) / h)
    assert worst <= 1.01 * bound


def test_independence_proxy_correlation():
    spec = EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 3.0),
                   mollify_radius=0.25)
    D = dependence_range(sample_env(spec, 0))
    rng = np.random.default_rng(3)
    us, vs = [], []
    for seed in range(32):
        env = sample_env(spec, seed)
        for _ in range(320):
            x = rng.uniform(0, 50)
            y = x + D + rng.uniform(0.1, 10)
            us.append(eval_potential(env, (x,)))
            vs.append(eval_potential(env, (y,)))
    corr = np.corrcoef(us, vs)[0, 1]
    assert abs(corr) < 0.05


def test_dependence_range_arithmetic():
    const = EnvSpec(kind="constant", dimension=1, value_range=(1.0, 1.0))
    cb = EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 1.0),
                 cell_size=1.0, mollify_radius=0.25)
    pb = EnvSpec(kind="poisson_bump", dimension=1, value_range=(0.0, 1.0),
                 bump={"radius": 0.5})
    assert dependence_range(sample_env(const, 0)) == 0.0
    assert dependence_range(sample_env(cb, 0)) == 1.5
    assert dependence_range(sample_env(pb, 0)) == 1.0


def test_sigma_zero_map_and_affine():
    spec0 = EnvSpec(kind="constant", dimension=1, value_range=(2.0, 2.0))
    env0 = sample_env(spec0, 0)
    assert np.all(eval_sigma(env0, (0.3,)) == 0.0)
    spec1 = EnvSpec(kind="constant", dimension=2, value_range=(2.0, 2.0),
                    sigma={"slope": 1.0, "offset": 0.0, "lipschitz_cap": 1.0})
    env1 = sample_env(spec1, 0)
    assert np.allclose(eval_sigma(env1, (0.1, 0.2)), 2.0 * np.eye(2))


def test_sigma_gram_psd():
    spec = EnvSpec(kind="checkerboard", dimension=2, value_range=(0.0, 2.0),
                   mollify_radius=0.25,
                   sigma={"slope": 0.5, "offset": 0.1, "lipschitz_cap": 2.0})
    env = sample_env(spec, 9)
    rng = np.random.default_rng(4)
    for x in rng.uniform(-5, 5, size=(1000, 2)):
        s = eval_sigma(env, x)
        assert np.linalg.eigvalsh(s @ s.T).min() >= -1e-14


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        EnvSpec(kind="checkerboard", dimension=1, value_range=(1.0, 0.0))
    with pytest.raises(ValueError):
        EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 1.0),
                mollify_radius=0.6)
    with pytest.raises(ValueError):
        EnvSpec(kind="nope", dimension=1, value_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        EnvSpec(kind="poisson_bump", dimension=1, value_range=(0.0, 1.0),
                bump={"radius": 0.0})


def test_env_spec_json_round_trip():
    spec = EnvSpec(kind="checkerboard", dimension=2, value_range=(0.0, 3.0),
                   cell_size=2.0, mollify_radius=0.5,
                   sigma={"slope": 0.3, "offset": 0.1, "lipschitz_cap": 1.0})
    assert EnvSpec.from_json(spec.to_json()) == spec


def test_cosine_matches_formula():
    spec = EnvSpec(kind="cosine", dimension=1, value_range=(1.0, 3.0))
    env = sample_env(spec, 0)
    for x in (0.0, 0.3, 0.5, 1.7):
        assert eval_potential(env, (x,)) == pytest.approx(
            2.0 + math.cos(2.0 * math.pi * x), abs=1e-12)

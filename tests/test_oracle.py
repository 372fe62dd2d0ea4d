import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perhom import (
    EnvSpec,
    brute_force_min,
    eval_potential_points,
    fbar_linear_1d,
    flat_spot_halfwidth,
    hbar_1d_first_order,
    hbar_flat_spot_value,
    sample_env,
)
from perhom.oracle import _golden_min


def test_flat_value_is_minus_min(cosine_V):
    # |p| below the flat-spot halfwidth: value is -min V = -1
    assert hbar_1d_first_order(cosine_V, 1.0, 2.0, 0.0) == \
        pytest.approx(-1.0, abs=1e-9)
    w = flat_spot_halfwidth(cosine_V, 1.0, 2.0)
    assert hbar_1d_first_order(cosine_V, 1.0, 2.0, 0.9 * w) == \
        pytest.approx(-1.0, abs=1e-9)


def test_flat_spot_halfwidth_cosine(cosine_V):
    # g(-min V) = integral_0^1 sqrt(1 + cos(2 pi x)) dx = 2 sqrt(2) / pi
    w = flat_spot_halfwidth(cosine_V, 1.0, 2.0)
    assert w == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, abs=1e-10)


def test_constant_potential_closed_form():
    # V = v0: c solves c1 ((v0 + c)/c1)^... trivially c = c1 |p|^g - v0
    V = lambda x: 2.0
    for c1, g, p in ((1.0, 2.0, 1.5), (2.0, 1.5, 0.8), (1.0, 2.0, 0.0)):
        want = max(c1 * abs(p) ** g - 2.0, -2.0)
        assert hbar_1d_first_order(V, c1, g, p) == pytest.approx(want, abs=1e-8)


def test_inversion_self_consistency(cosine_V):
    # outside the flat spot the defining integral must hold at the root
    c = hbar_1d_first_order(cosine_V, 1.0, 2.0, 2.5)
    xs = np.linspace(0.0, 1.0, 200001)
    integrand = np.sqrt(np.maximum([cosine_V(x) for x in xs], 0.0)
                        + c - np.array([cosine_V(x) for x in xs]) * 0.0)
    # direct: g(c) = int sqrt(V + c) dx should equal |p|
    g = np.trapezoid(np.sqrt(np.array([cosine_V(x) for x in xs]) + c), xs)
    assert g == pytest.approx(2.5, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(p=st.floats(1.0, 4.0))
def test_hbar_monotone_and_coercive(p):
    V = lambda x: 2.0 + np.cos(2.0 * np.pi * x)
    c = hbar_1d_first_order(V, 1.0, 2.0, p)
    c2 = hbar_1d_first_order(V, 1.0, 2.0, p + 0.25)
    assert c2 >= c - 1e-9
    # coercivity sandwich with C = 3: p^2/3 - 3 <= c <= 3 p^2 + 3
    assert p ** 2 / 3.0 - 3.0 <= c <= 3.0 * p ** 2 + 3.0


def test_hbar_even_in_p(cosine_V):
    a = hbar_1d_first_order(cosine_V, 1.0, 2.0, 2.0)
    b = hbar_1d_first_order(cosine_V, 1.0, 2.0, -2.0)
    assert a == pytest.approx(b, abs=1e-10)


@pytest.mark.parametrize("p", [0.5, 2.5])
def test_hbar_shifts_with_a_large_constant(cosine_V, p):
    # near c = -1e8 the float spacing passes the 1e-10 tolerance, so the
    # bisection ends when no float is left inside its bracket
    V = lambda x: cosine_V(x) + 1e8
    want = hbar_1d_first_order(cosine_V, 1.0, 2.0, p) - 1e8
    assert hbar_1d_first_order(V, 1.0, 2.0, p) == pytest.approx(want, abs=1e-6)


def test_flat_spot_value_both_conventions():
    env = sample_env(EnvSpec(kind="checkerboard", dimension=1,
                             value_range=(0.0, 3.0), mollify_radius=0.25), 5)
    neg, raw = hbar_flat_spot_value(env, box=16.0)
    assert neg == -raw
    # window minimum can only decrease as the box grows
    _, raw_small = hbar_flat_spot_value(env, box=4.0)
    assert raw <= raw_small + 1e-12
    assert 0.0 <= raw <= 3.0


def test_fbar_linear_harmonic_mean():
    # a = 1/(1 + 0.5 cos), f = 0: mean(1/a) = 1, so c = -P exactly
    a = lambda x: 1.0 / (1.0 + 0.5 * np.cos(2 * np.pi * x))
    f = lambda x: 0.0
    for P in (-1.0, 0.0, 2.0):
        assert fbar_linear_1d(a, f, P) == pytest.approx(-P, abs=1e-12)


def test_fbar_linear_with_source():
    # constant coefficients: c = f/1 - a P
    a = lambda x: 2.0
    f = lambda x: 3.0
    assert fbar_linear_1d(a, f, 1.0) == pytest.approx((1.5 - 1.0) / 0.5,
                                                      abs=1e-12)


def test_brute_force_min_1d():
    v, x = brute_force_min(lambda t: (t - 1.3) ** 2 + 0.25, 4.0)
    assert v == pytest.approx(0.25, abs=1e-10)
    assert float(x[0]) == pytest.approx(1.3, abs=1e-6)


def test_brute_force_min_2d():
    fn = lambda z: (z[0] - 0.7) ** 2 + 2.0 * (z[1] - 1.1) ** 2 - 1.0
    v, pt = brute_force_min(fn, (2.0, 2.0), N=64)
    assert v == pytest.approx(-1.0, abs=1e-8)
    assert pt[0] == pytest.approx(0.7, abs=1e-4)
    assert pt[1] == pytest.approx(1.1, abs=1e-4)


def test_quad_N_minimum_enforced():
    with pytest.raises(ValueError):
        hbar_1d_first_order(lambda x: 2.0, 1.0, 2.0, 1.0, quad_N=64)
    with pytest.raises(ValueError):
        brute_force_min(lambda t: t, 1.0, N=1)


def test_custom_period(cosine_V):
    # the same medium viewed on a 2-periodic window gives the same constant
    a = hbar_1d_first_order(cosine_V, 1.0, 2.0, 2.5, period=1.0)
    b = hbar_1d_first_order(cosine_V, 1.0, 2.0, 2.5, period=2.0, quad_N=512)
    assert a == pytest.approx(b, abs=1e-8)


def test_golden_min_brackets_match_single_searches():
    # brackets of different widths finish at different steps; each must
    # follow the float sequence of its own one-bracket search
    env = sample_env(EnvSpec(kind="checkerboard", dimension=1,
                             value_range=(0.0, 3.0), mollify_radius=0.25), 9)
    V = lambda xs: eval_potential_points(env, xs[:, None])
    lo = np.array([0.1, 3.0, 7.25, -4.0, 12.0])
    hi = lo + np.array([0.5, 2.0, 1e-3, 8.0, 0.3])
    xs, vs = _golden_min(V, lo, hi)
    for k in range(lo.size):
        x1, v1 = _golden_min(V, lo[k:k + 1], hi[k:k + 1])
        assert (xs[k], vs[k]) == (x1[0], v1[0])

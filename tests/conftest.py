import numpy as np
import pytest

from perhom import (
    EnvSpec,
    HamiltonianSpec,
    StructuralConstants,
    sample_env,
)


@pytest.fixture
def cosine_env():
    return EnvSpec(kind="cosine", dimension=1, value_range=(1.0, 3.0))


@pytest.fixture
def cosine_hjb(cosine_env):
    cst = StructuralConstants(c_struct=7.0, gamma=2.0, c_corr=2.0)
    return HamiltonianSpec(env=sample_env(cosine_env, 0), c1=1.0, gamma=2.0,
                           constants=cst)


@pytest.fixture
def cosine_V():
    return lambda x: 2.0 + np.cos(2.0 * np.pi * x)


@pytest.fixture
def checkerboard_env():
    return EnvSpec(kind="checkerboard", dimension=1, value_range=(0.0, 3.0),
                   cell_size=1.0, mollify_radius=0.25)


@pytest.fixture
def sample_counter(monkeypatch):
    """Route every perhom module's reference to ``eval_potential_points``
    through a counter; the returned list grows by one entry per sampled
    point (row)."""
    import sys

    from perhom import environment

    sample = environment.eval_potential_points
    points = []

    def counted(env, xs):
        points.extend(np.asarray(xs, dtype=float))
        return sample(env, xs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "perhom" and \
                getattr(mod, "eval_potential_points", None) is sample:
            monkeypatch.setattr(mod, "eval_potential_points", counted)
    return points

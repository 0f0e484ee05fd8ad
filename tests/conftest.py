import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from menger import _batch

from menger.measure import (
    gen_four_corner_cantor,
    gen_lipschitz_graph,
    gen_plane_patch,
    gen_sphere,
)

# Derandomized so a CI failure replays locally without a shrink database.
settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def circle():
    return gen_sphere(2, 400, seed=3)


@pytest.fixture(scope="session")
def sphere3():
    return gen_sphere(3, 1500, seed=4)


@pytest.fixture(scope="session")
def patch12():
    return gen_plane_patch(1, 2, 300, seed=1)


@pytest.fixture(scope="session")
def patch23():
    return gen_plane_patch(2, 3, 300, seed=2)


@pytest.fixture(scope="session")
def graph12():
    return gen_lipschitz_graph(1, 2, 0.5, 300, seed=5)


@pytest.fixture(scope="session")
def cantor2():
    return gen_four_corner_cantor(2)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def content_rows(monkeypatch):
    """How many tuples' Gram matrices _batch._content receives, one entry per call."""
    calls = []
    real = _batch._content

    def counting(G):
        calls.append(len(G))
        return real(G)

    monkeypatch.setattr(_batch, "_content", counting)
    return calls

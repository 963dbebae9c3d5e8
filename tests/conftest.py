import numpy as np
import pytest

from ivfbalance import Centroids, Codebook, VectorSet


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_vectors(rng, n, dim, scale=1.0):
    """Random float32 VectorSet used across tests."""
    return VectorSet.from_array(rng.standard_normal((n, dim)) * scale)


@pytest.fixture
def small_set(rng):
    return random_vectors(rng, 100, 4)


def integer_tie_fixture():
    """Integer data and centroids, so every distance is exact whatever the
    summation order; cells 3-5 duplicate cells 0-2, so every point of those
    cells ties exactly under equal penalties."""
    rng = np.random.default_rng(7)
    data = VectorSet.from_array(rng.integers(-3, 4, size=(300, 4)))
    points = np.array(
        [[0, 0, 0, 0], [2, 2, 0, 0], [0, -2, 2, 0], [0, 0, 0, 0], [2, 2, 0, 0],
         [0, -2, 2, 0], [-2, 0, 0, 2]], dtype=np.float32,
    )
    return data, Codebook.fresh(Centroids(points))

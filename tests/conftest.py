import numpy as np
import pytest

from morreylab.homspace import build_from_table, build_uniform_grid, space_from_points


@pytest.fixture(scope="session")
def two_atom():
    return build_from_table([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])


@pytest.fixture(scope="session")
def grid3():
    return build_uniform_grid(3, 1, "interval")


@pytest.fixture(scope="session")
def grid16():
    return build_uniform_grid(16, 1, "interval")


@pytest.fixture(scope="session")
def circle32():
    return build_uniform_grid(32, 1, "circle")


@pytest.fixture(scope="session")
def cloud20():
    rng = np.random.default_rng(11)
    return space_from_points(rng.random((20, 2)), rng.uniform(0.5, 1.5, 20) / 20)


def random_cloud(n, seed, dim=2):
    rng = np.random.default_rng(seed)
    return space_from_points(rng.random((n, dim)), rng.uniform(0.5, 1.5, n) / n)


# Spaces for kernel-versus-reference tests: a circle with an odd number of
# atoms, a tie-free cloud, a 2-D grid with distance ties and a single atom.
REFERENCE_SPACES = {
    "circle257": lambda: build_uniform_grid(257, 1, "circle"),
    "cloud40": lambda: random_cloud(40, 5),
    "grid2d-ties": lambda: build_uniform_grid(6, 2, "interval"),
    "single-atom": lambda: build_from_table([[0.0]], [1.0]),
}


def relabeled(space, perm):
    """The same space with atom perm[i] renamed i."""
    return build_from_table(space.dist[np.ix_(perm, perm)], space.weight[perm])


def tie_heavy_samples(n, seed):
    """A normal sample and one with many equal values."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=n), rng.integers(-2, 3, size=n).astype(float)

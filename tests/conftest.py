import numpy as np
import pytest

from blochstep import build_grid, kronig_penney, mathieu, solve_bands


@pytest.fixture(scope="session")
def small_grid():
    return build_grid(1.0 / 8, 16)


@pytest.fixture(scope="session")
def mathieu_table(small_grid):
    return solve_bands(mathieu(16), small_grid, 16, 4)


@pytest.fixture(scope="session")
def kp_table(small_grid):
    return solve_bands(kronig_penney(16), small_grid, 16, 4)


@pytest.fixture(scope="session")
def baseline_grid():
    return build_grid(1.0 / 32, 32)


@pytest.fixture(scope="session")
def baseline_mathieu(baseline_grid):
    return solve_bands(mathieu(32), baseline_grid, 32, 8)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)

import numpy as np
import pytest

from blochstep import build_grid, kronig_penney, mathieu, solve_bands
from blochstep.bands import _neighbor_vector


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


def _berry_per_node(table, m):
    """The earlier per-node form of bands.berry_connection, kept as an
    oracle: at each node l, each neighbour of v0 = chi_m(k_l) is rotated
    onto v0, and the centered difference is projected on v0.  A complex
    (L,) array."""
    L = table.grid.L
    dk = 1.0 / L
    out = np.empty(L, dtype=complex)
    for l in range(L):
        v0 = table.vectors[m - 1, l]

        def aligned(v):
            ov = np.vdot(v0, v)
            return v * np.conj(ov) / abs(ov)

        vp = _neighbor_vector(table, m, l + 1)
        vm = _neighbor_vector(table, m, l - 1)
        out[l] = np.vdot(v0, (aligned(vp) - aligned(vm)) / (2.0 * dk))
    return out


@pytest.fixture(scope="session")
def berry_per_node():
    return _berry_per_node

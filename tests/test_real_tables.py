"""A real band table (float64 vectors, as solve_bands gives for the cosine and
Kronig-Penney lattices) against the same table stored complex: the Bloch
transform, BD evolution and off-node chi evaluation agree to round-off."""

import dataclasses

import numpy as np
import pytest

from blochstep import (
    BlochTransform,
    ChiInterpolator,
    StepperConfig,
    WaveField,
    build_grid,
    evolve,
    external_from_spec,
    kronig_penney,
    mathieu,
    solve_bands,
)

TOL = 1e-12
LATTICES = {"mathieu": mathieu, "kp": kronig_penney}


def _pair(lattice):
    """(real table, the same table with complex vectors) at eps = 1/32."""
    table = solve_bands(LATTICES[lattice](16), build_grid(1.0 / 32, 16), 16, 4)
    assert table.vectors.dtype == np.float64
    return table, dataclasses.replace(table,
                                      vectors=table.vectors.astype(complex))


def _gap(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)))


def _random(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_transform_of_real_table_matches_complex(lattice):
    real, cplx = _pair(lattice)
    a, b = BlochTransform(real), BlochTransform(cplx)
    rng = np.random.default_rng(7)
    values = _random(rng, a.shape)
    C = _random(rng, (real.grid.L, real.M))
    assert _gap(a.forward(values), b.forward(values)) <= TOL
    assert _gap(a.backward(C), b.backward(C)) <= TOL
    assert a.gram().dtype == a.weights.dtype == np.float64
    assert _gap(a.gram(), b.gram()) <= TOL
    assert _gap(a.weights, b.weights) <= TOL
    assert _gap(a.band_norms(C), b.band_norms(C)) <= TOL


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("order", ["lie", "strang"])
def test_bd_evolve_with_real_table_matches_complex(lattice, order):
    tables = _pair(lattice)
    grid = tables[0].grid
    psi0 = WaveField(grid, _random(np.random.default_rng(3), (grid.L, grid.R)))
    real, cplx = (evolve(psi0, StepperConfig("bd", order, 0.01, bands=tab,
                                             external=external_from_spec(
                                                 "harmonic")),
                         0.05, 5, track_band_masses=True) for tab in tables)
    assert _gap(real.final.values, cplx.final.values) <= TOL
    assert _gap(real.mass_history, cplx.mass_history) <= TOL
    assert _gap(real.band_mass_history, cplx.band_mass_history) <= TOL


@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_chi_values_of_real_table_match_complex(lattice):
    real, cplx = _pair(lattice)
    rng = np.random.default_rng(11)
    k = rng.uniform(-1.5, 1.5, 64)
    y = rng.uniform(0.0, 2 * np.pi, 64)
    for m in (1, 2):
        assert _gap(ChiInterpolator(real, m).chi_values(k, y),
                    ChiInterpolator(cplx, m).chi_values(k, y)) <= TOL

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochstep import (
    StepperConfig,
    WaveField,
    bd_periodic_flow,
    build_grid,
    discrete_norms,
    evolve,
    external_from_spec,
    external_phase,
    from_samples,
    mathieu,
    sample_gaussian,
    solve_bands,
    step,
)
from blochstep.errors import NonFinite
from blochstep.grid import field_difference

NONE = external_from_spec("none")
HARMONIC = external_from_spec("harmonic")
LINEAR = external_from_spec("linear:1")


def band_limited(table, rng):
    from blochstep import BlochCoeffs, band_reconstruct, cell_inverse
    C = BlochCoeffs(table, rng.standard_normal((table.M, table.grid.L))
                    + 1j * rng.standard_normal((table.M, table.grid.L)))
    return cell_inverse(band_reconstruct(C))


def test_zero_dt_is_identity_on_band_limited(mathieu_table, rng):
    psi = band_limited(mathieu_table, rng)
    out = bd_periodic_flow(psi, mathieu_table, 0.0, psi.grid.epsilon)
    assert np.max(np.abs(out.values - psi.values)) < 1e-10


def test_free_gaussian_closed_form():
    eps = 1.0 / 32
    grid = build_grid(eps, 32)
    free = from_samples(np.zeros(256), 32)
    tab = solve_bands(free, grid, 32, 24)
    psi0 = sample_gaussian(grid)
    T = 0.1
    cfg = StepperConfig("bd", "strang", T, bands=tab, external=NONE)
    out = step(psi0, cfg)
    a = 5.0
    denom = 1.0 + 2j * a * eps * T
    x = grid.x_nodes
    exact = (10 / np.pi) ** 0.25 / np.sqrt(denom) * np.exp(
        -a * (x - np.pi) ** 2 / denom)
    err = discrete_norms(WaveField(grid, out.values - exact))[0]
    assert err < 1e-6


def test_one_step_equals_many_without_external(baseline_mathieu):
    psi0 = sample_gaussian(baseline_mathieu.grid)
    cfg = StepperConfig("bd", "strang", 0.1, bands=baseline_mathieu, external=NONE)
    one = evolve(psi0, cfg, 0.1, 1).final
    many = evolve(psi0, cfg, 0.1, 100).final
    assert discrete_norms(field_difference(one, many))[0] < 1e-10


def test_external_phase_properties(mathieu_table, rng):
    psi = band_limited(mathieu_table, rng)
    eps = psi.grid.epsilon
    out = external_phase(psi, NONE, 0.3, eps)
    np.testing.assert_allclose(out.values, psi.values, atol=0)
    out = external_phase(psi, HARMONIC, 0.3, eps)
    np.testing.assert_allclose(np.abs(out.values), np.abs(psi.values),
                               atol=1e-15)
    i = np.argmin(np.abs(psi.grid.x_nodes.reshape(-1) - np.pi))
    assert abs(out.values.reshape(-1)[i] - psi.values.reshape(-1)[i]) < 1e-12
    assert abs(discrete_norms(out)[0] - discrete_norms(psi)[0]) < 1e-14


def test_bd_step_reduces_to_periodic_flow_without_external(mathieu_table, rng):
    psi = band_limited(mathieu_table, rng)
    cfg = StepperConfig("bd", "strang", 0.05, bands=mathieu_table, external=NONE)
    a = step(psi, cfg)
    b = bd_periodic_flow(psi, mathieu_table, 0.05, psi.grid.epsilon)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def _temporal_errors(scheme, splitting, eps, lattice, external, T, Ns, M=12):
    grid = build_grid(eps, 16)
    V = mathieu(32)
    psi0 = sample_gaussian(grid)
    if scheme == "bd":
        tab = solve_bands(V, grid, 32, M)
        mk = lambda dt: StepperConfig("bd", splitting, dt, bands=tab,
                                      external=external)
    else:
        mk = lambda dt: StepperConfig("ts", splitting, dt, lattice=V,
                                      external=external)
    ref = evolve(psi0, mk(T / (40 * Ns[-1])), T, 40 * Ns[-1]).final
    return [discrete_norms(field_difference(
        evolve(psi0, mk(T / N), T, N).final, ref))[0] for N in Ns]


def test_bd_strang_second_order_coarse_eps():
    # enough bands that the band-truncation error sits below the dt^2 term
    errs = _temporal_errors("bd", "strang", 0.5, "mathieu", HARMONIC,
                            1.0, (10, 20, 40, 80), M=20)
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(abs(o - 2.0) <= 0.2 for o in orders[-2:])


def test_ts_strang_second_order_coarse_eps():
    errs = _temporal_errors("ts", "strang", 0.5, "mathieu", LINEAR,
                            1.0, (10, 20, 40, 80))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(abs(o - 2.0) <= 0.2 for o in orders[-2:])


def test_strang_not_worse_than_lie():
    for scheme in ("bd", "ts"):
        e_lie = _temporal_errors(scheme, "lie", 0.5, "mathieu", LINEAR,
                                 1.0, (20,))[0]
        e_strang = _temporal_errors(scheme, "strang", 0.5, "mathieu", LINEAR,
                                    1.0, (20,))[0]
        assert e_strang <= e_lie + 1e-12


def test_ts_free_flow_spectral():
    eps = 1.0 / 8
    grid = build_grid(eps, 32)
    free = from_samples(np.zeros(512), 64)
    psi0 = sample_gaussian(grid)
    T = 0.1
    cfg = StepperConfig("ts", "strang", T, lattice=free, external=NONE)
    out = step(psi0, cfg)
    a = 5.0
    denom = 1.0 + 2j * a * eps * T
    x = grid.x_nodes
    exact = (10 / np.pi) ** 0.25 / np.sqrt(denom) * np.exp(
        -a * (x - np.pi) ** 2 / denom)
    assert discrete_norms(WaveField(grid, out.values - exact))[0] < 1e-10


def test_time_reversibility(mathieu_table, rng):
    psi = band_limited(mathieu_table, rng)
    eps = psi.grid.epsilon
    fwd = bd_periodic_flow(psi, mathieu_table, 0.07, eps)
    back = bd_periodic_flow(fwd, mathieu_table, -0.07, eps)
    assert np.max(np.abs(back.values - psi.values)) < 1e-10


def test_evolve_tracks_mass_and_band_masses(baseline_mathieu):
    psi0 = sample_gaussian(baseline_mathieu.grid)
    cfg = StepperConfig("bd", "strang", 0.01, bands=baseline_mathieu,
                        external=HARMONIC)
    traj = evolve(psi0, cfg, 0.1, 10, snapshot_every=5,
                  track_band_masses=True)
    assert traj.mass_history.shape == (11,)
    assert traj.band_mass_history.shape == (11, 8)
    assert abs(traj.mass_history[-1] - traj.mass_history[0]) < 1e-6
    assert len(traj.snapshots) == 3  # t = 0, 0.05, 0.1


def test_evolve_aborts_on_non_finite(mathieu_table):
    grid = mathieu_table.grid
    bad = WaveField(grid, np.full((grid.L, grid.R), np.nan, dtype=complex))
    cfg = StepperConfig("bd", "strang", 0.01, bands=mathieu_table, external=NONE)
    with pytest.raises(NonFinite):
        evolve(bad, cfg, 0.1, 2)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_gauge_invariance_of_bd_step(seed):
    rng = np.random.default_rng(seed)
    grid = build_grid(1.0 / 8, 16)
    tab = solve_bands(mathieu(16), grid, 16, 4)
    psi = sample_gaussian(grid)
    cfg = StepperConfig("bd", "strang", 0.02, bands=tab, external=HARMONIC)
    ref = step(psi, cfg)
    phases = np.exp(2j * np.pi * rng.random((4, grid.L)))
    twisted = type(tab)(grid=grid, M=4, Lambda=16,
                        energies=tab.energies,
                        vectors=tab.vectors * phases[:, :, None],
                        potential=tab.potential)
    out = step(psi, StepperConfig("bd", "strang", 0.02, bands=twisted,
                                  external=HARMONIC))
    assert np.max(np.abs(out.values - ref.values)) < 1e-12

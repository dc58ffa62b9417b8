"""`evolve` held in the propagator's basis between steps, against the loop it
replaced, kept here as a test-local oracle: every step goes from physical
samples to physical samples, and the mass and band masses are taken from
the samples."""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from blochstep import (
    BDPropagator,
    BlochTransform,
    StepperConfig,
    WaveField,
    bd_step,
    build_grid,
    discrete_norms,
    evolve,
    external_from_spec,
    kronig_penney,
    mathieu,
    solve_bands,
    ts_step,
)
from blochstep.errors import NonFinite
from blochstep.potential import ExternalPotential
from blochstep.steppers import step

TOL = 1e-12
R = 16
M = 4
T = 0.05
HARMONIC = external_from_spec("harmonic")
LATTICES = {"mathieu": mathieu, "kp": kronig_penney}


# ---- oracle: the per-step loop from physical samples to physical samples ----

def _oracle_step(prop, values):
    """One Lie or Strang step with the propagator's tables, each flow a full
    transform pair."""
    if isinstance(prop, BDPropagator):
        tr = prop.transform

        def flow(v):
            return tr.reconstruct(tr.project(v) * prop.flow)
    else:
        def flow(v):
            spectrum = scipy.fft.fft(v.reshape(-1))
            spectrum *= prop.flow
            return scipy.fft.ifft(spectrum, overwrite_x=True).reshape(v.shape)

    out = flow(values)
    out *= prop.phase
    return flow(out) if prop.strang else out


def _oracle_evolve(psi0, config, T, N, snapshot_every=0,
                   track_band_masses=False):
    """(final, times, snapshots, masses, band masses), with times parallel to
    the snapshots and the final field last."""
    cfg = replace(config, dt=T / N)
    psi = psi0.copy()
    if not np.all(np.isfinite(psi.values)):
        raise NonFinite("non-finite field in the initial data")
    prop = cfg.propagator(psi.grid)
    masses = [discrete_norms(psi)[0]]
    bloch = BlochTransform(cfg.bands)
    bmass = [bloch.masses(psi.values)]
    times = [0.0]
    snapshots = [psi.copy()] if snapshot_every else []
    for n in range(1, N + 1):
        psi = WaveField(psi.grid, _oracle_step(prop, psi.values))
        if not np.all(np.isfinite(psi.values)):
            raise NonFinite(f"non-finite field after step {n}")
        masses.append(discrete_norms(psi)[0])
        bmass.append(bloch.masses(psi.values))
        if snapshot_every and (n % snapshot_every == 0 or n == N):
            times.append(n * T / N)
            snapshots.append(psi.copy())
    if not snapshot_every:
        times, snapshots = [T], [psi]
    return (psi, times, snapshots, np.array(masses),
            np.array(bmass) if track_band_masses else None)


# ---- cases ----

@lru_cache(maxsize=None)
def _table(lattice, L):
    return solve_bands(LATTICES[lattice](R), build_grid(1.0 / L, R), R, M)


def _config(scheme, order, lattice, L, dt=T, external=HARMONIC):
    return StepperConfig(scheme, order, dt, bands=_table(lattice, L),
                         lattice=LATTICES[lattice](R), external=external)


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return WaveField(grid, rng.standard_normal((grid.L, grid.R))
                     + 1j * rng.standard_normal((grid.L, grid.R)))


def _gap(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)))


SCHEMES = [(s, o, lat) for s in ("bd", "ts") for o in ("lie", "strang")
           for lat in sorted(LATTICES)]


@pytest.mark.parametrize("scheme,order,lattice", SCHEMES)
@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 3, 8, 32]), st.sampled_from([1, 2, 7]),
       st.sampled_from([0, 1, 3]), st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_evolve_matches_per_step_loop(scheme, order, lattice, L, N, every,
                                      track, seed):
    cfg = _config(scheme, order, lattice, L)
    psi0 = _random_field(_table(lattice, L).grid, seed)
    traj = evolve(psi0, cfg, T, N, snapshot_every=every,
                  track_band_masses=track)
    final, times, snaps, masses, bmass = _oracle_evolve(psi0, cfg, T, N,
                                                        every, track)
    assert _gap(traj.final.values, final.values) <= TOL
    assert len(traj.times) == len(traj.snapshots) == len(times)
    assert traj.snapshots[-1] is traj.final
    assert _gap(traj.times, times) <= 1e-15
    for got, want in zip(traj.snapshots, snaps):
        assert _gap(got.values, want.values) <= TOL
    assert traj.mass_history.shape == (N + 1,)
    assert _gap(traj.mass_history, masses) <= TOL
    if track:
        assert traj.band_mass_history.shape == (N + 1, M)
        assert _gap(traj.band_mass_history, bmass) <= TOL
    else:
        assert traj.band_mass_history is None
    assert np.array_equal(psi0.values, _random_field(psi0.grid, seed).values)


@pytest.mark.parametrize("scheme,order,lattice", SCHEMES)
@pytest.mark.parametrize("L", [1, 3, 8, 32])
def test_step_is_bitwise_the_per_step_loop(scheme, order, lattice, L):
    cfg = _config(scheme, order, lattice, L, dt=0.01)
    psi = _random_field(_table(lattice, L).grid, L)
    want = _oracle_step(cfg.propagator(psi.grid), psi.values)
    by_scheme = bd_step if scheme == "bd" else ts_step
    assert np.array_equal(step(psi, cfg).values, want)
    assert np.array_equal(by_scheme(psi, cfg).values, want)
    assert np.array_equal(evolve(psi, cfg, 0.01, 1).final.values, want)


@pytest.mark.parametrize("scheme,order,lattice", SCHEMES)
@pytest.mark.parametrize("where", ["initial", "external"])
def test_non_finite_at_the_same_step(scheme, order, lattice, where):
    external = (ExternalPotential("linear", strength=np.nan)
                if where == "external" else HARMONIC)
    cfg = _config(scheme, order, lattice, 8, external=external)
    psi0 = _random_field(_table(lattice, 8).grid, 3)
    if where == "initial":
        psi0.values[2, 5] = np.nan
    with pytest.raises(NonFinite) as got:
        evolve(psi0, cfg, T, 3, track_band_masses=True)
    with pytest.raises(NonFinite) as want:
        _oracle_evolve(psi0, cfg, T, 3, track_band_masses=True)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("L", [1, 3, 7, 8, 32])
def test_gram_matrix_is_the_transform_round_trip(lattice, L):
    tab = _table(lattice, L)
    tr = BlochTransform(tab)
    rng = np.random.default_rng(L)
    C = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
    G = tr.gram()
    GC = np.matmul(G, C.T[:, :, None])[:, :, 0].T
    assert _gap(tr.project(tr.reconstruct(C)), GC) <= TOL
    # the Kronig-Penney bands leak out of the R-mode window, so a loop that
    # took G for the identity would miss the oracle by far more than TOL
    assert (_gap(G, np.eye(M)) > 1e-7) == (lattice == "kp")

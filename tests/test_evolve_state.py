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
    BlochTransform,
    StepperConfig,
    WaveField,
    build_grid,
    discrete_norms,
    evolve,
    external_from_spec,
    from_samples,
    kronig_penney,
    mathieu,
    solve_bands,
    step,
)
from blochstep.errors import NonFinite
from blochstep.potential import TWO_PI
from blochstep.steppers import FOUR_STEP_MIN_POINTS

TOL = 1e-12
R = 16
M = 4
T = 0.05
HARMONIC = external_from_spec("harmonic")
LATTICES = {"mathieu": mathieu, "kp": kronig_penney}


# ---- oracle: the per-step loop from physical samples to physical samples ----

def _oracle_tables(cfg, grid):
    """(flow, phase): the plain flow of a Lie step or a Strang half-step on
    the spectrum of the propagator's forward transform (the (L, M) Bloch
    coefficients for BD, the flat length-LR FFT for TS), and the phase."""
    eps = grid.epsilon
    h = cfg.dt / 2 if cfg.splitting_order == "strang" else cfg.dt
    V = cfg.external(grid.x_nodes)
    if cfg.scheme == "bd":
        flow = np.exp(-1j * cfg.bands.energies.T * (h / eps))
    else:
        n = grid.n_points
        assert n < FOUR_STEP_MIN_POINTS
        kappa = np.fft.fftfreq(n, d=1.0 / n)
        flow = np.exp(-0.5j * eps * kappa ** 2 * h)
        V = cfg.lattice.sample(grid.x_nodes / eps) + V
    return flow, np.exp(-1j * V * (cfg.dt / eps))


def _oracle_step(cfg, prop, values):
    """One Lie or Strang step with the plain tables and the propagator's
    transform pair (Bloch projection and reconstruction for BD, the flat FFT
    pair for TS), each flow a full transform pair."""
    flow_table, phase = _oracle_tables(cfg, prop.grid)

    def flow(v):
        return prop._backward(prop._forward(v) * flow_table)

    out = flow(values)
    out *= phase
    return flow(out) if prop.strang else out


def _unscaled_contract(tr, X):
    return np.conj(np.matmul(tr.waves, np.conj(X)[:, :, None])[:, :, 0])


def _unscaled_expand(tr, C):
    return np.matmul(C[:, None, :], tr.waves)[:, 0, :]


def _folded_bd_step(cfg, values):
    """One BD step from physical samples to physical samples, written out
    with the arithmetic of a step whose flow tables carry the transform's
    constants: the samples' coefficients (2*pi/R) contract(FFT((-1)^l psi))
    times flow/(2*pi), an unscaled expansion and inverse cell FFT, the
    phase (times the cell sign for Lie) and, for Strang, an unscaled
    contraction of the cell FFT times flow*2*pi/R, then the backward
    transform (-1)^l IFFT(expand(C/(2*pi)))."""
    tr = BlochTransform(cfg.bands)
    flow, phase = _oracle_tables(cfg, cfg.bands.grid)
    flow = np.ascontiguousarray(flow)
    C = _unscaled_contract(tr, scipy.fft.fft(values * tr.sign, axis=0))
    C *= TWO_PI / tr.shape[1]
    out = scipy.fft.ifft(_unscaled_expand(tr, C * (flow / TWO_PI)), axis=0)
    if cfg.splitting_order == "lie":
        out *= phase * tr.sign
        return out
    out *= phase
    C = _unscaled_contract(tr, scipy.fft.fft(out, axis=0))
    C *= flow * (TWO_PI / tr.shape[1])
    out = scipy.fft.ifft(_unscaled_expand(tr, C / TWO_PI), axis=0)
    out *= tr.sign
    return out


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
        psi = WaveField(psi.grid, _oracle_step(cfg, prop, psi.values))
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

def _asymmetric(Lambda):
    """A real lattice potential without reflection symmetry: complex V-hat,
    so its band table and Gram matrices are complex."""
    y = 2 * np.pi * np.arange(8 * Lambda) / (8 * Lambda)
    return from_samples(np.sin(y) + 0.3 * np.cos(2 * y) + 0.2 * np.sin(3 * y),
                        Lambda)


@lru_cache(maxsize=None)
def _table(lattice, L):
    V = {**LATTICES, "asymmetric": _asymmetric}[lattice](R)
    return solve_bands(V, build_grid(1.0 / L, R), R, M)


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
    """step and a one-step evolve are bitwise the per-step loop written with
    the step's own arithmetic: for TS the loop's, for BD the folded step,
    whose flow tables carry the transform's constants 1/(2*pi) and 2*pi/R.
    BD also agrees to TOL with the loop, which applies those constants in
    the transforms."""
    cfg = _config(scheme, order, lattice, L, dt=0.01)
    psi = _random_field(_table(lattice, L).grid, L)
    loop = _oracle_step(cfg, cfg.propagator(psi.grid), psi.values)
    want = _folded_bd_step(cfg, psi.values) if scheme == "bd" else loop
    assert np.array_equal(step(psi, cfg).values, want)
    assert np.array_equal(evolve(psi, cfg, 0.01, 1).final.values, want)
    assert _gap(want, loop) <= TOL


def _nan_linear(x):
    """The samples of a linear external potential of strength NaN: a
    non-finite external potential as the steppers sample it.
    ExternalPotential itself rejects that strength (tests/test_potential.py)."""
    return np.nan * np.asarray(x, dtype=float)


@pytest.mark.parametrize("scheme,order,lattice", SCHEMES)
@pytest.mark.parametrize("where", ["initial", "external"])
def test_non_finite_at_the_same_step(scheme, order, lattice, where):
    external = _nan_linear if where == "external" else HARMONIC
    cfg = _config(scheme, order, lattice, 8, external=external)
    psi0 = _random_field(_table(lattice, 8).grid, 3)
    if where == "initial":
        psi0.values[2, 5] = np.nan
    with pytest.raises(NonFinite) as got:
        evolve(psi0, cfg, T, 3, track_band_masses=True)
    with pytest.raises(NonFinite) as want:
        _oracle_evolve(psi0, cfg, T, 3, track_band_masses=True)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("scheme,order,lattice", SCHEMES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_non_finite_injected_at_step_k_raises_at_step_k(scheme, order, lattice,
                                                        bad, monkeypatch):
    """A NaN, an infinity or a finite 1e200, whose square overflows, put into
    the state that step k returns, in its samples (Lie) or its coefficients
    (Strang), makes that step's mass non-finite, and evolve raises
    NonFinite naming step k."""
    k = 3
    cfg = _config(scheme, order, lattice, 8)
    psi0 = _random_field(_table(lattice, 8).grid, 5)
    cls = type(cfg.propagator(psi0.grid))
    advance, steps = cls.advance, []

    def injected(self, state):
        out = advance(self, state)
        steps.append(out)
        if len(steps) == k:
            (out.values if out.coeffs is None else out.coeffs).flat[5] = bad
        return out
    monkeypatch.setattr(cls, "advance", injected)
    with pytest.raises(NonFinite, match=rf"^non-finite field after step {k}$"):
        evolve(psi0, cfg, T, 5, track_band_masses=True)
    assert len(steps) == k


def test_evolve_refuses_a_negative_snapshot_interval():
    # -1 used to take a snapshot after every step, as 1 does
    cfg = _config("bd", "strang", "mathieu", 3)
    with pytest.raises(ValueError, match="snapshot_every >= 0"):
        evolve(_random_field(cfg.bands.grid, 0), cfg, T, 2, snapshot_every=-1)


@pytest.mark.parametrize("lattice", sorted(LATTICES) + ["asymmetric"])
@pytest.mark.parametrize("L", [1, 3, 7, 8, 32])
def test_gram_matrix_is_the_transform_round_trip(lattice, L):
    tab = _table(lattice, L)
    tr = BlochTransform(tab)
    rng = np.random.default_rng(L)
    C = rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))
    G = tr.gram()
    assert np.iscomplexobj(G) == (lattice == "asymmetric")
    GC = np.matmul(G, C.T[:, :, None])[:, :, 0].T
    assert _gap(tr.forward(tr.backward(C.T)).T, GC) <= TOL
    # the Kronig-Penney bands leak out of the R-mode window, so a loop that
    # took G for the identity would miss the oracle by far more than TOL
    assert (_gap(G, np.eye(M)) > 1e-7) == (lattice == "kp")


def test_bd_evolve_matches_oracle_at_the_benchmark_size():
    """L = 1024, R = 32, M = 8 on the Kronig-Penney lattice, Strang, band
    masses tracked: the state held in (L, M) coefficients, with the cell
    sign pair dropped inside each step and the transform's constants carried
    by the flow tables, against the per-step loop.  One step is bitwise the
    folded step written out here; later steps also replace a transform pair
    by the Gram product, and all of it agrees with the loop to round-off."""
    grid = build_grid(1.0 / 1024, 32)
    table = solve_bands(kronig_penney(32), grid, 32, 8)
    cfg = StepperConfig("bd", "strang", 0.01, bands=table, external=HARMONIC)
    psi0 = _random_field(grid, 1024)
    for N in (1, 4):
        traj = evolve(psi0, cfg, 0.01 * N, N, track_band_masses=True)
        final, _, _, masses, bmass = _oracle_evolve(
            psi0, cfg, 0.01 * N, N, track_band_masses=True)
        if N == 1:
            assert np.array_equal(traj.final.values,
                                  _folded_bd_step(cfg, psi0.values))
        assert _gap(traj.final.values, final.values) <= TOL
        assert _gap(traj.mass_history, masses) <= TOL
        assert traj.band_mass_history.shape == (N + 1, 8)
        assert _gap(traj.band_mass_history, bmass) <= TOL

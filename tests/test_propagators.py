"""The cell-space Bloch transform and the precomputed propagators against the
earlier two-stage path (length-L cell DFT, exp(-i k y) twiddle, length-R
DFT and fftshift), kept here as a test-local oracle, and the TS transform
pairs (flat FFT on small grids, four-step on large ones) and steps against
the flat length-LR FFT."""

from dataclasses import FrozenInstanceError
from functools import lru_cache

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from blochstep import (
    BDPropagator,
    BlochTransform,
    CellField,
    StepperConfig,
    TSPropagator,
    WaveField,
    BlochCoeffs,
    band_masses,
    band_project,
    band_reconstruct,
    bd_periodic_flow,
    build_grid,
    cell_forward,
    cell_inverse,
    discrete_norms,
    evolve,
    external_from_spec,
    from_samples,
    kronig_penney,
    mathieu,
    sample_gaussian,
    solve_bands,
)
from blochstep.errors import ShapeMismatch
from blochstep.steppers import (
    FOUR_STEP_MIN_POINTS,
    _four_step_fft,
    _four_step_ifft,
    _four_step_twiddle,
    step,
)

TWO_PI = 2.0 * np.pi
HARMONIC = external_from_spec("harmonic")
TOL = 1e-12


# ---- oracle: the two-stage transform and the per-call TS step ----

def _oracle_window(bands):
    lo = bands.Lambda - bands.grid.R // 2
    return bands.vectors[:, :, lo:lo + bands.grid.R]


def _oracle_project(psi, bands):
    grid = psi.grid
    tilde = cell_forward(psi).values
    g = tilde * np.exp(-1j * np.multiply.outer(grid.k_nodes, grid.y_nodes))
    G = np.fft.fftshift(np.fft.fft(g, axis=1), axes=1)
    return (TWO_PI / grid.R) * np.einsum("mlr,lr->ml",
                                         np.conj(_oracle_window(bands)), G)


def _oracle_reconstruct(C, bands):
    grid = bands.grid
    h = np.einsum("ml,mlr->lr", C, _oracle_window(bands))
    tilde = grid.R * np.fft.ifft(np.fft.ifftshift(h, axes=1), axis=1)
    tilde *= np.exp(1j * np.multiply.outer(grid.k_nodes, grid.y_nodes))
    tilde /= TWO_PI
    return cell_inverse(CellField(grid, tilde))


def _oracle_flow(psi, bands, dt, eps):
    C = _oracle_project(psi, bands) * np.exp(-1j * bands.energies * (dt / eps))
    return _oracle_reconstruct(C, bands)


def _oracle_bd_step(psi, bands, U, dt, order):
    eps = psi.grid.epsilon
    phase = np.exp(-1j * U(psi.grid.x_nodes) * (dt / eps))
    if order == "lie":
        return WaveField(psi.grid, _oracle_flow(psi, bands, dt, eps).values * phase)
    out = WaveField(psi.grid, _oracle_flow(psi, bands, dt / 2, eps).values * phase)
    return _oracle_flow(out, bands, dt / 2, eps)


def _oracle_ts_step(psi, lattice, U, dt, order):
    grid = psi.grid
    eps = grid.epsilon
    n = grid.n_points
    kappa = np.fft.fftfreq(n, d=1.0 / n)

    def kinetic(values, h):
        spec = np.fft.fft(values.reshape(n)) * np.exp(-0.5j * eps * kappa ** 2 * h)
        return np.fft.ifft(spec).reshape(grid.L, grid.R)

    vtot = lattice.sample(grid.x_nodes / eps) + U(grid.x_nodes)
    phase = np.exp(-1j * vtot * (dt / eps))
    if order == "lie":
        return WaveField(grid, kinetic(psi.values, dt) * phase)
    return WaveField(grid, kinetic(kinetic(psi.values, dt / 2) * phase, dt / 2))


# ---- cases ----

LATTICES = {"mathieu": mathieu, "kp": kronig_penney}


def _asymmetric(Lambda):
    """A real lattice potential without reflection symmetry: complex V-hat,
    so its band table, Bloch waves and Gram matrices are complex."""
    y = 2 * np.pi * np.arange(8 * Lambda) / (8 * Lambda)
    return from_samples(np.sin(y) + 0.3 * np.cos(2 * y) + 0.2 * np.sin(3 * y),
                        Lambda)


@lru_cache(maxsize=None)
def _table(lattice, L, R):
    grid = build_grid(1.0 / L, R)
    V = {**LATTICES, "asymmetric": _asymmetric}[lattice](R)
    return solve_bands(V, grid, R, 4)


def _random_field(grid, rng):
    return WaveField(grid, rng.standard_normal((grid.L, grid.R))
                     + 1j * rng.standard_normal((grid.L, grid.R)))


cases = st.tuples(st.sampled_from(sorted(LATTICES)),
                  st.sampled_from([1, 2, 3, 5, 8, 32]),
                  st.sampled_from([8, 16, 32]),
                  st.integers(0, 2 ** 31 - 1))


@settings(max_examples=30, deadline=None)
@given(cases)
def test_bloch_transform_matches_two_stage_oracle(case):
    lattice, L, R, seed = case
    tab = _table(lattice, L, R)
    psi = _random_field(tab.grid, np.random.default_rng(seed))
    tr = BlochTransform(tab)
    C = tr.forward(psi.values).T
    assert np.max(np.abs(C - _oracle_project(psi, tab))) <= TOL
    back = tr.backward(C.T)
    assert np.max(np.abs(back - _oracle_reconstruct(C, tab).values)) <= TOL
    assert np.max(np.abs(band_masses(psi, tab) - tr.masses(psi.values))) == 0.0


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("L", [1, 3, 8, 32])
def test_parseval_weights_are_the_window_norms(lattice, L):
    tab = _table(lattice, L, 16)
    want = np.sum(np.abs(_oracle_window(tab)) ** 2, axis=2)
    got = BlochTransform(tab).weights.T
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / want) <= 1e-15


@settings(max_examples=30, deadline=None)
@given(cases, st.sampled_from(["lie", "strang"]), st.sampled_from([0.03, -0.03]))
def test_bd_propagator_matches_oracle(case, order, dt):
    lattice, L, R, seed = case
    tab = _table(lattice, L, R)
    psi = _random_field(tab.grid, np.random.default_rng(seed))
    eps = tab.grid.epsilon
    out = BDPropagator(tab, HARMONIC, dt, order).step(psi)
    ref = _oracle_bd_step(psi, tab, HARMONIC, dt, order)
    assert np.max(np.abs(out.values - ref.values)) <= TOL
    flow = bd_periodic_flow(psi, tab, dt, eps)
    assert np.max(np.abs(flow.values - _oracle_flow(psi, tab, dt, eps).values)) <= TOL


@pytest.mark.parametrize("lattice", ["mathieu", "kp", "asymmetric"])
@pytest.mark.parametrize("order", ["lie", "strang"])
@pytest.mark.parametrize("L", [1, 8, 32])
def test_folded_bd_evolve_matches_two_stage_oracle(lattice, order, L):
    """BD's flow tables carry the transform's constants, 1/(2*pi) before the
    synthesis and 2*pi/R after the analysis, and its Gram product is picked
    once: evolve with band masses tracked, on real and complex tables,
    against the two-stage oracle stepped from samples to samples, each band
    mass being the norm of that band's oracle reconstruction."""
    tab = _table(lattice, L, 16)
    psi = _random_field(tab.grid, np.random.default_rng(L))
    N = 4
    T = 0.03 * N
    cfg = StepperConfig("bd", order, T / N, bands=tab, external=HARMONIC)
    traj = evolve(psi, cfg, T, N, track_band_masses=True)
    ref = psi
    for n in range(N + 1):
        if n:
            ref = _oracle_bd_step(ref, tab, HARMONIC, T / N, order)
        C = _oracle_project(ref, tab)
        for m in range(tab.M):
            single = np.zeros_like(C)
            single[m] = C[m]
            want = discrete_norms(_oracle_reconstruct(single, tab))[0]
            assert abs(traj.band_mass_history[n, m] - want) <= TOL
        assert abs(traj.mass_history[n] - discrete_norms(ref)[0]) <= TOL
    assert np.max(np.abs(traj.final.values - ref.values)) <= TOL


# ---- the earlier BlochTransform arithmetic, with its constants applied in
# the contraction and the expansion ----

def _earlier_contract(tr, X):
    C = np.conj(np.matmul(tr.waves, np.conj(X)[:, :, None])[:, :, 0])
    C *= TWO_PI / tr.shape[1]
    return C


def _earlier_expand(tr, C):
    return np.matmul((C / TWO_PI)[:, None, :], tr.waves)[:, 0, :]


@pytest.mark.parametrize("lattice", ["mathieu", "kp", "asymmetric"])
@pytest.mark.parametrize("L", [1, 3, 32])
def test_transform_methods_return_what_they_did(lattice, L):
    """Every public BlochTransform method against the earlier arithmetic to
    TOL, folded_pair's tables and unscaled pair against the scaled pair with
    the plain flow, and band_project and band_reconstruct bitwise."""
    tab = _table(lattice, L, 16)
    tr = BlochTransform(tab)
    rng = np.random.default_rng(L)
    psi = _random_field(tab.grid, rng).values
    C = rng.standard_normal((L, 4)) + 1j * rng.standard_normal((L, 4))
    forward = _earlier_contract(tr, scipy.fft.fft(psi * tr.sign, axis=0))
    cells = scipy.fft.ifft(_earlier_expand(tr, C), axis=0)
    norms = np.sqrt(np.sum(np.abs(C) ** 2 * tr.weights, axis=0)
                    / (TWO_PI * L * L))
    assert np.max(np.abs(tr.forward(psi) - forward)) <= TOL
    assert np.max(np.abs(tr.analyse(psi * tr.sign) - forward)) <= TOL
    assert np.max(np.abs(tr.synthesise(C) - cells)) <= TOL
    assert np.max(np.abs(tr.backward(C) - cells * tr.sign)) <= TOL
    assert np.max(np.abs(tr.band_norms(C) - norms)) <= TOL
    assert np.max(np.abs(tr.masses(psi) - tr.band_norms(forward))) <= TOL
    flow = np.exp(1j * rng.uniform(0.0, TWO_PI, C.shape))
    pre_flow, synthesis, analysis, post_flow = tr.folded_pair(flow)
    assert np.max(np.abs(synthesis(C * pre_flow)
                         - tr.synthesise(C * flow))) <= TOL
    assert np.max(np.abs(analysis(psi * tr.sign) * post_flow
                         - tr.analyse(psi * tr.sign) * flow)) <= TOL
    tilde = cell_forward(WaveField(tab.grid, psi))
    got = band_project(tilde, tab).values
    assert np.array_equal(got, _earlier_contract(tr, tilde.values).T)
    got = band_reconstruct(BlochCoeffs(tab, C.T)).values
    assert np.array_equal(got, _earlier_expand(tr, C))


@settings(max_examples=30, deadline=None)
@given(cases, st.sampled_from(["lie", "strang"]), st.sampled_from([0.003, -0.003]))
def test_ts_propagator_matches_oracle(case, order, dt):
    lattice, L, R, seed = case
    grid = build_grid(1.0 / L, R)
    V = LATTICES[lattice](R)
    psi = _random_field(grid, np.random.default_rng(seed))
    out = TSPropagator(grid, V, HARMONIC, dt, order).step(psi)
    ref = _oracle_ts_step(psi, V, HARMONIC, dt, order)
    assert np.max(np.abs(out.values - ref.values)) <= TOL


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 2, 3, 7, 8, 1024]), st.sampled_from([4, 8, 32]),
       st.integers(0, 2 ** 31 - 1))
def test_four_step_pair_is_the_flat_fft(L, R, seed):
    """The (L, R) spectrum holds bin k1 + L*k2 of the length-LR FFT of the
    flattened samples at [k1, k2]."""
    grid = build_grid(1.0 / L, R)
    twiddle = _four_step_twiddle(L, R)
    rng = np.random.default_rng(seed)
    psi = _random_field(grid, rng).values
    flat = scipy.fft.fft(psi.reshape(-1))
    S = _four_step_fft(psi, twiddle)
    assert S.shape == (L, R)
    assert np.max(np.abs(S.T.reshape(-1) - flat)) <= 1e-13 * np.max(np.abs(flat))
    spec = _random_field(grid, rng).values
    want = scipy.fft.ifft(spec.T.reshape(-1)).reshape(L, R)
    got = _four_step_ifft(spec.copy(), np.conj(twiddle))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("L, R", [(32, 32), (1024, 8), (512, 32), (1024, 32)])
def test_ts_propagator_picks_the_transform_by_size(L, R):
    """Flat FFT below FOUR_STEP_MIN_POINTS, the four-step (L, R) layout from
    there on; either way the flow table sits on the spectrum's bins."""
    grid = build_grid(1.0 / L, R)
    n = grid.n_points
    prop = TSPropagator(grid, kronig_penney(R), HARMONIC, 0.01, "lie")
    psi = _random_field(grid, np.random.default_rng(L + R)).values
    flat = scipy.fft.fft(psi.reshape(-1))
    S = prop._forward(psi)
    kappa = np.fft.fftfreq(n, d=1.0 / n)
    flow = np.exp(-0.5j * grid.epsilon * kappa ** 2 * 0.01)
    if n >= FOUR_STEP_MIN_POINTS:
        assert S.shape == prop.pre_flow.shape == (L, R)
        S, got_flow = S.T.reshape(-1), prop.pre_flow.T.reshape(-1)
    else:
        assert S.shape == prop.pre_flow.shape == (n,)
        got_flow = prop.pre_flow
    assert prop.post_flow is prop.pre_flow
    assert np.max(np.abs(S - flat)) <= 1e-13 * np.max(np.abs(flat))
    assert np.max(np.abs(got_flow - flow)) <= 1e-15


@pytest.mark.parametrize("order", ["lie", "strang"])
def test_ts_evolve_matches_oracle_at_the_benchmark_size(order):
    grid = build_grid(1.0 / 1024, 32)
    V = kronig_penney(32)
    T, N = 0.01, 10
    cfg = StepperConfig("ts", order, T / N, lattice=V, external=HARMONIC)
    ref = psi = sample_gaussian(grid)
    for _ in range(N):
        ref = _oracle_ts_step(ref, V, HARMONIC, T / N, order)
    got = evolve(psi, cfg, T, N).final
    assert np.max(np.abs(got.values - ref.values)) <= TOL


@pytest.mark.parametrize("lattice", sorted(LATTICES))
def test_ts_propagator_conserves_mass(lattice):
    grid = build_grid(1.0 / 32, 32)
    prop = TSPropagator(grid, LATTICES[lattice](32), HARMONIC, 0.001, "strang")
    psi = sample_gaussian(grid)
    m0 = discrete_norms(psi)[0]
    for _ in range(50):
        psi = prop.step(psi)
        assert abs(discrete_norms(psi)[0] - m0) <= 1e-13


@pytest.mark.parametrize("scheme", ["bd", "ts"])
def test_cached_config_repeats_and_rejects_other_grids(scheme):
    tab = _table("kp", 8, 16)
    cfg = StepperConfig(scheme, "strang", 0.01, bands=tab,
                        lattice=kronig_penney(16), external=HARMONIC)
    psi = _random_field(tab.grid, np.random.default_rng(7))
    first = step(psi, cfg)
    prop = cfg.propagator(psi.grid)
    again = step(psi, cfg)
    assert cfg.propagator(psi.grid) is prop
    assert np.array_equal(first.values, again.values)
    other = sample_gaussian(build_grid(1.0 / 8, 32))
    if scheme == "bd":
        with pytest.raises(ShapeMismatch):
            step(other, cfg)
    assert np.array_equal(step(psi, cfg).values, first.values)
    with pytest.raises(FrozenInstanceError):
        cfg.dt = 0.02

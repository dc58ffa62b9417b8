from functools import lru_cache

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from blochstep import (
    BandTable,
    BlochCoeffs,
    BlochTransform,
    WaveField,
    band_masses,
    band_project,
    band_reconstruct,
    build_grid,
    cell_forward,
    cell_inverse,
    discrete_norms,
    eval_chi,
    from_samples,
    kronig_penney,
    mathieu,
    sample_gaussian,
    solve_bands,
)
from blochstep.errors import ShapeMismatch, TruncationMismatch


def random_field(grid, rng):
    return WaveField(grid, rng.standard_normal((grid.L, grid.R))
                     + 1j * rng.standard_normal((grid.L, grid.R)))


def test_cell_forward_direct_summation_oracle(rng):
    grid = build_grid(1.0 / 4, 8)
    psi = random_field(grid, rng)
    tilde = cell_forward(psi)
    x1 = grid.x_nodes[:, 0]
    for l, k in enumerate(grid.k_nodes):
        for r in range(grid.R):
            direct = np.sum(psi.values[:, r] * np.exp(-1j * k * x1 / grid.epsilon
                                                      * 2 * np.pi / (2 * np.pi)))
            # x_{j,1} = 2*pi*eps*(j-1); the transform phase is k * 2*pi*(j-1)
            direct = np.sum(psi.values[:, r]
                            * np.exp(-2j * np.pi * k * np.arange(grid.L)))
            assert abs(tilde.values[l, r] - direct) < 1e-10


def test_single_cell_transform_is_identity(rng):
    grid = build_grid(1.0, 8)
    psi = random_field(grid, rng)
    tilde = cell_forward(psi)
    np.testing.assert_allclose(tilde.values, psi.values, atol=1e-13)


def test_bloch_wave_concentrates_on_one_row(rng):
    grid = build_grid(1.0 / 8, 16)
    l0 = 3
    k0 = grid.k_nodes[l0]
    g = rng.standard_normal(grid.R) + 1j * rng.standard_normal(grid.R)
    values = np.exp(2j * np.pi * k0 * np.arange(grid.L))[:, None] * g[None, :]
    tilde = cell_forward(WaveField(grid, values))
    np.testing.assert_allclose(tilde.values[l0], grid.L * g, atol=1e-10)
    mask = np.ones(grid.L, dtype=bool)
    mask[l0] = False
    assert np.max(np.abs(tilde.values[mask])) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1),
       st.sampled_from([(1, 8), (2, 8), (8, 16), (32, 8)]))
def test_cell_roundtrip_random_fields(seed, shape):
    L, R = shape
    rng = np.random.default_rng(seed)
    grid = build_grid(1.0 / L, R)
    psi = random_field(grid, rng)
    back = cell_inverse(cell_forward(psi))
    assert np.max(np.abs(back.values - psi.values)) < 1e-12
    # Parseval for the length-L transform
    tilde = cell_forward(psi)
    assert abs(np.sum(np.abs(tilde.values) ** 2)
               - L * np.sum(np.abs(psi.values) ** 2)) < 1e-8


def test_band_project_orthonormality(mathieu_table):
    from blochstep.grid import CellField
    grid = mathieu_table.grid
    y = grid.y_nodes
    for m in (1, 2, 3):
        rows = [np.exp(1j * k * y) * eval_chi(mathieu_table, m, l, y)
                for l, k in enumerate(grid.k_nodes)]
        C = band_project(CellField(grid, np.array(rows)), mathieu_table)
        for mp in range(mathieu_table.M):
            expected = 2 * np.pi if (mp + 1) == m else 0.0
            assert np.max(np.abs(C.values[mp] - expected)) < 1e-10


def test_band_project_zero_field(mathieu_table):
    grid = mathieu_table.grid
    zero = WaveField(grid, np.zeros((grid.L, grid.R), dtype=complex))
    C = band_project(cell_forward(zero), mathieu_table)
    assert np.max(np.abs(C.values)) == 0.0


def test_projection_reconstruction_identity_on_band_limited(mathieu_table, rng):
    C0 = BlochCoeffs(mathieu_table,
                     rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8)))
    tilde = band_reconstruct(C0)
    C1 = band_project(tilde, mathieu_table)
    assert np.max(np.abs(C1.values - C0.values)) < 1e-8
    tilde2 = band_reconstruct(C1)
    assert np.max(np.abs(tilde2.values - tilde.values)) < 1e-8


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_projection_idempotency_random_fields(seed):
    rng = np.random.default_rng(seed)
    grid = build_grid(1.0 / 8, 16)
    tab = solve_bands(mathieu(16), grid, 16, 4)
    psi = random_field(grid, rng)
    C1 = band_project(cell_forward(psi), tab)
    C2 = band_project(band_reconstruct(C1), tab)
    assert np.max(np.abs(C2.values - C1.values)) < 1e-10


def test_gauge_covariance(mathieu_table, rng):
    grid = mathieu_table.grid
    psi = sample_gaussian(grid)
    tilde = cell_forward(psi)
    C = band_project(tilde, mathieu_table)
    recon = cell_inverse(band_reconstruct(C))
    thetas = rng.uniform(0, 2 * np.pi, (mathieu_table.M, grid.L))
    twisted = type(mathieu_table)(
        grid=grid, M=mathieu_table.M, Lambda=mathieu_table.Lambda,
        energies=mathieu_table.energies,
        vectors=mathieu_table.vectors * np.exp(1j * thetas)[:, :, None],
        potential=mathieu_table.potential)
    C2 = band_project(tilde, twisted)
    np.testing.assert_allclose(C2.values, C.values * np.exp(-1j * thetas),
                               atol=1e-12)
    recon2 = cell_inverse(band_reconstruct(C2))
    assert np.max(np.abs(recon2.values - recon.values)) < 1e-12


def test_truncation_mismatch_rejected(mathieu_table):
    # a hand-built table whose window cannot cover the R lowest frequencies
    grid = mathieu_table.grid
    bad = type(mathieu_table)(
        grid=grid, M=mathieu_table.M, Lambda=grid.R // 2,
        energies=mathieu_table.energies,
        vectors=mathieu_table.vectors[:, :, :grid.R],
        potential=mathieu_table.potential)
    psi = sample_gaussian(grid)
    with pytest.raises(TruncationMismatch):
        band_project(cell_forward(psi), bad)


def test_band_mass_single_band_field(mathieu_table):
    grid = mathieu_table.grid
    single = np.zeros((mathieu_table.M, grid.L), dtype=complex)
    single[0] = 1.0
    psi = cell_inverse(band_reconstruct(BlochCoeffs(mathieu_table, single)))
    masses = band_masses(psi, mathieu_table)
    total = np.sqrt(np.sum(masses ** 2))
    assert masses[0] / total > 1 - 1e-10
    assert np.max(masses[1:]) < 1e-10 * masses[0]


@pytest.mark.parametrize("table", ["mathieu_table", "kp_table"])
def test_band_masses_match_single_band_reconstruction(table, request, rng):
    # the Parseval form against the explicit physical-space band field
    tab = request.getfixturevalue(table)
    psi = random_field(tab.grid, rng)
    masses = band_masses(psi, tab)
    C = band_project(cell_forward(psi), tab)
    for m in range(tab.M):
        single = np.zeros_like(C.values)
        single[m] = C.values[m]
        part = cell_inverse(band_reconstruct(BlochCoeffs(tab, single)))
        assert abs(masses[m] - discrete_norms(part)[0]) <= 1e-12


def test_band_masses_complete_for_gaussian(baseline_mathieu):
    psi = sample_gaussian(baseline_mathieu.grid)
    masses = band_masses(psi, baseline_mathieu)
    assert abs(np.sum(masses ** 2) - 1.0) < 1e-3


# ---- oracle: the earlier flat-FFT + gather Bloch transform ----

class _FlatGatherOracle:
    """One length-LR FFT of the flat samples psi_n, n = l*R + r (0-based),
    then a gather: window mode lam of row l is bin
    kappa = L*lam + l - L/2 (mod LR), and C_{m,l} = (2*pi/R) sum_lam
    conj(chi_{m,l,lam}) F_kappa.  For odd L kappa is a half-integer, so psi_n
    is first multiplied by exp(i*pi*n/(LR)) and kappa rounded down.
    Reconstruction scatters into the spectrum, inverts the FFT and undoes the
    modulation."""

    def __init__(self, bands):
        L, R = self.shape = (bands.grid.L, bands.grid.R)
        lo = bands.Lambda - R // 2
        self.chi = bands.vectors[:, :, lo:lo + R]  # (M, L, R)
        lam = np.arange(R) - R // 2
        self.index = (L * lam + np.arange(L)[:, None] - L // 2) % (L * R)
        self.modulation = (np.exp(1j * np.pi * np.arange(L * R) / (L * R))
                           if L % 2 else None)

    def project(self, values):
        L, R = self.shape
        flat = values.reshape(-1)
        if self.modulation is not None:
            flat = flat * self.modulation
        F = scipy.fft.fft(flat)[self.index]
        return (2 * np.pi / R) * np.einsum("mlr,lr->ml", np.conj(self.chi), F)

    def reconstruct(self, C):
        L, R = self.shape
        spectrum = np.empty(L * R, dtype=complex)
        spectrum[self.index] = np.einsum("ml,mlr->lr", C, self.chi)
        psi = scipy.fft.ifft(spectrum) * (R / (2 * np.pi))
        if self.modulation is not None:
            psi *= np.conj(self.modulation)
        return psi.reshape(L, R)

    def masses(self, values):
        L = self.shape[0]
        weights = np.sum(np.abs(self.chi) ** 2, axis=2)
        return np.sqrt(np.sum(np.abs(self.project(values)) ** 2 * weights,
                              axis=1) / (2 * np.pi * L * L))


def _asymmetric(Lambda):
    """A real lattice potential without reflection symmetry: complex V-hat."""
    y = 2 * np.pi * np.arange(8 * Lambda) / (8 * Lambda)
    return from_samples(np.sin(y) + 0.3 * np.cos(2 * y) + 0.2 * np.sin(3 * y),
                        Lambda)


LATTICES = {"mathieu": mathieu, "kp": kronig_penney, "asymmetric": _asymmetric}


@lru_cache(maxsize=None)
def _table(lattice, L, R):
    Lambda = R // 2 + 4
    return solve_bands(LATTICES[lattice](Lambda), build_grid(1.0 / L, R),
                       Lambda, 4)


def _relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("L", [1, 2, 3, 7, 8, 32, 1024])
def test_cell_space_transform_matches_flat_gather_oracle(lattice, L):
    rng = np.random.default_rng(L)
    for R in (4, 8, 32):
        tab = _table(lattice, L, R)
        tr, oracle = BlochTransform(tab), _FlatGatherOracle(tab)
        psi = random_field(tab.grid, rng).values
        assert _relative_gap(tr.forward(psi).T, oracle.project(psi)) <= 1e-12
        assert _relative_gap(tr.masses(psi), oracle.masses(psi)) <= 1e-12
        C = (rng.standard_normal((tab.M, L))
             + 1j * rng.standard_normal((tab.M, L)))
        assert _relative_gap(tr.backward(C.T), oracle.reconstruct(C)) <= 1e-12


@pytest.mark.parametrize("lattice", sorted(LATTICES))
@pytest.mark.parametrize("L,R", [(1, 8), (3, 4), (8, 32), (32, 32), (1024, 8)])
def test_table_is_the_sampled_windowed_bloch_wave(lattice, L, R):
    # eval_chi on a table cut to the R-mode window, so that no mode outside
    # it aliases onto the cell grid
    tab = _table(lattice, L, R)
    lo = tab.Lambda - R // 2
    window = BandTable(grid=tab.grid, M=tab.M, Lambda=R // 2,
                       energies=tab.energies,
                       vectors=tab.vectors[:, :, lo:lo + R],
                       potential=tab.potential)
    grid, y = tab.grid, tab.grid.y_nodes
    want = np.array([[np.exp(1j * k * y) * eval_chi(window, m + 1, l, y)
                      for m in range(tab.M)]
                     for l, k in enumerate(grid.k_nodes)])
    assert _relative_gap(BlochTransform(tab).waves, want) <= 1e-13


def test_table_phases_are_exact_at_large_L():
    # one-hot window vectors make each table entry a pure phase,
    # exp(i*pi*q/(LR)) with q = (2*(L*lam + l) - L)*r reduced mod 2LR in
    # integers; a phase taken from the unreduced float argument, which
    # reaches (R + 1)*pi here, is off by about 1e-14
    L, R = 1024, 32
    Lambda = R // 2 + 1
    vectors = np.zeros((R, L, 2 * Lambda), dtype=complex)
    vectors[np.arange(R), :, np.arange(R) + Lambda - R // 2] = 1.0
    tab = BandTable(grid=build_grid(1.0 / L, R), M=R, Lambda=Lambda,
                    energies=np.zeros((R, L)), vectors=vectors,
                    potential=mathieu(Lambda))
    l = np.arange(L)[:, None, None]
    lam = np.arange(R)[None, :, None] - R // 2
    q = (2 * (L * lam + l) - L) * np.arange(R) % (2 * L * R)
    want = np.exp(1j * np.pi * q / (L * R))
    assert np.max(np.abs(BlochTransform(tab).waves - want)) <= 3e-15

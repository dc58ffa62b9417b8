import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochstep import (
    assemble_hk,
    berry_connection,
    build_grid,
    eval_band,
    eval_band_deriv,
    eval_chi,
    fold_k,
    from_samples,
    kronig_penney,
    mathieu,
    solve_bands,
)
from blochstep.bands import load_band_cache, save_band_cache
from blochstep.errors import (
    BandCountExceedsTruncation,
    BandGapTooSmall,
    BandIndexOutOfRange,
    IoFailure,
)


def free_potential(Lambda):
    return from_samples(np.zeros(8 * Lambda), Lambda)


def test_assemble_free_diag():
    H = assemble_hk(free_potential(1), 0.0, 1)
    np.testing.assert_allclose(H, np.diag([0.5, 0.0]), atol=1e-14)


def test_assemble_mathieu_tridiagonal():
    H = assemble_hk(mathieu(4), 0.3, 4)
    off = np.abs(np.triu(H, 2))
    assert np.max(off) == 0.0
    assert np.allclose(np.diag(H, 1), 0.5)
    np.testing.assert_allclose(H, H.conj().T, atol=1e-14)


def test_assemble_mathieu_lambda2_diagonal():
    H = assemble_hk(mathieu(2), 0.25, 2)
    np.testing.assert_allclose(
        np.diag(H).real, [1.53125, 0.28125, 0.03125, 0.78125], atol=1e-14)


def test_free_particle_bands_exact():
    grid = build_grid(1.0 / 8, 16)
    tab = solve_bands(free_potential(16), grid, 16, 6)
    for l, k in enumerate(grid.k_nodes):
        exact = np.sort(0.5 * (k + np.arange(-16, 16)) ** 2)[:6]
        np.testing.assert_allclose(tab.energies[:, l], exact, atol=1e-12)
    # touching bands at the zone edge
    l_edge = int(np.argmin(np.abs(grid.k_nodes + 0.5)))
    assert abs(tab.energies[0, l_edge] - 0.125) < 1e-12
    assert abs(tab.energies[1, l_edge] - 0.125) < 1e-12


def test_mathieu_ground_energy_vs_large_truncation():
    grid = build_grid(1.0 / 8, 16)
    small = solve_bands(mathieu(32), grid, 32, 1)
    big = solve_bands(mathieu(256), grid, 256, 1)
    assert abs(small.energies[0, 0] - big.energies[0, 0]) < 1e-10


def _kp_dispersion_gap(E, k):
    """Residual of the exact two-layer transfer-matrix dispersion relation,
    at a scalar or an array E."""
    a = np.sqrt(2 * np.asarray(E, dtype=complex))
    b = np.sqrt(2 * (np.asarray(E, dtype=complex) - 1))
    val = (np.cos(a * np.pi) * np.cos(b * np.pi)
           - (a * a + b * b) / (2 * a * b)
           * np.sin(a * np.pi) * np.sin(b * np.pi))
    return val.real - np.cos(2 * np.pi * k)


def test_kronig_penney_exact_dispersion():
    import scipy.optimize
    grid = build_grid(1.0 / 8, 16)
    tab = solve_bands(kronig_penney(256), grid, 256, 4)
    for k in (0.0, 0.25):
        for m in (1, 2, 3):
            E = float(eval_band(tab, m, k))
            root = scipy.optimize.brentq(
                lambda e: _kp_dispersion_gap(e, k), E - 0.05, E + 0.05)
            assert abs(E - root) < 1e-6


def _kp_exact_energies(k, count=6):
    """The count lowest exact Kronig-Penney energies at k in (0, 1/2), where
    each band crosses cos(2 pi k) once: roots bracketed by a scan of E in
    (0, 8), whose points miss E = 0 and E = 1, and refined by brentq."""
    import scipy.optimize
    E = 1e-3 + 2e-3 * np.arange(4000)
    g = _kp_dispersion_gap(E, k)
    brackets = np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:]))[:count]
    assert len(brackets) == count
    return np.array([scipy.optimize.brentq(_kp_dispersion_gap, E[i], E[i + 1],
                                           args=(k,), xtol=1e-14)
                     for i in brackets])


def test_kronig_penney_eigenvalues_converge_at_third_order():
    """The six lowest eigenvalues of H(k) against the exact energies at
    three k: the error falls as Lambda^-3, the order a jump in V gives
    (measured 2.9e-5, 3.6e-6 and 4.5e-7 at Lambda = 16, 32 and 64)."""
    ks = (0.1, 0.3, 0.37)
    exact = {k: _kp_exact_energies(k) for k in ks}
    errors = [max(np.max(np.abs(np.linalg.eigvalsh(
        assemble_hk(kronig_penney(Lambda), k, Lambda))[:6] - exact[k]))
        for k in ks) for Lambda in (16, 32, 64)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 6.0 <= coarse / fine <= 10.0
    assert errors[-1] < 5e-7


def _ts_cell_energies(R, k):
    """Eigenvalues of TS's band problem at k: the R-point cell
    y_j = 2 pi j / R with the Kronig-Penney profile sampled pointwise, as
    TSPropagator samples the lattice but on one cell, so that no jump sample
    moves by round-off, and the spectral kinetic term (1/2)(xi + k)^2 on the
    DFT frequencies xi."""
    y = 2 * np.pi * np.arange(R) / R
    xi = np.fft.fftfreq(R, d=1.0 / R)
    kinetic = np.fft.ifft(0.5 * (xi[:, None] + k) ** 2
                          * np.fft.fft(np.eye(R), axis=0), axis=0)
    return np.linalg.eigvalsh(kinetic + np.diag(kronig_penney(2).sample(y)))


def test_ts_band_error_on_kronig_penney_is_first_order():
    """TS's lattice error on Kronig-Penney: band 2 of the sampled cell
    problem against the exact energies at three k falls as R^-1, the order
    pointwise samples of a jump give (measured 5.43e-2 and 2.73e-2 at
    R = 32 and 64, far above the Galerkin table's 3.6e-6 at Lambda = 32)."""
    ks = (0.1, 0.3, 0.37)
    exact = {k: _kp_exact_energies(k)[1] for k in ks}
    errors = [max(abs(_ts_cell_energies(R, k)[1] - exact[k]) for k in ks)
              for R in (32, 64)]
    assert 1.6 <= errors[0] / errors[1] <= 2.5


def test_band_table_invariants(mathieu_table):
    tab = mathieu_table
    # ordering, unit coefficient norm, eigen-residual
    assert np.all(np.diff(tab.energies, axis=0) >= -1e-12)
    norms = np.sum(np.abs(tab.vectors) ** 2, axis=2)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    for m in range(tab.M):
        for l, k in enumerate(tab.grid.k_nodes):
            H = assemble_hk(tab.potential, k, tab.Lambda)
            v = tab.vectors[m, l]
            E = tab.energies[m, l]
            assert np.linalg.norm(H @ v - E * v) <= 1e-10 * (1 + abs(E))
    # parallel-transport gauge continuity
    for m in range(tab.M):
        for l in range(tab.grid.L - 1):
            ov = np.vdot(tab.vectors[m, l], tab.vectors[m, l + 1])
            assert ov.real >= 0


def test_band_symmetry_real_potential(mathieu_table):
    grid = mathieu_table.grid
    for m in range(1, 5):
        for k in (0.1, 0.23, 0.4):
            e1 = float(eval_band(mathieu_table, m, k))
            e2 = float(eval_band(mathieu_table, m, -k))
            assert abs(e1 - e2) < 1e-10


def test_eval_band_collocates_and_folds(mathieu_table):
    grid = mathieu_table.grid
    for l, k in enumerate(grid.k_nodes):
        assert abs(float(eval_band(mathieu_table, 2, k))
                   - mathieu_table.energies[1, l]) < 1e-12
        assert abs(float(eval_band(mathieu_table, 2, k + 1.0))
                   - mathieu_table.energies[1, l]) < 1e-12


def test_eval_band_offnode_against_direct_solve():
    grid = build_grid(1.0 / 64, 8)
    tab = solve_bands(mathieu(16), grid, 16, 2)
    k = 0.23
    H = assemble_hk(mathieu(16), k, 16)
    exact = np.linalg.eigvalsh(H)[0]
    assert abs(float(eval_band(tab, 1, k)) - exact) < 1e-8


@pytest.mark.parametrize("L", [1, 7, 8])
def test_eval_band_deriv_against_central_difference(L):
    # even L exercises the symmetrized Nyquist mode, odd L has none
    tab = solve_bands(kronig_penney(16), build_grid(1.0 / L, 8), 16, 2)
    k = np.linspace(-1.3, 1.7, 31)
    h = 1e-6
    fd = (eval_band(tab, 2, k + h) - eval_band(tab, 2, k - h)) / (2 * h)
    np.testing.assert_allclose(eval_band_deriv(tab, 2, k), fd,
                               atol=1e-6 * (1 + np.max(np.abs(fd))))


def _unblocked_trig(table, m, k, deriv):
    """The trigonometric interpolant with the whole (points, L) basis of
    complex exponentials formed at once."""
    L = table.grid.L
    coeff = np.fft.fft(table.energies[m - 1]) / L
    w = 2.0 * np.pi * np.fft.fftfreq(L, d=1.0 / L)
    basis = (1j * w) ** deriv * np.exp(
        1j * np.multiply.outer(np.asarray(k, dtype=float) + 0.5, w))
    if L % 2 == 0:
        basis[..., L // 2] = basis[..., L // 2].real
    return np.tensordot(basis, coeff, axes=1).real


@pytest.mark.parametrize("L", [1, 2, 7, 32, 1024])
def test_eval_band_blocks_match_unblocked_oracle(L):
    tab = solve_bands(mathieu(4), build_grid(1.0 / L, 4), 4, 2)
    # 1201 points are four blocks at L = 1024, the last one short; the
    # 1-point and 0-d calls are those of bicharacteristics and of scalars
    ks = [np.linspace(-0.7, 0.6, 1201),
          np.linspace(-2.0, 2.0, 60).reshape(3, 4, 5), np.float64(0.3), -1.2,
          np.array([0.21])]
    for k in ks:
        for deriv, fn in ((0, eval_band), (1, eval_band_deriv)):
            for m in (1, 2):
                want = _unblocked_trig(tab, m, k, deriv)
                got = fn(tab, m, k)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * max(
                    1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("L", [2, 32, 1024])
def test_eval_band_nyquist_mode_and_its_derivative(L):
    # adding 0.3*(-1)^l to the node values adds 0.3*cos(pi*L*s), s = k + 1/2,
    # to the interpolant and -0.3*pi*L*sin(pi*L*s) to its derivative
    tab = solve_bands(mathieu(4), build_grid(1.0 / L, 4), 4, 2)
    rough = dataclasses.replace(
        tab, energies=tab.energies + 0.3 * (-1.0) ** np.arange(L))
    k = np.linspace(-0.7, 0.6, 257)
    s = k + 0.5
    for m in (1, 2):
        got = eval_band_deriv(rough, m, k)
        want = eval_band_deriv(tab, m, k) - 0.3 * np.pi * L * np.sin(
            np.pi * L * s)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert np.max(np.abs(got - _unblocked_trig(rough, m, k, 1))) \
            <= 1e-12 * scale
        assert np.max(np.abs(eval_band(rough, m, k) - eval_band(tab, m, k)
                             - 0.3 * np.cos(np.pi * L * s))) <= 1e-12


@pytest.mark.parametrize("L", [7, 32])
def test_eval_band_non_finite_k_gives_nan(L):
    tab = solve_bands(mathieu(4), build_grid(1.0 / L, 4), 4, 2)
    k = np.array([0.1, np.nan, np.inf, -np.inf, 0.2])
    for fn in (eval_band, eval_band_deriv):
        with np.errstate(invalid="ignore"):
            got = fn(tab, 1, k)
        assert np.all(np.isnan(got[1:4])) and np.all(np.isfinite(got[[0, 4]]))


def test_eval_band_deriv_memory_stays_small_at_large_L():
    # the 4L + 1 = 4097-point grid of hj_solve at L = 1024: the unblocked
    # basis peaked at 134 MB there
    tab = solve_bands(mathieu(4), build_grid(1.0 / 1024, 4), 4, 2)
    kfine = np.linspace(-0.5, 0.5, 4 * 1024 + 1)
    tracemalloc.start()
    try:
        eval_band_deriv(tab, 1, kfine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_eval_band_rejects_bad_index(mathieu_table):
    with pytest.raises(BandIndexOutOfRange):
        eval_band(mathieu_table, 9, 0.0)


def test_eval_chi_periodic_and_normalized(mathieu_table):
    y = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    chi = eval_chi(mathieu_table, 1, 2, y)
    chi_shift = eval_chi(mathieu_table, 1, 2, y + 2 * np.pi)
    np.testing.assert_allclose(chi, chi_shift, atol=1e-12)
    quad = np.sum(np.abs(chi) ** 2) * (2 * np.pi / y.size)
    assert abs(quad - 2 * np.pi) < 1e-10


def test_eval_chi_free_plane_wave():
    grid = build_grid(1.0 / 8, 16)
    tab = solve_bands(free_potential(16), grid, 16, 1)
    l = int(np.argmin(np.abs(grid.k_nodes - 0.125)))
    y = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    chi = eval_chi(tab, 1, l, y)
    # ground state of the free problem at small k is the lam=0 plane wave
    assert np.max(np.abs(chi - chi[0])) < 1e-12
    assert abs(abs(chi[0]) - 1.0) < 1e-12


@pytest.fixture(scope="module")
def kp_l32_table():
    return solve_bands(kronig_penney(64), build_grid(1.0 / 32, 64), 64, 4)


@pytest.fixture(scope="module")
def kp_l1024_table():
    return solve_bands(kronig_penney(32), build_grid(1.0 / 1024, 16), 32, 4)


@pytest.mark.parametrize("table", ["baseline_mathieu", "kp_l32_table",
                                   "kp_l1024_table"])
def test_berry_connection_matches_per_node_oracle(table, request,
                                                 berry_per_node):
    tab = request.getfixturevalue(table)
    for m in range(1, tab.M + 1):
        beta = berry_connection(tab, m)
        assert beta.shape == (tab.grid.L,) and beta.dtype == float
        want = berry_per_node(tab, m)
        assert not want.imag.any()
        assert np.max(np.abs(beta - want.real)) <= 1e-12


def test_berry_connection_free_and_mathieu(mathieu_table):
    grid = build_grid(1.0 / 8, 16)
    free = solve_bands(free_potential(16), grid, 16, 1)
    l = int(np.argmin(np.abs(grid.k_nodes - 0.125)))
    assert abs(berry_connection(free, 1)[l]) < 1e-10
    l0 = int(np.argmin(np.abs(mathieu_table.grid.k_nodes)))
    assert abs(berry_connection(mathieu_table, 1)[l0]) < 1e-8


def test_berry_connection_refuses_near_crossing():
    grid = build_grid(1.0 / 8, 16)
    free = solve_bands(free_potential(16), grid, 16, 2)
    with pytest.raises(BandGapTooSmall, match="node 0"):
        berry_connection(free, 1)


def test_berry_connection_k_refinement():
    beta = []
    for L in (16, 32, 64):
        grid = build_grid(1.0 / L, 8)
        tab = solve_bands(mathieu(16), grid, 16, 2)
        l = int(np.argmin(np.abs(grid.k_nodes - 0.25)))
        beta.append(berry_connection(tab, 2)[l])
    # centered difference: successive halvings of the k spacing shrink the
    # discretization part of beta by ~4x
    assert abs(beta[1]) < 0.4 * abs(beta[0])
    assert abs(beta[2]) < 0.4 * abs(beta[1])


def test_variational_monotonicity_in_truncation():
    grid = build_grid(1.0 / 4, 8)
    prev = None
    for Lambda in (8, 16, 32):
        tab = solve_bands(mathieu(Lambda), grid, Lambda, 3)
        if prev is not None:
            assert np.all(tab.energies <= prev + 1e-12)
        prev = tab.energies


def test_solve_bands_rejects_m_beyond_truncation():
    grid = build_grid(1.0 / 4, 8)
    with pytest.raises(BandCountExceedsTruncation):
        solve_bands(mathieu(2), grid, 2, 5)


@pytest.mark.parametrize("lattice", [mathieu, kronig_penney])
@pytest.mark.parametrize("M", [0, -1])
def test_solve_bands_rejects_m_below_one(lattice, M, monkeypatch):
    """One ValueError before any solve, whatever the lattice."""
    def no_solve(*args, **kwargs):
        raise AssertionError("no eigensolve for M < 1")
    monkeypatch.setattr("blochstep.bands._lowest_eigenpairs", no_solve)
    with pytest.raises(ValueError, match=r"^M must be >= 1$"):
        solve_bands(lattice(8), build_grid(1.0 / 4, 8), 8, M)


def test_cache_roundtrip_and_corruption(tmp_path, mathieu_table):
    path = tmp_path / "bands.bin"
    save_band_cache(mathieu_table, path)
    back = load_band_cache(path, mathieu_table.grid, mathieu_table.potential)
    np.testing.assert_allclose(back.energies, mathieu_table.energies, atol=0)
    np.testing.assert_allclose(back.vectors, mathieu_table.vectors, atol=0)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(IoFailure):
        load_band_cache(path, mathieu_table.grid, mathieu_table.potential)


def test_cache_damage_raises_io_failure(tmp_path, mathieu_table):
    grid, V = mathieu_table.grid, mathieu_table.potential
    with pytest.raises(IoFailure):
        load_band_cache(tmp_path / "missing.bin", grid, V)
    path = tmp_path / "bands.bin"
    save_band_cache(mathieu_table, path)
    data = path.read_bytes()
    # cut inside the 36-byte header
    path.write_bytes(data[:20])
    with pytest.raises(IoFailure):
        load_band_cache(path, grid, V)
    # header M or Lambda off by one; the payload and its checksum are intact
    for offset in (8, 12):
        bad = bytearray(data)
        bad[offset:offset + 4] = (int.from_bytes(data[offset:offset + 4], "little")
                                  + 1).to_bytes(4, "little")
        path.write_bytes(bytes(bad))
        with pytest.raises(IoFailure):
            load_band_cache(path, grid, V)


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0))
def test_fold_k_range_and_periodicity(k):
    kf = float(fold_k(k))
    assert -0.5 <= kf < 0.5
    assert abs(float(fold_k(k + 1.0)) - kf) < 1e-12

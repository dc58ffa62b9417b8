"""End-to-end acceptance checks for the solver suite at desk scale.

Each test pins one headline behavior: oracle agreement, convergence orders,
scheme robustness, conserved quantities, and the asymptotic comparison.
Large-scale variants (epsilon = 1/1024) run only with BLOCHSTEP_EXTENDED=1.
"""

import os

import numpy as np
import pytest

from blochstep import (
    StepperConfig,
    WaveField,
    build_grid,
    discrete_norms,
    evolve,
    external_from_spec,
    from_samples,
    hj_solve,
    kronig_penney,
    mathieu,
    sample_gaussian,
    solve_bands,
    wkb_compare,
)
from blochstep.grid import field_difference
from blochstep.harness import ExperimentConfig, run_convergence_study
from blochstep.transform import (
    BlochCoeffs,
    band_masses,
    band_project,
    band_reconstruct,
    cell_forward,
    cell_inverse,
)

NONE = external_from_spec("none")
HARMONIC = external_from_spec("harmonic")

EXTENDED = os.environ.get("BLOCHSTEP_EXTENDED") == "1"
extended = pytest.mark.skipif(
    not EXTENDED, reason="set BLOCHSTEP_EXTENDED=1 for large-scale runs")


def test_01_free_particle_closed_form():
    eps = 1.0 / 32
    grid = build_grid(eps, 32)
    tab = solve_bands(from_samples(np.zeros(256), 32), grid, 32, 24)
    psi0 = sample_gaussian(grid)
    T = 0.1
    out = evolve(psi0, StepperConfig("bd", "strang", T, bands=tab,
                                     external=NONE), T, 1).final
    a = 5.0
    denom = 1.0 + 2j * a * eps * T
    x = grid.x_nodes
    exact = (10 / np.pi) ** 0.25 / np.sqrt(denom) * np.exp(
        -a * (x - np.pi) ** 2 / denom)
    assert discrete_norms(WaveField(grid, out.values - exact))[0] <= 1e-6


def test_02_one_step_exactness():
    grid = build_grid(1.0 / 32, 32)
    tab = solve_bands(mathieu(32), grid, 32, 8)
    psi0 = sample_gaussian(grid)
    cfg = StepperConfig("bd", "strang", 0.1, bands=tab, external=NONE)
    one = evolve(psi0, cfg, 0.1, 1).final
    many = evolve(psi0, cfg, 0.1, 100).final
    assert discrete_norms(field_difference(one, many))[0] <= 1e-10


def test_03_spatial_spectral_convergence():
    cfg = ExperimentConfig(scenario="spatial", epsilon=1 / 32, R=32, M=8,
                           Lambda=40, dt=0.01, T=0.1, schemes=("bd",),
                           external="none")
    report = run_convergence_study(cfg)[0]
    assert all(a > b for a, b in zip(report.l2, report.l2[1:]))
    assert report.orders[-1] > 6
    assert report.l2[-1] <= 1e-5


def test_04_temporal_second_order():
    eps = 1.0 / 32
    grid = build_grid(eps, 32)
    tab = solve_bands(mathieu(32), grid, 32, 8)
    psi0 = sample_gaussian(grid)
    T = 1.0

    def run(N):
        cfg = StepperConfig("bd", "strang", T / N, bands=tab,
                            external=HARMONIC)
        return evolve(psi0, cfg, T, N).final

    ref = run(6400)
    Ns = (20, 40, 80, 160, 320)
    errs = [discrete_norms(field_difference(run(N), ref))[0] for N in Ns]
    fit = np.polyfit(np.log([T / N for N in Ns]), np.log(errs), 1)[0]
    assert abs(fit - 2.0) <= 0.2


def test_05_ts_stagnation_vs_bd_robustness():
    eps = 1.0 / 256
    grid = build_grid(eps, 32)
    V = mathieu(64)
    tab = solve_bands(V, grid, 32, 8)
    psi0 = sample_gaussian(grid)
    T = 1.0
    grid_ref = build_grid(eps, 64)
    tab_ref = solve_bands(V, grid_ref, 64, 8)
    ref = evolve(sample_gaussian(grid_ref),
                 StepperConfig("bd", "strang", T / 1000, bands=tab_ref,
                               external=HARMONIC), T, 1000).final
    ref_c = WaveField(grid, ref.values[:, ::2])
    bd = evolve(psi0, StepperConfig("bd", "strang", T / 100, bands=tab,
                                    external=HARMONIC), T, 100).final
    ts = evolve(psi0, StepperConfig("ts", "strang", T / 1000, lattice=V,
                                    external=HARMONIC), T, 1000).final
    e_bd = discrete_norms(field_difference(bd, ref_c))[0]
    e_ts = discrete_norms(field_difference(ts, ref_c))[0]
    assert e_ts >= 10 * e_bd


def _plane_wave_band_masses(psi, V, Lambda, M):
    """Band norms of psi from the plane-wave Hamiltonian, sector by sector.

    -(eps^2/2) d_xx + V(x/eps) couples the mode exp(i n x) only to the modes
    n + L*lam, so it splits into L quasi-momentum sectors n = j + L*lam with
    k = j/L.  Each sector matrix is diagonalised directly, its eigenvectors
    ordered by energy, and the field's DFT coefficients projected onto them.
    Only V-hat is read from the package; no transform or band solver is used.
    """
    grid = psi.grid
    L, N = grid.L, grid.n_points
    # x_{l,r} in row-major order is the uniform grid 2*pi*i/N
    c = np.fft.fft(psi.values.ravel()) / N
    n = np.fft.fftfreq(N, 1.0 / N).astype(int)
    j = (n + L // 2) % L - L // 2
    lam_of_n = (n - j) // L
    lam = np.arange(-Lambda, Lambda)
    V_part = V.vhat(lam[:, None] - lam[None, :])
    weight = np.zeros(M)
    for jj in range(-L // 2, L // 2):
        H = V_part + np.diag(0.5 * (jj / L + lam) ** 2)
        _, vecs = np.linalg.eigh(H)
        sector = np.zeros(2 * Lambda, dtype=complex)
        in_sector = j == jj
        sector[lam_of_n[in_sector] + Lambda] = c[in_sector]
        weight += np.abs(vecs[:, :M].conj().T @ sector) ** 2
    # discrete Parseval: dx * sum |psi|^2 = 2*pi * sum |c_n|^2
    return np.sqrt(2.0 * np.pi * weight)


def test_06_band_mass_table():
    grid = build_grid(1.0 / 32, 32)
    V = mathieu(32)
    tab = solve_bands(V, grid, 32, 8)
    psi = sample_gaussian(grid)
    masses = band_masses(psi, tab)
    assert abs(np.sum(masses ** 2) - 1.0) <= 2e-2
    # Reference norms for the first three bands.
    expected = [7.91e-1, 1.11e-1, 5.92e-1]
    for m, target in enumerate(expected):
        assert abs(masses[m] - target) <= 0.05 * target, (
            f"band {m + 1}: {masses[m]:.5f} vs {target:.5f}")
    # Every band against the plane-wave oracle, which shares no code with
    # the Bloch transform.  The reference table gives 8.80E-2 for band 4;
    # the stated problem gives 8.01E-2 there, converged in R, Lambda and M
    # (and 8.24E-2 in the continuum-k limit).  Bands 4 and 5 nearly touch at
    # k = 0, where the packet sits, and the energy-ordered band-5 norm
    # (8.67E-2) is within 1.4% of the reference figure, so the table likely
    # labels those bands differently; see the README.  The 1e-10 margin
    # covers bands 6 and 7, which are split by only 7e-5 at k = 0.
    oracle = _plane_wave_band_masses(psi, V, 32, 8)
    for m in range(8):
        assert abs(masses[m] - oracle[m]) <= 1e-10, (
            f"band {m + 1}: {masses[m]:.12f} vs oracle {oracle[m]:.12f}")


def test_07_mass_conservation():
    grid = build_grid(1.0 / 32, 32)
    tab = solve_bands(mathieu(32), grid, 32, 8)
    tr = evolve(sample_gaussian(grid),
                StepperConfig("bd", "strang", 0.01, bands=tab,
                              external=HARMONIC), 1.0, 100)
    assert abs(tr.mass_history[-1] - tr.mass_history[0]) <= 1e-5
    grid2 = build_grid(1.0 / 32, 64)
    tab2 = solve_bands(kronig_penney(64), grid2, 64, 8)
    tr2 = evolve(sample_gaussian(grid2),
                 StepperConfig("bd", "strang", 0.01, bands=tab2,
                               external=HARMONIC), 1.0, 100)
    assert abs(tr2.mass_history[-1] - tr2.mass_history[0]) <= 5e-3


def test_08_gauge_invariance_ten_seeds():
    from blochstep import step
    grid = build_grid(1.0 / 16, 16)
    tab = solve_bands(mathieu(16), grid, 16, 6)
    psi = sample_gaussian(grid)
    cfg = StepperConfig("bd", "strang", 0.02, bands=tab, external=HARMONIC)
    ref = step(psi, cfg)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        phases = np.exp(2j * np.pi * rng.random((6, grid.L)))
        twisted = type(tab)(grid=grid, M=6, Lambda=16,
                            energies=tab.energies,
                            vectors=tab.vectors * phases[:, :, None],
                            potential=tab.potential)
        out = step(psi, StepperConfig("bd", "strang", 0.02, bands=twisted,
                                      external=HARMONIC))
        assert np.max(np.abs(out.values - ref.values)) <= 1e-12


def test_09_wkb_comparison_band_resolved():
    grid = build_grid(1.0 / 32, 32)
    tab = solve_bands(mathieu(32), grid, 32, 8)
    cmp = wkb_compare(tab, 1, HARMONIC,
                      lambda x: np.exp(-5.0 * (x - np.pi) ** 2),
                      lambda x: 0.0 * x, grid, 1.0, 256, 1000)
    # The leading-order asymptotic field carries the off-band part of the
    # initial data unchanged, so the raw difference saturates at twice that
    # off-band mass (~0.04 here, shrinking linearly with epsilon); the
    # band-resolved difference isolates the phase/amplitude accuracy that
    # this check is about.
    assert cmp.sup_band_l2 <= 2e-2
    if cmp.caustic.detected:
        # only the artificial seam shear of the periodized harmonic force,
        # outside the support of the solution, may have triggered
        seam = min(cmp.caustic.x_c, 2 * np.pi - cmp.caustic.x_c)
        assert seam < 0.5


def test_10_caustic_onset_stable():
    grid = build_grid(1.0 / 32, 64)
    tab = solve_bands(kronig_penney(64), grid, 64, 8)
    tcs = []
    for nx in (1024, 2048):
        _, rep = hj_solve(tab, 2, HARMONIC, lambda x: -np.cos(x), 0.4, nx)
        assert rep.detected
        assert 0.19 <= rep.t_c <= 0.29
        tcs.append(rep.t_c)
    assert abs(tcs[1] - tcs[0]) <= 0.02


def test_11_transform_invariant_suite():
    rng = np.random.default_rng(7)
    for L in (1, 2, 8, 32):
        for R in (8, 16, 32):
            grid = build_grid(1.0 / L, R)
            psi = WaveField(grid, rng.standard_normal((L, R))
                            + 1j * rng.standard_normal((L, R)))
            tilde = cell_forward(psi)
            back = cell_inverse(tilde)
            assert np.max(np.abs(back.values - psi.values)) < 1e-12
            assert abs(np.sum(np.abs(tilde.values) ** 2)
                       - L * np.sum(np.abs(psi.values) ** 2)) \
                < 1e-10 * max(1.0, np.sum(np.abs(psi.values) ** 2))
            if R >= 16:
                # idempotency to 1e-10 needs the eigenvector coefficient
                # tails to fit inside the R-frequency window; at R=8 the
                # window truncation alone leaves a ~1e-5 floor
                tab = solve_bands(mathieu(R), grid, R, 4)
                C1 = band_project(tilde, tab)
                C2 = band_project(band_reconstruct(C1), tab)
                assert np.max(np.abs(C2.values - C1.values)) < 1e-10


def _fine_eps_temporal_errors(lattice, external, M):
    """dt-refinement errors at epsilon = 1/1024, t = 0.01, vs a 20x-finer
    BD reference on the same grid (spatial error cancels)."""
    eps = 1.0 / 1024
    grid = build_grid(eps, 128)
    tab = solve_bands(lattice, grid, 128, M)
    psi0 = sample_gaussian(grid)
    t_end = 0.01

    def run(scheme, dt_inv):
        N = round(t_end * dt_inv)
        if scheme == "bd":
            cfg = StepperConfig("bd", "strang", t_end / N, bands=tab,
                                external=external)
        else:
            cfg = StepperConfig("ts", "strang", t_end / N, lattice=lattice,
                                external=external)
        return evolve(psi0, cfg, t_end, N).final

    ref = run("bd", 16000)

    def err(scheme, dt_inv):
        return discrete_norms(field_difference(run(scheme, dt_inv), ref))[0]

    ts_errs = [err("ts", d) for d in (1000, 2000, 4000, 8000)]
    bd_errs = [err("bd", d) for d in (100, 200, 400, 800)]
    return ts_errs, bd_errs


def _fitted_order(errs, dts):
    return np.polyfit(np.log(dts), np.log(errs), 1)[0]


@extended
def test_extended_temporal_block_at_fine_epsilon():
    """TS stagnates while BD converges at second order, epsilon = 1/1024.

    Discontinuous lattice + harmonic external field at t = 0.01 with 32
    bands.  Two assertions are known to fail in this implementation and are
    kept at the stated tolerances rather than loosened to fit:
    - the TS stagnation level measures ~3.8e-1, a factor ~3.4 above the
      reference value 1.10e-1 (just outside the factor-3 window; the gap is
      consistent with an unstated norm-scaling convention in the reference
      figures: dividing by sqrt(2*pi) would land every entry inside);
    - TS stops stagnating at the finest step (dt = 1/8000 resolves the
      epsilon-oscillation here and the error drops at order ~2.6).
    """
    ts_errs, bd_errs = _fine_eps_temporal_errors(kronig_penney(128),
                                                 HARMONIC, 32)
    ts_orders = [np.log2(a / b) for a, b in zip(ts_errs, ts_errs[1:])]
    # robustness headline: TS at dt=1/1000 vs BD at dt=1/100
    assert ts_errs[0] >= 10 * bd_errs[0]
    # BD second order in dt (reference orders 2.6 / 2.1 / 2.0)
    assert all(a > b for a, b in zip(bd_errs, bd_errs[1:]))
    bd_fit = _fitted_order(bd_errs, [1 / 100, 1 / 200, 1 / 400, 1 / 800])
    assert abs(bd_fit - 2.0) <= 0.5
    # TS stagnation across the whole dt range (reference orders ~0)
    assert all(abs(o) < 0.5 for o in ts_orders)
    # stagnation level near 1.10e-1 within a factor 3
    assert 1.10e-1 / 3 <= ts_errs[2] <= 1.10e-1 * 3


@extended
def test_extended_linear_field_bd_error_at_fine_epsilon():
    """Smooth lattice + linear field at epsilon = 1/1024: BD l2 error
    ~3.3e-3 at dt = 1/100 within a factor 3, second order under refinement;
    TS converges at clean second order over dt = 1/1000..1/8000.

    The linear field strength is a free constant of the scenario (no
    reference value pins it); it is fixed at 0.5 here.
    """
    ts_errs, bd_errs = _fine_eps_temporal_errors(
        mathieu(128), external_from_spec("linear:0.5"), 32)
    assert 3.3e-3 / 3 <= bd_errs[0] <= 3.3e-3 * 3
    bd_fit = _fitted_order(bd_errs, [1 / 100, 1 / 200, 1 / 400, 1 / 800])
    assert abs(bd_fit - 2.0) <= 0.8
    ts_orders = [np.log2(a / b) for a, b in zip(ts_errs, ts_errs[1:])]
    assert all(abs(o - 2.0) < 0.2 for o in ts_orders)


@extended
def test_extended_kp_sup_error_at_fine_epsilon():
    """TS sup-norm error ~1.61 vs BD ~9.16e-2 for the non-smooth lattice."""
    eps = 1.0 / 1024
    grid = build_grid(eps, 32)
    V = kronig_penney(64)
    tab = solve_bands(V, grid, 32, 8)
    psi0 = sample_gaussian(grid)
    T = 1.0
    grid_ref = build_grid(eps, 64)
    tab_ref = solve_bands(V, grid_ref, 64, 8)
    ref = evolve(sample_gaussian(grid_ref),
                 StepperConfig("bd", "strang", T / 10000, bands=tab_ref,
                               external=HARMONIC), T, 10000).final
    ref_c = WaveField(grid, ref.values[:, ::2])
    ts = evolve(psi0, StepperConfig("ts", "strang", T / 1000, lattice=V,
                                    external=HARMONIC), T, 1000).final
    bd = evolve(psi0, StepperConfig("bd", "strang", T / 100, bands=tab,
                                    external=HARMONIC), T, 100).final
    ts_inf = discrete_norms(field_difference(ts, ref_c))[1]
    bd_inf = discrete_norms(field_difference(bd, ref_c))[1]
    assert 1.61 / 3 <= ts_inf <= 1.61 * 3
    assert bd_inf <= 3 * 9.16e-2

"""Time integrators: Bloch-decomposition stepper (BD) and classical
time-splitting spectral stepper (TS), each in Lie and Strang variants."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bands import BandTable
from .errors import NonFinite
from .grid import WaveField, discrete_norms
from .potential import EXTERNAL_NONE, ExternalPotential, PeriodicPotential
from .transform import (
    band_masses,
    band_project,
    band_reconstruct,
    cell_forward,
    cell_inverse,
)


@dataclass
class StepperConfig:
    """Scheme selection and per-step parameters for one solver setup."""

    scheme: str                 # "bd" | "ts"
    splitting_order: str        # "lie" | "strang"
    dt: float
    bands: Optional[BandTable] = None          # BD
    lattice: Optional[PeriodicPotential] = None  # TS
    external: ExternalPotential = field(default_factory=lambda: EXTERNAL_NONE)

    def __post_init__(self):
        if self.scheme not in ("bd", "ts"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.splitting_order not in ("lie", "strang"):
            raise ValueError(f"unknown splitting order {self.splitting_order!r}")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.scheme == "bd" and self.bands is None:
            raise ValueError("BD scheme needs a band table")
        if self.scheme == "ts" and self.lattice is None:
            raise ValueError("TS scheme needs a lattice potential")


def bd_periodic_flow(psi: WaveField, bands: BandTable, dt: float,
                     eps: float) -> WaveField:
    """Exact flow of the periodic part: project to Bloch coefficients,
    advance phases by exp(-i E_m(k_l) dt / eps), reconstruct."""
    tilde = cell_forward(psi)
    C = band_project(tilde, bands)
    C.values *= np.exp(-1j * bands.energies * (dt / eps))
    return cell_inverse(band_reconstruct(C))


def external_phase(psi: WaveField, U: ExternalPotential, dt: float,
                   eps: float) -> WaveField:
    """Pointwise unimodular multiply exp(-i U(x) dt / eps); preserves |psi|."""
    phase = np.exp(-1j * U(psi.grid.x_nodes) * (dt / eps))
    return WaveField(psi.grid, psi.values * phase)


def bd_step(psi: WaveField, config: StepperConfig) -> WaveField:
    """One BD step; Strang symmetrizes the periodic flow around the phase."""
    if config.scheme != "bd":
        raise ValueError("bd_step called with a non-BD config")
    eps = psi.grid.epsilon
    dt = config.dt
    if config.splitting_order == "lie":
        out = bd_periodic_flow(psi, config.bands, dt, eps)
        return external_phase(out, config.external, dt, eps)
    out = bd_periodic_flow(psi, config.bands, dt / 2, eps)
    out = external_phase(out, config.external, dt, eps)
    return bd_periodic_flow(out, config.bands, dt / 2, eps)


def _ts_kinetic(psi: WaveField, dt: float, eps: float) -> WaveField:
    """Pseudo-spectral free flow on the global [0, 2*pi]-periodic grid."""
    n = psi.grid.n_points
    flat = psi.values.reshape(n)
    kappa = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers on [0, 2*pi]
    out = np.fft.ifft(np.fft.fft(flat) * np.exp(-0.5j * eps * kappa ** 2 * dt))
    return WaveField(psi.grid, out.reshape(psi.grid.L, psi.grid.R))


def _ts_potential(psi: WaveField, lattice: PeriodicPotential,
                  U: ExternalPotential, dt: float, eps: float) -> WaveField:
    """Exact phase for the combined lattice + external potential, sampled
    pointwise at x/eps with no smoothing of discontinuities."""
    grid = psi.grid
    vtot = lattice.sample(grid.x_nodes / eps) + U(grid.x_nodes)
    return WaveField(grid, psi.values * np.exp(-1j * vtot * (dt / eps)))


def ts_step(psi: WaveField, config: StepperConfig) -> WaveField:
    """One classical time-splitting spectral step."""
    if config.scheme != "ts":
        raise ValueError("ts_step called with a non-TS config")
    eps = psi.grid.epsilon
    dt = config.dt
    if config.splitting_order == "lie":
        out = _ts_kinetic(psi, dt, eps)
        return _ts_potential(out, config.lattice, config.external, dt, eps)
    out = _ts_kinetic(psi, dt / 2, eps)
    out = _ts_potential(out, config.lattice, config.external, dt, eps)
    return _ts_kinetic(out, dt / 2, eps)


def step(psi: WaveField, config: StepperConfig) -> WaveField:
    return bd_step(psi, config) if config.scheme == "bd" else ts_step(psi, config)


@dataclass
class Trajectory:
    """Evolution output: final state plus optional snapshots and diagnostics."""

    final: WaveField
    times: list[float]
    snapshots: list[WaveField]
    mass_history: np.ndarray                 # (N + 1,) discrete l2 norms
    band_mass_history: Optional[np.ndarray]  # (N + 1, M) norms, if tracked


def evolve(psi0: WaveField, config: StepperConfig, T: float, N: int,
           snapshot_every: int = 0, track_band_masses: bool = False) -> Trajectory:
    """Apply N steps of size T/N, recording mass (and band masses on request)."""
    if N < 1 or T <= 0:
        raise ValueError("need N >= 1 and T > 0")
    cfg = StepperConfig(config.scheme, config.splitting_order, T / N,
                        bands=config.bands, lattice=config.lattice,
                        external=config.external)
    psi = psi0.copy()
    if not np.all(np.isfinite(psi.values)):
        raise NonFinite("non-finite field in the initial data")
    masses = [discrete_norms(psi)[0]]
    bmass = []
    if track_band_masses:
        if cfg.bands is None:
            raise ValueError("band-mass tracking needs a band table")
        bmass.append(band_masses(psi, cfg.bands))
    times = [0.0]
    snapshots = [psi.copy()] if snapshot_every else []
    for n in range(1, N + 1):
        psi = step(psi, cfg)
        if not np.all(np.isfinite(psi.values)):
            raise NonFinite(f"non-finite field after step {n}")
        masses.append(discrete_norms(psi)[0])
        if track_band_masses:
            bmass.append(band_masses(psi, cfg.bands))
        if snapshot_every and (n % snapshot_every == 0 or n == N):
            times.append(n * T / N)
            snapshots.append(psi.copy())
    return Trajectory(
        final=psi,
        times=times if snapshot_every else [0.0, T],
        snapshots=snapshots,
        mass_history=np.array(masses),
        band_mass_history=np.array(bmass) if track_band_masses else None,
    )

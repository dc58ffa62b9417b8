"""Time integrators: Bloch-decomposition stepper (BD) and classical
time-splitting spectral stepper (TS), each in Lie and Strang variants, as
propagators whose transform and phase tables are built once per step size."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.fft

from .bands import BandTable
from .errors import NonFinite
from .grid import SimulationGrid, WaveField, discrete_norms
from .potential import EXTERNAL_NONE, ExternalPotential, PeriodicPotential
from .transform import BlochTransform


class _Splitting:
    """Lie: flow(dt), then the phase; Strang: flow(dt/2), phase, flow(dt/2).
    Adjacent Strang half-flows are not merged: for BD, projecting onto M
    bands does not commute with the phase multiply."""

    def step(self, psi: WaveField) -> WaveField:
        out = self._flow(psi.values)
        out *= self.phase
        return WaveField(psi.grid, self._flow(out) if self.strang else out)


class BDPropagator(_Splitting):
    """The exact periodic flow exp(-i E_m(k_l) dt'/eps) on Bloch coefficients
    (dt' = dt/2 for Strang) around the external phase exp(-i U(x) dt/eps)."""

    def __init__(self, bands: BandTable, external: ExternalPotential,
                 dt: float, order: str):
        eps = bands.grid.epsilon
        self.strang = order == "strang"
        self.transform = BlochTransform(bands)
        flow_dt = dt / 2 if self.strang else dt
        self.band_phase = np.exp(-1j * bands.energies * (flow_dt / eps))
        self.phase = np.exp(-1j * external(bands.grid.x_nodes) * (dt / eps))

    def _flow(self, values):
        tr = self.transform
        return tr.reconstruct(tr.project(values) * self.band_phase)


class TSPropagator(_Splitting):
    """Pseudo-spectral free flow on the global [0, 2*pi]-periodic grid around
    the exact phase of lattice + external potential, sampled pointwise at
    x/eps with no smoothing of discontinuities."""

    def __init__(self, grid: SimulationGrid, lattice: PeriodicPotential,
                 external: ExternalPotential, dt: float, order: str):
        eps = grid.epsilon
        n = grid.n_points
        self.strang = order == "strang"
        kappa = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers on [0, 2*pi]
        flow_dt = dt / 2 if self.strang else dt
        self.kinetic = np.exp(-0.5j * eps * kappa ** 2 * flow_dt)
        vtot = lattice.sample(grid.x_nodes / eps) + external(grid.x_nodes)
        self.phase = np.exp(-1j * vtot * (dt / eps))

    def _flow(self, values):
        spectrum = scipy.fft.fft(values.reshape(-1))
        spectrum *= self.kinetic
        return scipy.fft.ifft(spectrum, overwrite_x=True).reshape(values.shape)


@dataclass(frozen=True)
class StepperConfig:
    """Scheme selection and per-step parameters for one solver setup; frozen,
    so the propagator it caches cannot go stale."""

    scheme: str                 # "bd" | "ts"
    splitting_order: str        # "lie" | "strang"
    dt: float
    bands: Optional[BandTable] = None          # BD
    lattice: Optional[PeriodicPotential] = None  # TS
    external: ExternalPotential = field(default_factory=lambda: EXTERNAL_NONE)
    _cached: Optional[tuple] = field(default=None, init=False, repr=False,
                                     compare=False)  # ((L, R), propagator)

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

    def propagator(self, grid: SimulationGrid) -> BDPropagator | TSPropagator:
        """This config's propagator on grid, built once and then reused."""
        if self._cached is None or self._cached[0] != (grid.L, grid.R):
            prop = (BDPropagator(self.bands, self.external, self.dt,
                                 self.splitting_order) if self.scheme == "bd"
                    else TSPropagator(grid, self.lattice, self.external,
                                      self.dt, self.splitting_order))
            object.__setattr__(self, "_cached", ((grid.L, grid.R), prop))
        return self._cached[1]


def bd_periodic_flow(psi: WaveField, bands: BandTable, dt: float,
                     eps: float) -> WaveField:
    """Exact flow of the periodic part: project to Bloch coefficients,
    advance phases by exp(-i E_m(k_l) dt / eps), reconstruct."""
    tr = BlochTransform(bands)
    C = tr.project(psi.values) * np.exp(-1j * bands.energies * (dt / eps))
    return WaveField(psi.grid, tr.reconstruct(C))


def external_phase(psi: WaveField, U: ExternalPotential, dt: float,
                   eps: float) -> WaveField:
    """Pointwise unimodular multiply exp(-i U(x) dt / eps); preserves |psi|."""
    phase = np.exp(-1j * U(psi.grid.x_nodes) * (dt / eps))
    return WaveField(psi.grid, psi.values * phase)


def step(psi: WaveField, config: StepperConfig) -> WaveField:
    return config.propagator(psi.grid).step(psi)


def bd_step(psi: WaveField, config: StepperConfig) -> WaveField:
    """One BD step; Strang symmetrizes the periodic flow around the phase."""
    if config.scheme != "bd":
        raise ValueError("bd_step called with a non-BD config")
    return step(psi, config)


def ts_step(psi: WaveField, config: StepperConfig) -> WaveField:
    """One classical time-splitting spectral step."""
    if config.scheme != "ts":
        raise ValueError("ts_step called with a non-TS config")
    return step(psi, config)


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
    cfg = replace(config, dt=T / N)
    psi = psi0.copy()
    if not np.all(np.isfinite(psi.values)):
        raise NonFinite("non-finite field in the initial data")
    prop = cfg.propagator(psi.grid)
    masses = [discrete_norms(psi)[0]]
    bmass = []
    if track_band_masses:
        if cfg.bands is None:
            raise ValueError("band-mass tracking needs a band table")
        bloch = prop.transform if cfg.scheme == "bd" else BlochTransform(cfg.bands)
        bmass.append(bloch.masses(psi.values))
    times = [0.0]
    snapshots = [psi.copy()] if snapshot_every else []
    for n in range(1, N + 1):
        psi = prop.step(psi)
        if not np.all(np.isfinite(psi.values)):
            raise NonFinite(f"non-finite field after step {n}")
        masses.append(discrete_norms(psi)[0])
        if track_band_masses:
            bmass.append(bloch.masses(psi.values))
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

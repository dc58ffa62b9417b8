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
from .transform import TWO_PI, BlochTransform


@dataclass
class _State:
    """A field at a step boundary: its physical samples, or the coefficients
    in the propagator's basis whose backward transform they are, or both.
    The missing form, and the forward transform of the samples, are formed
    on demand and kept.  The arrays are never written to once stored."""

    values: Optional[np.ndarray] = None
    coeffs: Optional[np.ndarray] = None
    projection: Optional[np.ndarray] = None


class _Splitting:
    """Lie: flow(dt), then the phase; Strang: flow(dt/2), phase, flow(dt/2).

    A solve enters once (`enter`), steps with `advance` and forms samples
    only where it needs them (`leave`).  A step is one backward transform,
    the phase multiply and, for Strang, one forward transform: the state
    between Strang steps stays in the basis.  Adjacent Strang half-flows are
    not merged, because for BD projecting onto M bands does not commute with
    the phase multiply.  The transform pair between them is replaced by
    `_round_trip`, equal to forward(backward(.)) up to round-off and applied
    in the basis: the window Gram matrix for BD, the identity for TS.  A Lie
    step ends on the phase, so its boundary state is physical samples."""

    def enter(self, values: np.ndarray) -> _State:
        return _State(values=values)

    def advance(self, state: _State) -> _State:
        out = self._backward(self.project(state) * self.flow)
        out *= self.phase
        if not self.strang:
            return _State(values=out)
        coeffs = self._forward(out)
        coeffs *= self.flow
        return _State(coeffs=coeffs)

    def leave(self, state: _State) -> np.ndarray:
        """The state's (L, R) physical samples."""
        if state.values is None:
            # backward transforms may overwrite their input
            state.values = self._backward(state.coeffs.copy())
        return state.values

    def project(self, state: _State) -> np.ndarray:
        """The forward transform of the state's samples, formed without a
        backward transform when the state is held in the basis."""
        if state.projection is None:
            state.projection = (self._forward(state.values)
                                if state.coeffs is None
                                else self._round_trip(state.coeffs))
        return state.projection

    def mass(self, state: _State) -> float:
        """Discrete L2 norm of the state's samples; by Parseval,
        ||backward(c)||^2 = mass_scale * Re<c, round_trip(c)>."""
        if state.coeffs is None:
            return discrete_norms(WaveField(self.grid, state.values))[0]
        return float(np.sqrt(self.mass_scale * np.vdot(
            state.coeffs, self.project(state)).real))

    @staticmethod
    def finite(state: _State) -> bool:
        held = state.values if state.coeffs is None else state.coeffs
        return bool(np.all(np.isfinite(held)))

    def step(self, psi: WaveField) -> WaveField:
        state = self.advance(self.enter(psi.values))
        return WaveField(psi.grid, self.leave(state))


class BDPropagator(_Splitting):
    """The exact periodic flow exp(-i E_m(k_l) dt'/eps) on Bloch coefficients
    (dt' = dt/2 for Strang) around the external phase exp(-i U(x) dt/eps)."""

    def __init__(self, bands: BandTable, external: ExternalPotential,
                 dt: float, order: str):
        eps = bands.grid.epsilon
        self.grid = bands.grid
        self.strang = order == "strang"
        self.transform = BlochTransform(bands)
        flow_dt = dt / 2 if self.strang else dt
        self.flow = np.exp(-1j * bands.energies * (flow_dt / eps))
        self.phase = np.exp(-1j * external(bands.grid.x_nodes) * (dt / eps))
        # only a Strang state is held in the basis
        self.gram = self.transform.gram() if self.strang else None
        self.mass_scale = 1.0 / (TWO_PI * self.grid.L ** 2)
        self._forward = self.transform.project
        self._backward = self.transform.reconstruct

    def _round_trip(self, C):
        return np.matmul(self.gram, C.T[:, :, None])[:, :, 0].T


class TSPropagator(_Splitting):
    """Pseudo-spectral free flow on the global [0, 2*pi]-periodic grid around
    the exact phase of lattice + external potential, sampled pointwise at
    x/eps with no smoothing of discontinuities."""

    def __init__(self, grid: SimulationGrid, lattice: PeriodicPotential,
                 external: ExternalPotential, dt: float, order: str):
        eps = grid.epsilon
        n = grid.n_points
        self.grid = grid
        self.strang = order == "strang"
        kappa = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers on [0, 2*pi]
        flow_dt = dt / 2 if self.strang else dt
        self.flow = np.exp(-0.5j * eps * kappa ** 2 * flow_dt)
        vtot = lattice.sample(grid.x_nodes / eps) + external(grid.x_nodes)
        self.phase = np.exp(-1j * vtot * (dt / eps))
        self.mass_scale = grid.dx / n

    @staticmethod
    def _forward(values):
        return scipy.fft.fft(values.reshape(-1))

    def _backward(self, spectrum):
        return scipy.fft.ifft(spectrum, overwrite_x=True).reshape(
            self.grid.L, self.grid.R)

    @staticmethod
    def _round_trip(spectrum):
        return spectrum


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
    """Evolution output: final state plus snapshots and diagnostics.
    `times` runs parallel to `snapshots`, whose last entry is `final` itself
    at t = T (with no other snapshots when snapshot_every is 0)."""

    final: WaveField
    times: list[float]
    snapshots: list[WaveField]
    mass_history: np.ndarray                 # (N + 1,) discrete l2 norms
    band_mass_history: Optional[np.ndarray]  # (N + 1, M) norms, if tracked


def evolve(psi0: WaveField, config: StepperConfig, T: float, N: int,
           snapshot_every: int = 0, track_band_masses: bool = False) -> Trajectory:
    """Apply N steps of size T/N, recording mass (and band masses on request).
    Between steps the field stays in the propagator's basis: physical samples
    are formed only for snapshots, the final field and TS band masses."""
    if N < 1 or T <= 0:
        raise ValueError("need N >= 1 and T > 0")
    cfg = replace(config, dt=T / N)
    grid = psi0.grid
    if not np.all(np.isfinite(psi0.values)):
        raise NonFinite("non-finite field in the initial data")
    prop = cfg.propagator(grid)
    if track_band_masses:
        if cfg.bands is None:
            raise ValueError("band-mass tracking needs a band table")
        if cfg.scheme == "bd":
            def band_masses(s):
                return prop.transform.band_norms(prop.project(s))
        else:
            bloch = BlochTransform(cfg.bands)

            def band_masses(s):
                return bloch.masses(prop.leave(s))

    state = prop.enter(psi0.values)  # read, never written
    masses = [prop.mass(state)]
    bmass = [band_masses(state)] if track_band_masses else []
    times, snapshots = ([0.0], [psi0.copy()]) if snapshot_every else ([], [])
    for n in range(1, N + 1):
        state = prop.advance(state)
        if not prop.finite(state):
            raise NonFinite(f"non-finite field after step {n}")
        masses.append(prop.mass(state))
        if track_band_masses:
            bmass.append(band_masses(state))
        if snapshot_every and n % snapshot_every == 0 and n < N:
            times.append(n * T / N)
            snapshots.append(WaveField(grid, prop.leave(state)))
    final = WaveField(grid, prop.leave(state))
    return Trajectory(
        final=final,
        times=times + [T],
        snapshots=snapshots + [final],
        mass_history=np.array(masses),
        band_mass_history=np.array(bmass) if track_band_masses else None,
    )

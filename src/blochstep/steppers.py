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
from .grid import SimulationGrid, WaveField
from .potential import EXTERNAL_NONE, TWO_PI, ExternalPotential, PeriodicPotential
from .transform import BlochTransform


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
    only where it needs them (`leave`).  A step is one synthesis, the phase
    multiply and, for Strang, one analysis: the state between Strang steps
    stays in the basis.  Adjacent Strang half-flows are not merged, because
    for BD projecting onto M bands does not commute with the phase multiply.
    The transform pair between them is replaced by `_round_trip`, equal to
    forward(backward(.)) up to round-off and applied in the basis: the window
    Gram matrix for BD, the identity for TS.  A Lie step ends on the phase,
    so its boundary state is physical samples.

    `_synthesis` and `_analysis` are the backward and forward transforms
    without BD's cell sign (-1)^l, whose two exact +-1 factors cancel across
    the pointwise phase multiply (a BD Lie phase table carries the one it
    needs), and without BD's transform constants, which the flow tables
    carry (`BlochTransform.folded_pair`): `pre_flow` is applied before the
    synthesis and `post_flow` after the analysis."""

    def enter(self, values: np.ndarray) -> _State:
        return _State(values=values)

    def advance(self, state: _State) -> _State:
        out = self._synthesis(self.project(state) * self.pre_flow)
        out *= self.phase
        if not self.strang:
            return _State(values=out)
        coeffs = self._analysis(out)
        coeffs *= self.post_flow
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
        """Discrete L2 norm of the state's samples, as discrete_norms gives
        it; by Parseval, ||backward(c)||^2 = mass_scale * Re<c, round_trip(c)>.
        A NaN or infinity in the state, or a squared norm that overflows,
        gives a non-finite mass."""
        if state.coeffs is None:
            values = state.values
            return float(np.sqrt(self.grid.dx * np.sum(np.abs(values) ** 2)))
        return float(np.sqrt(self.mass_scale * np.vdot(
            state.coeffs, self.project(state)).real))

    def step(self, psi: WaveField) -> WaveField:
        state = self.advance(self.enter(psi.values))
        return WaveField(psi.grid, self.leave(state))


class BDPropagator(_Splitting):
    """The exact periodic flow exp(-i E_m(k_l) dt'/eps) on Bloch coefficients
    (dt' = dt/2 for Strang) around the external phase exp(-i U(x) dt/eps).
    Coefficients, band phases and Gram matrices are held (L, M), the
    transform's own layout."""

    def __init__(self, bands: BandTable, external: ExternalPotential,
                 dt: float, order: str):
        eps = bands.grid.epsilon
        self.grid = bands.grid
        self.strang = order == "strang"
        self.transform = tr = BlochTransform(bands)
        flow_dt = dt / 2 if self.strang else dt
        flow = np.exp(-1j * np.ascontiguousarray(bands.energies.T)
                      * (flow_dt / eps))
        (self.pre_flow, self._synthesis, self._analysis,
         self.post_flow) = tr.folded_pair(flow)
        self.phase = np.exp(-1j * external(bands.grid.x_nodes) * (dt / eps))
        if not self.strang:
            self.phase *= tr.sign  # a Lie step ends on physical samples
        # only a Strang state is held in the basis
        self.gram = tr.gram() if self.strang else None
        self._round_trip = (self._complex_round_trip
                            if np.iscomplexobj(self.gram) else
                            self._real_round_trip)
        self.mass_scale = 1.0 / (TWO_PI * self.grid.L ** 2)
        self._forward, self._backward = tr.forward, tr.backward

    def _complex_round_trip(self, C):
        return np.matmul(self.gram, C[:, :, None])[:, :, 0]

    def _real_round_trip(self, C):
        # G @ C would upcast a real G to complex every step; it acts on the
        # (L, M, 2) float view of C instead
        L, M = C.shape
        pairs = C.view(float).reshape(L, M, 2)
        return np.matmul(self.gram, pairs).view(complex)[:, :, 0]


# Grids of at least this many points transform by the four-step
# factorisation, smaller ones by one flat FFT.  Time of a forward plus
# backward pair, four-step over flat (one BLAS thread, 2-vCPU VM): 1.15-1.55
# at n = 2^11 to 2^12, where two FFT calls and a twiddle multiply cost more
# than one call; 0.86-1.07 from 2^13 to 1.4 * 2^13; 0.85 at 2^14 and about
# 0.6 from 2^15 up, where each flat call allocates a fresh length-n scratch
# buffer (258 minor page faults per pair at 2^15) and the short ones do not.
FOUR_STEP_MIN_POINTS = 1 << 14


def _four_step_fft(values, twiddle):
    """The length-LR DFT of the flattened (L, R) samples, bin k1 + L*k2 at
    [k1, k2]: a length-L FFT down each column, the twiddle
    exp(-2*pi*i*k1*r/(LR)) and a length-R FFT along each row."""
    spectrum = scipy.fft.fft(values, axis=0)
    spectrum *= twiddle
    return scipy.fft.fft(spectrum, axis=1, overwrite_x=True)


def _four_step_ifft(spectrum, untwiddle):
    """Inverse of _four_step_fft; may overwrite spectrum."""
    values = scipy.fft.ifft(spectrum, axis=1, overwrite_x=True)
    values *= untwiddle
    return scipy.fft.ifft(values, axis=0, overwrite_x=True)


def _four_step_twiddle(L: int, R: int) -> np.ndarray:
    # k1*r < LR, so the phase stays within one turn
    return np.exp(-1j * (TWO_PI / (L * R))
                  * np.multiply.outer(np.arange(L), np.arange(R)))


class TSPropagator(_Splitting):
    """Pseudo-spectral free flow on the global [0, 2*pi]-periodic grid around
    the exact phase of lattice + external potential, sampled pointwise at
    x/eps with no smoothing of discontinuities.

    The spectrum is the length-LR DFT of the samples psi_n, n = l*R + r.
    Below FOUR_STEP_MIN_POINTS it is the flat FFT's array; from there on it
    is held in the grid's (L, R) shape, bin k1 + L*k2 at [k1, k2], and
    transformed by _four_step_fft and _four_step_ifft."""

    def __init__(self, grid: SimulationGrid, lattice: PeriodicPotential,
                 external: ExternalPotential, dt: float, order: str):
        eps = grid.epsilon
        L, R = grid.L, grid.R
        n = grid.n_points
        self.grid = grid
        self.strang = order == "strang"
        kappa = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers on [0, 2*pi]
        flow_dt = dt / 2 if self.strang else dt
        flow = np.exp(-0.5j * eps * kappa ** 2 * flow_dt)
        self.twiddle = self.untwiddle = None
        if n >= FOUR_STEP_MIN_POINTS:
            flow = np.ascontiguousarray(flow.reshape(R, L).T)
            self.twiddle = _four_step_twiddle(L, R)
            # kept: conjugating per call makes a length-LR temporary every step
            self.untwiddle = np.conj(self.twiddle)
        vtot = lattice.sample(grid.x_nodes / eps) + external(grid.x_nodes)
        self.pre_flow = self.post_flow = flow
        self.phase = np.exp(-1j * vtot * (dt / eps))
        self.mass_scale = grid.dx / n

    def _forward(self, values):
        if self.twiddle is None:
            return scipy.fft.fft(values.reshape(-1))
        return _four_step_fft(values, self.twiddle)

    def _backward(self, spectrum):
        if self.untwiddle is None:
            return scipy.fft.ifft(spectrum, overwrite_x=True).reshape(
                self.grid.L, self.grid.R)
        return _four_step_ifft(spectrum, self.untwiddle)

    _analysis, _synthesis = _forward, _backward

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
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt = {self.dt} must be finite and > 0")
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


def step(psi: WaveField, config: StepperConfig) -> WaveField:
    """One Lie or Strang step of the config's scheme: a one-step `evolve`."""
    return config.propagator(psi.grid).step(psi)


# The stand-alone flows of one BD step.  No module of this package calls
# them; they stay only because perfbench/workloads.py imports them, and go
# with the benchmark's move onto BlochTransform (ROADMAP item 2).

def bd_periodic_flow(psi: WaveField, bands: BandTable, dt: float,
                     eps: float) -> WaveField:
    """Exact flow of the periodic part: project to Bloch coefficients,
    advance phases by exp(-i E_m(k_l) dt / eps), reconstruct."""
    tr = BlochTransform(bands)
    C = tr.forward(psi.values) * np.exp(-1j * bands.energies.T * (dt / eps))
    return WaveField(psi.grid, tr.backward(C))


def external_phase(psi: WaveField, U: ExternalPotential, dt: float,
                   eps: float) -> WaveField:
    """Pointwise unimodular multiply exp(-i U(x) dt / eps); preserves |psi|."""
    phase = np.exp(-1j * U(psi.grid.x_nodes) * (dt / eps))
    return WaveField(psi.grid, psi.values * phase)


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
    are formed only for snapshots, the final field and TS band masses.  A
    step whose mass is not finite raises NonFinite naming the step; ValueError
    unless N >= 1, T is finite and > 0 and snapshot_every >= 0."""
    if N < 1 or not 0 < T < np.inf or snapshot_every < 0:
        raise ValueError(f"need N >= 1, a finite T > 0 and snapshot_every >= 0 "
                         f"(N = {N}, T = {T}, snapshot_every = {snapshot_every})")
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
        masses.append(prop.mass(state))
        if not np.isfinite(masses[-1]):
            raise NonFinite(f"non-finite field after step {n}")
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

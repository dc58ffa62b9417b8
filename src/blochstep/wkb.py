"""Semiclassical WKB pipeline: two-scale initial data, Hamilton-Jacobi phase
evolution with caustic detection, transport of amplitudes with the geometric
phase term, and reconstruction of the approximate solution.

The Hamilton-Jacobi equation is solved on the gradient variable p = d(phi)/dx,
which obeys the conservation law dp/dt + d/dx[E_m(p) + U] = 0, with a
second-order relaxed scheme (limited slopes, Lax-Friedrichs-type interface
dissipation at the frozen relaxation speed).  The phase is recovered from p by
a periodic spectral antiderivative plus the evolving cell average.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bands import (
    BandTable,
    ChiInterpolator,
    _trig_interpolant,
    berry_connection,
    eval_band_deriv,
    fold_k,
)
from .errors import (
    CausticReached,
    CFLViolation,
    NonFinite,
)
from .grid import SimulationGrid, WaveField, discrete_norms, field_difference
from .potential import TWO_PI, ExternalPotential
from .steppers import StepperConfig, _step_count, evolve
from .transform import BlochTransform

HJ_CFL = 0.45  # Courant number of the relaxed Hamilton-Jacobi scheme
CAUSTIC_PROBE_POINTS = 200  # samples of the caustic detector's slope probe
# a caustic trigger halts wkb_pipeline only where the amplitude exceeds this
# fraction of its maximum
SUPPORT_TOL = 1e-8


@dataclass
class CausticReport:
    """Caustic onset diagnostics from a Hamilton-Jacobi run."""

    detected: bool
    t_c: Optional[float]  # onset of the first trigger
    trigger_history: np.ndarray  # max |d2(phi)/dx2| at t = 0 and every step
    threshold: float
    x_c: Optional[float] = None  # probe location of the first triggering slope


@dataclass
class PhaseTrajectory:
    """Phase and phase-gradient history on the macroscopic grid."""

    band: int
    x: np.ndarray       # (Nx,)
    times: np.ndarray   # (Nt,)
    phi: np.ndarray     # (Nt, Nx)
    p: np.ndarray       # (Nt, Nx) = d(phi)/dx

    def interp_time(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(phi, p) linearly interpolated in time."""
        return _lerp(self.times, t, self.phi), _lerp(self.times, t, self.p)


@dataclass
class AmplitudeTrajectory:
    """Complex WKB amplitude history on the macroscopic grid."""

    band: int
    x: np.ndarray
    times: np.ndarray
    a: np.ndarray       # (Nt, Nx)

    def interp_time(self, t: float) -> np.ndarray:
        """a linearly interpolated in time."""
        return _lerp(self.times, t, self.a)


def _lerp(times: np.ndarray, t: float, history: np.ndarray) -> np.ndarray:
    """history (one row per entry of times) linearly interpolated at t;
    ValueError when t lies outside [times[0], times[-1]]."""
    if not times[0] - 1e-12 <= t <= times[-1] + 1e-12:
        raise ValueError(f"t = {t} outside trajectory window "
                         f"[{times[0]}, {times[-1]}]")
    i = int(np.clip(np.searchsorted(times, t) - 1, 0, len(times) - 2))
    w = float(np.clip((t - times[i]) / (times[i + 1] - times[i]), 0.0, 1.0))
    return (1 - w) * history[i] + w * history[i + 1]


def _minmod(a, b):
    return np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def _periodic_antiderivative(p: np.ndarray) -> np.ndarray:
    """Zero-mean periodic antiderivative of the zero-mean part of p on [0, 2*pi).

    Trapezoidal cumulative integration: unlike a spectral antiderivative it
    keeps any discontinuity of p (e.g. the externally forced kink at the
    domain seam for a non-periodic external potential) a local feature of
    the result instead of spreading Gibbs oscillations over the domain.
    """
    n = p.size
    dx = TWO_PI / n
    q = p - p.mean()
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(0.5 * dx * (q[:-1] + q[1:]), out=out[1:])
    return out - out.mean()


@functools.lru_cache(maxsize=8)
def _size_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i*kappa, divisor) of an n-point periodic grid, built once per size
    and read-only: the integer wavenumbers times i, and _macro_spline's
    circulant divisor (2 cos - 2) / (4 + 2 cos) at 2*pi*j/n."""
    c = np.cos(TWO_PI * np.arange(n) / n)
    factors = (1j * np.fft.fftfreq(n, d=1.0 / n),
               (2.0 * c - 2.0) / (4.0 + 2.0 * c))
    for a in factors:
        a.flags.writeable = False
    return factors


def _spectral_derivative(f: np.ndarray) -> np.ndarray:
    return np.fft.ifft(_size_factors(f.size)[0] * np.fft.fft(f)).real


def _cfl_step(bands: BandTable, m: int, nx: int) -> tuple[float, float, float]:
    """(vmax, speed, dt): vmax = max |dE_m/dk| over 4L + 1 points of the
    zone, floored at 1e-6; the frozen relaxation speed 1.1 vmax; and the
    step HJ_CFL * dx / speed on nx macro points."""
    kfine = np.linspace(-0.5, 0.5, 4 * bands.grid.L + 1)
    vmax = max(float(np.max(np.abs(eval_band_deriv(bands, m, kfine)))), 1e-6)
    speed = 1.1 * vmax
    return vmax, speed, HJ_CFL * (TWO_PI / nx) / speed


def hj_solve(bands: BandTable, m: int, U: ExternalPotential,
             phi0: Callable[[np.ndarray], np.ndarray], t_end: float,
             nx: int, dt: Optional[float] = None,
             caustic_factor: float = 50.0) -> tuple[PhaseTrajectory, CausticReport]:
    """March the band Hamilton-Jacobi equation up to t_end on nx >= 1 points.

    The caustic detector triggers when max |d(p)/dx| exceeds caustic_factor
    times its initial value (floored at 1, the curvature scale of the domain);
    the report gives the first trigger, whose onset time is linearly
    interpolated between the bracketing steps, and the march goes on past it.
    The curvature is probed at a fixed physical scale (CAUSTIC_PROBE_POINTS
    samples across the domain, capped by the solver grid) so that the onset
    time is stable under solver-grid refinement: at a forming discontinuity
    the raw grid-scale slope doubles with every refinement and would
    otherwise push the detection time toward zero.  ValueError unless
    t_end, and dt when given, are finite and > 0 with t_end / dt <= 2**53.
    """
    bands.check_band(m)
    if nx < 1:
        raise ValueError(f"nx = {nx} must be >= 1")
    x = TWO_PI * np.arange(nx) / nx
    dx = TWO_PI / nx
    phi_init = np.asarray(phi0(x), dtype=float)
    p = _spectral_derivative(phi_init)
    phibar = float(phi_init.mean())

    Ux = U.derivative(x)
    Uvals = U(x)

    vmax, speed, dt_cfl = _cfl_step(bands, m, nx)
    if dt is None:
        dt = dt_cfl
    elif dt > 0.5 * dx / vmax:
        raise CFLViolation(f"dt = {dt} exceeds 0.5*dx/max|dE/dk| = "
                           f"{0.5 * dx / vmax:g}")
    nsteps = _step_count(t_end, dt, "t_end")
    dt = t_end / nsteps

    energy = _trig_interpolant(bands, m, 0)
    left, right = np.roll(np.arange(nx), 1), np.roll(np.arange(nx), -1)

    def rhs(pv):
        # (dp/dt, d(phibar)/dt) at pv from one band-energy pass over the
        # left and right interface values and pv
        s = _minmod(pv - pv[left], pv[right] - pv)
        pl = pv + 0.5 * s
        pr = (pv - 0.5 * s)[right]
        e = energy(fold_k(np.concatenate([pl, pr, pv])))
        flux = 0.5 * (e[:nx] + e[nx:2 * nx]) - 0.5 * speed * (pr - pl)
        return (-(flux - flux[left]) / dx - Ux,
                -float(np.mean(e[2 * nx:] + Uvals)))

    npr = min(CAUSTIC_PROBE_POINTS, nx)
    x_probe = TWO_PI * np.arange(npr) / npr
    probe_dx = TWO_PI / npr

    def curvature(pv):
        sub = np.interp(x_probe, np.concatenate([x, [TWO_PI]]),
                        np.concatenate([pv, pv[:1]]))
        slopes = np.abs(np.roll(sub, -1) - np.roll(sub, 1)) / (2 * probe_dx)
        i = int(np.argmax(slopes))
        return float(slopes[i]), float(x_probe[i])

    def phi_from(pv, pb):
        # mean-p contribution is a linear (non-periodic) phase ramp
        return pb + pv.mean() * (x - np.pi) + _periodic_antiderivative(pv)

    curv0, _ = curvature(p)
    threshold = caustic_factor * max(curv0, 1.0)
    history = [curv0]

    times = [0.0]
    ps = [p.copy()]
    phis = [phi_init.copy()]
    detected = False
    t_c = None
    x_c = None
    t = 0.0
    for _ in range(nsteps):
        k1, g1 = rhs(p)
        pmid = p + dt * k1
        k2, g2 = rhs(pmid)
        p = p + 0.5 * dt * (k1 + k2)
        phibar = phibar + 0.5 * dt * (g1 + g2)
        t += dt
        if not np.all(np.isfinite(p)):
            raise NonFinite(f"phase gradient blew up at t = {t:g}")
        curv, x_trigger = curvature(p)
        history.append(curv)
        times.append(t)
        ps.append(p.copy())
        phis.append(phi_from(p, phibar))
        if curv > threshold and not detected:
            prev = history[-2]
            frac = (threshold - prev) / (curv - prev) if curv > prev else 1.0
            t_c = t - dt + frac * dt
            x_c = x_trigger
            detected = True
    report = CausticReport(detected=detected, t_c=t_c, x_c=x_c,
                           trigger_history=np.array(history),
                           threshold=threshold)
    traj = PhaseTrajectory(band=m, x=x, times=np.array(times),
                           phi=np.array(phis), p=np.array(ps))
    return traj, report


def transport_solve(bands: BandTable, m: int, U: ExternalPotential,
                    phase: PhaseTrajectory, a0: Callable) -> AmplitudeTrajectory:
    """Advance the WKB amplitude a0(x) along the precomputed phase trajectory.

    Each step splits into (i) semi-Lagrangian advection at the group velocity
    and (ii) the exact exponential of the local compression + geometric-phase
    factor, arranged symmetrically (Strang) for second order.
    """
    bands.check_band(m)
    x = phase.x
    a = np.asarray(a0(x), dtype=complex)
    Ux = U.derivative(x)
    # the geometric term at the k-nodes and at k = 1/2, the wrap of node 0
    knodes = np.append(bands.grid.k_nodes, 0.5)
    beta = berry_connection(bands, m)
    beta = np.append(beta, beta[0])
    velocity = _trig_interpolant(bands, m, 1)

    out = [a.copy()]
    for i in range(len(phase.times) - 1):
        dt = phase.times[i + 1] - phase.times[i]
        kmid = fold_k(0.5 * (phase.p[i] + phase.p[i + 1]))
        v = velocity(kmid)
        dv = _spectral_derivative(v)
        local = np.exp(0.5 * dt * (-0.5 * dv + np.interp(kmid, knodes, beta) * Ux))
        a = a * local
        # midpoint departure points of the characteristics
        x_dep = x - dt * _macro_spline(v)(x - 0.5 * dt * v)
        a = _macro_spline(a)(x_dep) * local
        if not np.all(np.isfinite(a)):
            raise NonFinite(f"amplitude blew up at t = {phase.times[i + 1]:g}")
        out.append(a.copy())
    return AmplitudeTrajectory(band=m, x=x, times=phase.times.copy(),
                               a=np.array(out))


def _macro_spline(f: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Periodic cubic spline through f at x_i = 2*pi*i/n, as a function of x.

    On the uniform periodic grid the spline's second derivatives solve the
    circulant system M_{i-1} + 4 M_i + M_{i+1} = 6 (f_{i-1} - 2 f_i +
    f_{i+1}) / h^2, so one FFT division by 4 + 2 cos(2*pi*j/n) solves it; the
    spline is evaluated by floor division and the four-term cubic formula.
    A complex f is splined in one pass; a real f gives real values.
    """
    n = f.size
    g = np.fft.ifft(np.fft.fft(f) * _size_factors(n)[1])
    g = g if np.iscomplexobj(f) else g.real  # h^2 M / 6
    fp, gp = np.append(f, f[:1]), np.append(g, g[:1])

    def spline(q):
        t = np.asarray(q, dtype=float) * (n / TWO_PI)
        i0 = np.floor(t)
        u = t - i0
        w = 1.0 - u
        with np.errstate(invalid="ignore"):  # a NaN query: any index, u = NaN
            i = np.mod(i0.astype(np.intp), n)
        return (w * (fp[i] + (w * w - 1.0) * gp[i])
                + u * (fp[i + 1] + (u * u - 1.0) * gp[i + 1]))

    return spline


def _two_scale(chi: ChiInterpolator, grid: SimulationGrid, a: np.ndarray,
               phi: np.ndarray, p: np.ndarray) -> WaveField:
    """a chi_m(x/eps, p) exp(i phi/eps), from a, phi and p sampled at the
    grid's nodes in ravel order, with x/eps in cell l taken as its exact y_r."""
    y = np.tile(grid.y_nodes, grid.L)
    vals = a * chi.chi_values(p, y) * np.exp(1j * phi / grid.epsilon)
    return WaveField(grid, vals.reshape(grid.L, grid.R))


def _initial(chi: ChiInterpolator, f: Callable, phi0: Callable,
             grid: SimulationGrid) -> WaveField:
    """build_wkb_initial with chi's band, from chi."""
    x = grid.x_nodes.reshape(-1)
    phi = np.asarray(phi0(x), dtype=float)
    return _two_scale(chi, grid, np.asarray(f(x), dtype=complex), phi,
                      _spectral_derivative(phi))


def build_wkb_initial(bands: BandTable, m: int, f: Callable, phi0: Callable,
                      grid: SimulationGrid) -> WaveField:
    """Two-scale initial data f(x) chi_m(x/eps, d(phi0)/dx) exp(i phi0 / eps)."""
    return _initial(ChiInterpolator(bands, m), f, phi0, grid)


def reconstruct_sc(phase: PhaseTrajectory, amp: AmplitudeTrajectory,
                   bands: BandTable, m: int, grid: SimulationGrid,
                   t: float, chi: Optional[ChiInterpolator] = None) -> WaveField:
    """Assemble the approximate semiclassical field a chi exp(i phi/eps) at t."""
    phi_macro, p_macro = phase.interp_time(t)
    x = grid.x_nodes.reshape(-1)
    pbar = p_macro.mean()
    # the phase may carry a linear ramp; interpolate its periodic remainder
    phi = _macro_spline(phi_macro - pbar * (phase.x - np.pi))(x) \
        + pbar * (x - np.pi)
    p = _macro_spline(p_macro - pbar)(x) + pbar
    a = _macro_spline(amp.interp_time(t))(x)
    if chi is None:
        chi = ChiInterpolator(bands, m)
    return _two_scale(chi, grid, a, phi, p)


@dataclass
class WkbComparison:
    """Per-sample-time differences between the full and asymptotic solutions.

    l2/linf compare the raw fields.  band_l2 compares their band-m components:
    the leading-order expansion carries the off-band content of the initial
    data unchanged, so the raw difference saturates at twice the off-band
    mass once the bands dephase, while the in-band difference measures the
    accuracy of the phase/amplitude evolution itself.
    """

    times: np.ndarray
    l2: np.ndarray
    linf: np.ndarray
    band_l2: np.ndarray
    sup_l2: float
    sup_linf: float
    sup_band_l2: float
    caustic: CausticReport


def wkb_pipeline(bands: BandTable, m: int, U: ExternalPotential,
                 f: Callable, phi0: Callable, t_end: float, nx: int
                 ) -> tuple[PhaseTrajectory, AmplitudeTrajectory, CausticReport]:
    """Phase + amplitude evolution with the amplitude-support caustic policy.

    One hj_solve and one transport_solve run to t_end.  A detected caustic
    then raises CausticReached only if the amplitude at the trigger site, at
    the trigger step, is non-negligible; a trigger outside the support of
    the solution (e.g. the artificial kink of a non-periodic external
    potential at the domain seam) does not invalidate the expansion where
    the solution lives, and the run to t_end is returned.
    """
    # phase errors enter exp(i*phi/eps) amplified by 1/eps, so the step must
    # resolve the phase beyond the advective CFL scale
    dt = min(_cfl_step(bands, m, nx)[2], np.sqrt(bands.grid.epsilon) / 8.0)
    traj, rep = hj_solve(bands, m, U, phi0, t_end, nx, dt=dt)
    amp = transport_solve(bands, m, U, traj, f)
    if rep.detected:
        a_c = np.abs(amp.a[np.argmax(rep.trigger_history > rep.threshold)])
        at_site = np.interp(rep.x_c, np.append(traj.x, TWO_PI),
                            np.append(a_c, a_c[0]))
        if at_site > SUPPORT_TOL * a_c.max():
            raise CausticReached(rep)
    return traj, amp, rep


def wkb_compare(bands: BandTable, m: int, U: ExternalPotential,
                f: Callable, phi0: Callable, grid: SimulationGrid,
                t_end: float, nx: int, n_steps: int,
                n_samples: int = 11) -> WkbComparison:
    """Differences between the BD solution and the WKB field at n_samples
    times: `evolve` snapshots every n_steps / (n_samples - 1)-th Strang BD
    step, each compared at its own time.  ValueError unless n_samples >= 2
    and n_samples - 1 divides n_steps."""
    if n_samples < 2 or n_steps % (n_samples - 1):
        raise ValueError(f"n_samples - 1 = {n_samples - 1} must be >= 1 and "
                         f"divide n_steps = {n_steps}")
    traj, amp, rep = wkb_pipeline(bands, m, U, f, phi0, t_end, nx)
    chi = ChiInterpolator(bands, m)
    cfg = StepperConfig("bd", "strang", t_end / n_steps, bands=bands,
                        external=U)
    bd = evolve(_initial(chi, f, phi0, grid), cfg, t_end, n_steps,
                snapshot_every=n_steps // (n_samples - 1))
    transform = BlochTransform(bands)
    rows = []
    for t, psi in zip(bd.times, bd.snapshots):
        diff = field_difference(
            psi, reconstruct_sc(traj, amp, bands, m, grid, t, chi=chi))
        # the band projection is linear: the band-m part of the difference
        # is the difference of the band-m parts
        rows.append((*discrete_norms(diff), transform.masses(diff.values)[m - 1]))
    l2s, linfs, bl2s = (np.array(c) for c in zip(*rows))
    return WkbComparison(times=np.array(bd.times), l2=l2s, linf=linfs,
                         band_l2=bl2s, sup_l2=float(l2s.max()),
                         sup_linf=float(linfs.max()),
                         sup_band_l2=float(bl2s.max()), caustic=rep)

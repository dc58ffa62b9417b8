"""Semiclassical WKB pipeline: two-scale initial data, Hamilton-Jacobi phase
evolution with caustic detection, transport of amplitudes with the geometric
phase term, bicharacteristics, and reconstruction of the approximate solution.

The Hamilton-Jacobi equation is solved on the gradient variable p = d(phi)/dx,
which obeys the conservation law dp/dt + d/dx[E_m(p) + U] = 0, with a
second-order relaxed scheme (limited slopes, Lax-Friedrichs-type interface
dissipation at the frozen relaxation speed).  The phase is recovered from p by
a periodic spectral antiderivative plus the evolving cell average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .bands import (
    BandTable,
    _lowest_eigenpairs,
    _neighbor_vector,
    band_gap,
    berry_connection,
    eval_band,
    eval_band_deriv,
    fold_k,
)
from .errors import (
    BandGapTooSmall,
    CausticReached,
    CFLViolation,
    NonFinite,
)
from .grid import SimulationGrid, WaveField
from .potential import ExternalPotential

TWO_PI = 2.0 * np.pi


@dataclass
class CausticReport:
    """Caustic onset diagnostics from a Hamilton-Jacobi run."""

    detected: bool
    t_c: Optional[float]
    trigger_history: np.ndarray  # max |d2(phi)/dx2| per accepted step
    threshold: float
    x_c: Optional[float] = None  # probe location of the triggering slope


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
        if not self.times[0] - 1e-12 <= t <= self.times[-1] + 1e-12:
            raise ValueError(f"t = {t} outside phase trajectory window")
        i = int(np.clip(np.searchsorted(self.times, t) - 1, 0, len(self.times) - 2))
        w = (t - self.times[i]) / (self.times[i + 1] - self.times[i])
        w = float(np.clip(w, 0.0, 1.0))
        return ((1 - w) * self.phi[i] + w * self.phi[i + 1],
                (1 - w) * self.p[i] + w * self.p[i + 1])


@dataclass
class AmplitudeTrajectory:
    """Complex WKB amplitude history on the macroscopic grid."""

    band: int
    x: np.ndarray
    times: np.ndarray
    a: np.ndarray       # (Nt, Nx)

    def interp_time(self, t: float) -> np.ndarray:
        i = int(np.clip(np.searchsorted(self.times, t) - 1, 0, len(self.times) - 2))
        w = float(np.clip((t - self.times[i]) / (self.times[i + 1] - self.times[i]),
                          0.0, 1.0))
        return (1 - w) * self.a[i] + w * self.a[i + 1]


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


def _spectral_derivative(f: np.ndarray) -> np.ndarray:
    n = f.size
    kappa = np.fft.fftfreq(n, d=1.0 / n)
    return np.fft.ifft(1j * kappa * np.fft.fft(f)).real


def hj_solve(bands: BandTable, m: int, U: ExternalPotential,
             phi0: Callable[[np.ndarray], np.ndarray], t_end: float,
             nx: int, dt: Optional[float] = None, cfl: float = 0.45,
             caustic_factor: float = 50.0,
             probe_points: int = 200) -> tuple[PhaseTrajectory, CausticReport]:
    """March the band Hamilton-Jacobi equation up to t_end or the caustic.

    The caustic detector triggers when max |d(p)/dx| exceeds caustic_factor
    times its initial value (floored at 1, the curvature scale of the domain);
    the onset time is linearly interpolated between the bracketing steps.
    The curvature is probed at a fixed physical scale (probe_points samples
    across the domain, capped by the solver grid) so that the onset time is
    stable under solver-grid refinement: at a forming discontinuity the raw
    grid-scale slope doubles with every refinement and would otherwise push
    the detection time toward zero.
    """
    bands.check_band(m)
    x = TWO_PI * np.arange(nx) / nx
    dx = TWO_PI / nx
    phi_init = np.asarray(phi0(x), dtype=float)
    p = _spectral_derivative(phi_init)
    phibar = float(phi_init.mean())

    Ux = U.derivative(x)
    Uvals = U(x)

    kfine = np.linspace(-0.5, 0.5, 4 * bands.grid.L + 1)
    vmax = float(np.max(np.abs(eval_band_deriv(bands, m, kfine))))
    speed = 1.1 * max(vmax, 1e-6)  # frozen relaxation speed
    dt_cfl = cfl * dx / speed
    if dt is None:
        dt = dt_cfl
    elif dt > 0.5 * dx / max(vmax, 1e-6):
        raise CFLViolation(f"dt = {dt} exceeds 0.5*dx/max|dE/dk| = "
                           f"{0.5 * dx / max(vmax, 1e-6):g}")
    nsteps = max(1, int(np.ceil(t_end / dt - 1e-12)))
    dt = t_end / nsteps

    def energy_of(pv):
        return eval_band(bands, m, fold_k(pv))

    def rhs(pv):
        s = _minmod(pv - np.roll(pv, 1), np.roll(pv, -1) - pv)
        pl = pv + 0.5 * s
        pr = np.roll(pv - 0.5 * s, -1)
        flux = 0.5 * (energy_of(pl) + energy_of(pr)) - 0.5 * speed * (pr - pl)
        return -(flux - np.roll(flux, 1)) / dx - Ux

    def phibar_rate(pv):
        return -float(np.mean(energy_of(pv) + Uvals))

    npr = min(probe_points, nx)
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
        k1 = rhs(p)
        g1 = phibar_rate(p)
        pmid = p + dt * k1
        k2 = rhs(pmid)
        g2 = phibar_rate(pmid)
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
        if curv > threshold:
            prev = history[-2]
            frac = (threshold - prev) / (curv - prev) if curv > prev else 1.0
            t_c = t - dt + frac * dt
            x_c = x_trigger
            detected = True
            break
    report = CausticReport(detected=detected, t_c=t_c, x_c=x_c,
                           trigger_history=np.array(history),
                           threshold=threshold)
    traj = PhaseTrajectory(band=m, x=x, times=np.array(times),
                           phi=np.array(phis), p=np.array(ps))
    return traj, report


def transport_solve(bands: BandTable, m: int, U: ExternalPotential,
                    phase: PhaseTrajectory, a0) -> AmplitudeTrajectory:
    """Advance the WKB amplitude along the precomputed phase trajectory.

    Each step splits into (i) semi-Lagrangian advection at the group velocity
    and (ii) the exact exponential of the local compression + geometric-phase
    factor, arranged symmetrically (Strang) for second order.
    """
    bands.check_band(m)
    x = phase.x
    nx = x.size
    if callable(a0):
        a = np.asarray(a0(x), dtype=complex)
    else:
        a = np.asarray(a0, dtype=complex).copy()
    Ux = U.derivative(x)
    beta_interp = _berry_interpolator(bands, m)

    out = [a.copy()]
    for i in range(len(phase.times) - 1):
        dt = phase.times[i + 1] - phase.times[i]
        pmid = 0.5 * (phase.p[i] + phase.p[i + 1])
        v = eval_band_deriv(bands, m, fold_k(pmid))
        dv = _spectral_derivative(v)
        local = np.exp(0.5 * dt * (-0.5 * dv + beta_interp(pmid) * Ux))
        a = a * local
        # midpoint departure points of the characteristics
        x_half = np.mod(x - 0.5 * dt * v, TWO_PI)
        x_dep = np.mod(x - dt * _macro_spline(x, v)(x_half), TWO_PI)
        a = _macro_spline(x, a)(x_dep) * local
        if not np.all(np.isfinite(a)):
            raise NonFinite(f"amplitude blew up at t = {phase.times[i + 1]:g}")
        out.append(a.copy())
    return AmplitudeTrajectory(band=m, x=x, times=phase.times.copy(),
                               a=np.array(out))


def _berry_interpolator(bands: BandTable, m: int):
    """Linear-in-k interpolant of the geometric phase term at the table nodes."""
    L = bands.grid.L
    beta = np.empty(L + 1, dtype=complex)
    for l in range(L):
        beta[l] = berry_connection(bands, m, l)
    beta[L] = beta[0]  # periodic wrap at k = 1/2
    knodes = np.concatenate([bands.grid.k_nodes, [0.5]])

    def interp(k):
        kf = fold_k(k)
        re = np.interp(kf, knodes, beta.real)
        im = np.interp(kf, knodes, beta.imag)
        return re + 1j * im

    return interp


def _unit_conj(ov):
    """Phase conj(ov)/|ov| aligning a vector to a reference; 1 where |ov| <= 1e-12."""
    a = np.abs(ov)
    return np.divide(np.conj(ov), a, out=np.ones_like(ov), where=a > 1e-12)


class ChiInterpolator:
    """Off-node Bloch eigenvector evaluation, gauge-matched to a band table.

    Each distinct folded quasi-momentum (quantized to the cache resolution)
    is solved once, at its first point in ravel order; the fresh eigenvector
    phase is aligned by maximal real overlap with the linear interpolation
    of the two bracketing table vectors.
    """

    def __init__(self, bands: BandTable, m: int, quantum: float = 1e-6,
                 gap_floor: float = 1e-8):
        bands.check_band(m)
        self.bands = bands
        self.m = m
        self.quantum = quantum
        self.gap_floor = gap_floor
        self._cache: dict[int, np.ndarray] = {}
        # points solved or evaluated at once: ~64 KB temporaries keep peak RSS flat
        self._rows_per_block = max(1, 2 ** 12 // (2 * bands.Lambda))
        # table vectors at node indices 0..L+1, which bracket every folded k,
        # each paired with its successor aligned to it so that a blend never
        # cancels (the wrapped node carries the band's gauge holonomy)
        nodes = _neighbor_vector(bands, m, np.arange(bands.grid.L + 2))
        ov = np.einsum("ij,ij->i", nodes[:-1].conj(), nodes[1:])
        self._pairs = nodes[:-1], nodes[1:] * _unit_conj(ov)[:, None]
        # gauge holonomy of the band across one zone: the smooth continuation
        # obeys chi(y, k+1) = h * exp(-i y) * chi(y, k) with h = +-1 for a
        # real symmetric lattice potential (Zak phase 0 or pi)
        self.holonomy = 1.0 if ov[-2].real >= 0 else -1.0  # nodes L-1, L

    def _solve(self, keys: np.ndarray, kf: np.ndarray) -> None:
        """Solve, gap-check, gauge-align and cache the keys at folded kf."""
        lo, hi = max(0, self.m - 2), min(2 * self.bands.Lambda - 1, self.m)
        vals, vecs = _lowest_eigenpairs(self.bands.potential,
                                        self.bands.Lambda, kf, lo, hi)
        idx = self.m - 1 - lo
        gap = band_gap(vals, idx)
        j = int(np.argmin(gap))
        if gap[j] <= self.gap_floor:
            raise BandGapTooSmall(f"band {self.m} gap {gap[j]:g} at k = {kf[j]:g}")
        pos = (kf + 0.5) * self.bands.grid.L  # fractional node index
        node = np.floor(pos).astype(int)
        w = (pos - node)[:, None]
        ref = (1 - w) * self._pairs[0][node] + w * self._pairs[1][node]
        ov = np.einsum("ij,ij->i", ref.conj(), vecs[idx])
        v = vecs[idx] * _unit_conj(ov)[:, None]
        self._cache.update(zip(keys.tolist(), map(np.copy, v)))

    def _keys(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct keys of 1-D k (uncached ones solved) and each point's key index."""
        if not np.all(np.isfinite(k)):
            raise NonFinite("non-finite quasi-momentum")
        kf = fold_k(k)
        keys, first, inv = np.unique(np.rint(kf / self.quantum).astype(np.int64),
                                     return_index=True, return_inverse=True)
        todo = np.flatnonzero([key not in self._cache for key in keys.tolist()])
        for b in range(0, todo.size, self._rows_per_block):
            j = todo[b:b + self._rows_per_block]
            self._solve(keys[j], kf[first[j]])
        return keys, inv

    def coeffs(self, k: float) -> np.ndarray:
        """Unit-norm Fourier coefficients of chi_m(., k), lam in [-Lambda, Lambda)."""
        return self._cache[int(self._keys(np.ravel(k).astype(float))[0][0])]

    def chi_values(self, k, y) -> np.ndarray:
        """chi_m(y_i, k_i) elementwise for matching arrays k and y.

        k may lie outside the first zone: the cell function obeys
        chi(y, k + 1) = exp(-i y) chi(y, k), so the evaluation folds k and
        restores the zone-shift phase.  Without it the two-scale assembly
        a(x) chi(x/eps, k(x)) exp(i phi/eps) would be discontinuous wherever
        the phase gradient crosses a zone edge.
        """
        kv, yv = np.ravel(k).astype(float), np.ravel(y).astype(float)
        if not np.all(np.isfinite(yv)):
            raise NonFinite("non-finite cell coordinate")
        keys, inv = self._keys(kv)
        shift = np.rint(kv - fold_k(kv))
        lam = np.arange(-self.bands.Lambda, self.bands.Lambda)
        out = np.empty(kv.size, dtype=complex)
        for b in range(0, kv.size, self._rows_per_block):
            blk = slice(b, b + self._rows_per_block)
            used, local = np.unique(inv[blk], return_inverse=True)
            rows = np.array([self._cache[key] for key in keys[used].tolist()])
            out[blk] = np.einsum("ij,ij->i", np.exp(
                1j * (lam - shift[blk, None]) * yv[blk, None]), rows[local])
        return (self.holonomy ** shift * out).reshape(np.shape(k) or (1,))


def _macro_spline(x: np.ndarray, f: np.ndarray):
    xs = np.concatenate([x, [TWO_PI]])
    if np.iscomplexobj(f):
        re = CubicSpline(xs, np.concatenate([f.real, f.real[:1]]), bc_type="periodic")
        im = CubicSpline(xs, np.concatenate([f.imag, f.imag[:1]]), bc_type="periodic")
        return lambda q: re(q) + 1j * im(q)
    return CubicSpline(xs, np.concatenate([f, f[:1]]), bc_type="periodic")


def build_wkb_initial(bands: BandTable, m: int, f: Callable, phi0: Callable,
                      grid: SimulationGrid) -> WaveField:
    """Two-scale initial data f(x) chi_m(x/eps, d(phi0)/dx) exp(i phi0 / eps)."""
    x = grid.x_nodes.reshape(-1)
    phi = np.asarray(phi0(x), dtype=float)
    p = _spectral_derivative(phi)
    chi = ChiInterpolator(bands, m)
    y = np.mod(x / grid.epsilon, TWO_PI)
    vals = np.asarray(f(x), dtype=complex) * chi.chi_values(p, y) \
        * np.exp(1j * phi / grid.epsilon)
    return WaveField(grid, vals.reshape(grid.L, grid.R))


def reconstruct_sc(phase: PhaseTrajectory, amp: AmplitudeTrajectory,
                   bands: BandTable, m: int, grid: SimulationGrid,
                   t: float, chi: Optional[ChiInterpolator] = None) -> WaveField:
    """Assemble the approximate semiclassical field a chi exp(i phi/eps) at t."""
    phi_macro, p_macro = phase.interp_time(t)
    a_macro = amp.interp_time(t)
    x = grid.x_nodes.reshape(-1)
    # the phase may carry a linear ramp; interpolate its periodic remainder
    ramp = (p_macro.mean()) * (phase.x - np.pi)
    phi_per = _macro_spline(phase.x, phi_macro - ramp)
    phi = phi_per(np.mod(x, TWO_PI)) + p_macro.mean() * (x - np.pi)
    p = _macro_spline(phase.x, p_macro - p_macro.mean())(np.mod(x, TWO_PI)) \
        + p_macro.mean()
    a = _macro_spline(phase.x, a_macro)(np.mod(x, TWO_PI))
    if chi is None:
        chi = ChiInterpolator(bands, m)
    y = np.mod(x / grid.epsilon, TWO_PI)
    vals = a * chi.chi_values(p, y) * np.exp(1j * phi / grid.epsilon)
    return WaveField(grid, vals.reshape(grid.L, grid.R))


def bicharacteristics(bands: BandTable, m: int, U: ExternalPotential,
                      x0: float, xi0: float, t_end: float,
                      dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 integration of the classical flow (X, Xi); returns (t, X, Xi)."""
    bands.check_band(m)
    if not U.is_smooth:
        from .errors import NonSmoothForce
        raise NonSmoothForce(f"{U.kind} external potential along bicharacteristics")

    def force(X):
        return -np.asarray(U.derivative(np.atleast_1d(X)))[0]

    def vel(Xi):
        return float(eval_band_deriv(bands, m, float(fold_k(Xi))))

    n = max(1, int(np.ceil(t_end / dt - 1e-12)))
    dt = t_end / n
    ts = np.empty(n + 1)
    Xs = np.empty(n + 1)
    Xis = np.empty(n + 1)
    ts[0], Xs[0], Xis[0] = 0.0, x0, xi0
    X, Xi = x0, xi0
    for i in range(1, n + 1):
        k1x, k1xi = vel(Xi), force(X)
        k2x, k2xi = vel(Xi + 0.5 * dt * k1xi), force(X + 0.5 * dt * k1x)
        k3x, k3xi = vel(Xi + 0.5 * dt * k2xi), force(X + 0.5 * dt * k2x)
        k4x, k4xi = vel(Xi + dt * k3xi), force(X + dt * k3x)
        X += dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        Xi += dt / 6 * (k1xi + 2 * k2xi + 2 * k3xi + k4xi)
        ts[i], Xs[i], Xis[i] = i * dt, X, Xi
    return ts, Xs, Xis


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
                 f: Callable, phi0: Callable, t_end: float, nx: int,
                 support_tol: float = 1e-8, dt: Optional[float] = None,
                 ) -> tuple[PhaseTrajectory, AmplitudeTrajectory, CausticReport]:
    """Phase + amplitude evolution with the amplitude-support caustic policy.

    A detected caustic halts the pipeline only if the transported amplitude
    at the trigger site is non-negligible; a trigger outside the support of
    the solution (e.g. the artificial kink of a non-periodic external
    potential at the domain seam) does not invalidate the expansion where
    the solution lives, so the phase is re-integrated past it.
    """
    if dt is None:
        # phase errors enter exp(i*phi/eps) amplified by 1/eps, so the step
        # must resolve the phase beyond the advective CFL scale
        kfine = np.linspace(-0.5, 0.5, 4 * bands.grid.L + 1)
        vmax = float(np.max(np.abs(eval_band_deriv(bands, m, kfine))))
        dt_cfl = 0.45 * (TWO_PI / nx) / (1.1 * max(vmax, 1e-6))
        dt = min(dt_cfl, np.sqrt(bands.grid.epsilon) / 8.0)
    traj, rep = hj_solve(bands, m, U, phi0, t_end, nx, dt=dt)
    if rep.detected:
        amp = transport_solve(bands, m, U, traj, f)
        a_end = np.abs(amp.a[-1])
        at_site = np.interp(rep.x_c, np.concatenate([traj.x, [TWO_PI]]),
                            np.concatenate([a_end, a_end[:1]]))
        if at_site > support_tol * a_end.max():
            raise CausticReached(rep)
        traj, _ = hj_solve(bands, m, U, phi0, t_end, nx, dt=dt,
                           caustic_factor=np.inf)
    amp = transport_solve(bands, m, U, traj, f)
    return traj, amp, rep


def wkb_compare(bands: BandTable, m: int, U: ExternalPotential,
                f: Callable, phi0: Callable, grid: SimulationGrid,
                t_end: float, nx: int, n_steps: int,
                n_samples: int = 11) -> WkbComparison:
    """sup-norm difference table between the BD solution and the WKB field."""
    from .grid import discrete_norms, field_difference
    from .steppers import BDPropagator

    traj, amp, rep = wkb_pipeline(bands, m, U, f, phi0, t_end, nx)
    chi = ChiInterpolator(bands, m)
    psi = build_wkb_initial(bands, m, f, phi0, grid)
    sample_times = np.linspace(0.0, t_end, n_samples)
    prop = BDPropagator(bands, U, t_end / n_steps, "strang")
    state = prop.enter(psi.values)
    l2s, linfs, bl2s = [], [], []
    next_sample = 0
    for n in range(n_steps + 1):
        t = n * t_end / n_steps
        if next_sample < n_samples and t >= sample_times[next_sample] - 1e-12:
            sc = reconstruct_sc(traj, amp, bands, m, grid, t, chi=chi)
            diff = field_difference(WaveField(grid, prop.leave(state)), sc)
            d2, dinf = discrete_norms(diff)
            l2s.append(d2)
            linfs.append(dinf)
            # the band projection is linear: the band-m part of the
            # difference is the difference of the band-m parts
            bl2s.append(prop.transform.masses(diff.values)[m - 1])
            next_sample += 1
        if n < n_steps:
            state = prop.advance(state)
    l2s = np.array(l2s)
    linfs = np.array(linfs)
    bl2s = np.array(bl2s)
    return WkbComparison(times=sample_times, l2=l2s, linf=linfs, band_l2=bl2s,
                         sup_l2=float(l2s.max()), sup_linf=float(linfs.max()),
                         sup_band_l2=float(bl2s.max()), caustic=rep)

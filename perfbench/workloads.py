"""The benchmark's three workloads, taken from the paper's scenarios.

Each workload has an untraced `solve` (the public call a user makes: `evolve`
as `blochstep evolve` makes it, or `wkb_compare`) and a traced `replay` that
makes the same public calls in the same order, each inside a span, so that
both end on the same field.  `probes` times, standalone on the workload's own
field and table, the layers that its replay does not reach with a span.

The inputs are fixed by the paper: a Gaussian packet at x = pi under the
harmonic external potential.  The seed only picks a global phase exp(i theta)
of the initial data.  The equation is linear, so every output turns by the
same phase and every error metric is the same for all seeds up to round-off.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from blochstep import (
    BandTable,
    BlochCoeffs,
    ChiInterpolator,
    PeriodicPotential,
    PhaseTrajectory,
    SimulationGrid,
    StepperConfig,
    WaveField,
    WkbComparison,
    band_masses,
    band_project,
    band_reconstruct,
    bd_periodic_flow,
    build_grid,
    build_wkb_initial,
    cell_forward,
    cell_inverse,
    discrete_norms,
    eval_band,
    evolve,
    external_from_spec,
    external_phase,
    fold_k,
    hj_solve,
    kronig_penney,
    mathieu,
    reconstruct_sc,
    sample_gaussian,
    solve_bands,
    transport_solve,
    wkb_compare,
    wkb_pipeline,
)
from blochstep.errors import NonFinite
from blochstep.grid import field_difference
from blochstep.steppers import step

BENCH_DIR = Path(__file__).resolve().parent

T = 1.0
R = 32
M = 8
LAMBDA = 32
EPS_FINE = 1.0 / 1024
KP_LAMBDA = 64           # Fourier table of the Kronig-Penney lattice
EPS_WKB = 1.0 / 32
WKB_BAND = 1
WKB_NX = 256
WKB_SAMPLES = 11
# WKB probes on the eps = 1/1024 table stop early: there every reconstructed
# point has its own quasi-momentum, so a full-horizon probe would cost more
# than the workload itself.
WKB_PROBE_T = 0.05

REF_R = 64               # the reference grid also uses Lambda = REF_R
REF_STEPS = 10_000
REF_FILE = BENCH_DIR / "data" / "kp_eps1024_ref.npy"

# The kinds of work in each workload's set-up and solve, as shares of its
# time, by the parts of calibrate.ReferenceWork: from profiles of the program
# when this benchmark was added, then checked against twenty runs of each
# workload (WKB's small-array numpy tracks the elementwise part best).  They
# only pick how the run gauges the machine's speed; a change to the program
# does not need to update them.
SPEED_MIX = {
    # solve_bands: 1024 eigensolves of 64 x 64
    "bd": {"setup": {"eigh": 1.0},
           # band_masses and bd_step: contractions, broadcast products, FFTs
           "solve": {"matmul": 0.35, "elementwise": 0.4, "fft": 0.25}},
    # fresh grid-sized arrays
    "ts": {"setup": {"elementwise": 0.5, "faults": 0.5},
           # FFTs and phase factors on the grid, each into fresh memory
           "solve": {"fft": 0.4, "elementwise": 0.35, "faults": 0.25}},
    # solve_bands on 32 nodes
    "wkb": {"setup": {"eigh": 1.0},
            # chi eigensolves and the small-array numpy around them
            "solve": {"eigh": 0.7, "elementwise": 0.3}},
}

MASS_TOL = 1e-11         # mass drift may move this much from expected.json
ERR_TOL = 1e-9           # error metrics may move this much from expected.json
REPLAY_TOL = 1e-12       # traced replay vs untraced solve


def harmonic():
    return external_from_spec("harmonic")


def gaussian(x):
    return np.exp(-5.0 * (x - np.pi) ** 2)


def zero_phase(x):
    return 0.0 * x


@dataclass
class Setup:
    grid: SimulationGrid
    lattice: PeriodicPotential
    table: Optional[BandTable]  # None where the scheme needs none
    theta: float
    psi0: Optional[WaveField] = None
    amplitude: Optional[Callable] = None


@dataclass
class Outcome:
    final: Optional[WaveField] = None
    masses: Optional[np.ndarray] = None       # evolve: l2 norm per step
    cmp: Optional[WkbComparison] = None       # wkb_compare
    phase: Optional[PhaseTrajectory] = None   # replayed wkb_pipeline phase


def band_part(field, table, m, tr):
    """Band-m component of a field, through the public transform calls."""
    C = tr.call("transform.band_project", band_project,
                tr.call("transform.cell_forward", cell_forward, field), table)
    single = np.zeros_like(C.values)
    single[m - 1] = C.values[m - 1]
    return tr.call("transform.cell_inverse", cell_inverse,
                   tr.call("transform.band_reconstruct", band_reconstruct,
                           BlochCoeffs(table, single)))


def load_reference(expected: dict) -> np.ndarray:
    """The stored fine reference, after checking it against its checksum."""
    blob = REF_FILE.read_bytes()
    if hashlib.sha256(blob).hexdigest() != expected["reference"]["sha256"]:
        raise ValueError(f"{REF_FILE.name} does not match its recorded checksum")
    return np.load(REF_FILE)


def _finite(psi):
    if not np.all(np.isfinite(psi.values)):
        raise NonFinite("non-finite field")


class EvolveWorkload:
    """`evolve` of the Gaussian packet on the Kronig-Penney lattice at
    eps = 1/1024; the error is measured against a fine BD reference."""

    def __init__(self, scheme: str, steps: int):
        self.scheme = scheme
        self.steps = steps
        # `blochstep evolve` tracks band masses for BD on every step
        self.track_band_masses = scheme == "bd"
        self.speed_mix = SPEED_MIX[scheme]

    def setup(self, theta, tr) -> Setup:
        grid = build_grid(EPS_FINE, R)
        lattice = kronig_penney(KP_LAMBDA)
        table = None
        if self.scheme == "bd":
            table = tr.call("bands.solve_bands", solve_bands, lattice, grid,
                            LAMBDA, M)
        psi0 = WaveField(grid, sample_gaussian(grid).values * np.exp(1j * theta))
        return Setup(grid, lattice, table, theta, psi0=psi0)

    def config(self, s: Setup) -> StepperConfig:
        return StepperConfig(self.scheme, "strang", T / self.steps,
                             bands=s.table, lattice=s.lattice,
                             external=harmonic())

    def solve(self, s: Setup) -> Outcome:
        traj = evolve(s.psi0, self.config(s), T, self.steps,
                      track_band_masses=self.track_band_masses)
        return Outcome(final=traj.final, masses=traj.mass_history)

    def replay(self, s: Setup, tr) -> Outcome:
        """The loop of `evolve`, one span per public call."""
        cfg = self.config(s)
        step_span = f"steppers.{self.scheme}_step"
        psi = s.psi0.copy()
        _finite(psi)
        masses = [tr.call("grid.discrete_norms", discrete_norms, psi)[0]]
        if self.track_band_masses:
            tr.call("transform.band_masses", band_masses, psi, s.table)
        for _ in range(self.steps):
            psi = tr.call(step_span, step, psi, cfg)
            _finite(psi)
            masses.append(tr.call("grid.discrete_norms", discrete_norms, psi)[0])
            if self.track_band_masses:
                tr.call("transform.band_masses", band_masses, psi, s.table)
        return Outcome(final=psi, masses=np.array(masses))

    @staticmethod
    def replay_gap(a: Outcome, b: Outcome) -> float:
        return float(max(np.max(np.abs(a.final.values - b.final.values)),
                         np.max(np.abs(a.masses - b.masses))))

    def band_table(self, s: Setup, tr):
        """The workload's table; TS has none, so this builds it (as a probe)."""
        if s.table is None:
            s.table = tr.probe("bands.solve_bands", solve_bands, s.lattice,
                               s.grid, LAMBDA, M)
        return s.table

    def check(self, s: Setup, out: Outcome, ref, expected) -> list[str]:
        """Reasons this solve is wrong (empty when it is right)."""
        problems = []
        if not np.all(np.isfinite(out.final.values)):
            return ["non-finite field"]
        # TS conserves mass to round-off.  BD loses the mass that each
        # external-phase multiply moves outside the M retained bands: that
        # loss is the truncation error, so it is checked against its
        # recorded value instead of against zero.
        drift = self.mass_drift(out)
        if abs(drift - expected["mass_drift"]) > MASS_TOL:
            problems.append(f"mass drift {drift!r} != recorded "
                            f"{expected['mass_drift']!r}")
        err = self.err_linf(s, out, ref)
        if abs(err - expected["err_linf"]) > ERR_TOL:
            problems.append(f"err_linf {err!r} != recorded {expected['err_linf']!r}")
        return problems

    @staticmethod
    def mass_drift(out: Outcome) -> float:
        return float(np.max(np.abs(out.masses - out.masses[0])))

    def _reference_field(self, s: Setup, ref) -> WaveField:
        return WaveField(s.grid, ref * np.exp(1j * s.theta))

    def err_linf(self, s: Setup, out: Outcome, ref) -> float:
        return discrete_norms(field_difference(
            out.final, self._reference_field(s, ref)))[1]

    def errors(self, s: Setup, out: Outcome, ref, tr) -> dict:
        """err_linf, and sup_band_l2: the largest l2 distance between the
        band-m components of the result and of the reference, over m."""
        table = self.band_table(s, tr)
        ref_field = self._reference_field(s, ref)
        sup_band = max(
            discrete_norms(field_difference(band_part(out.final, table, m, tr),
                                            band_part(ref_field, table, m, tr)))[0]
            for m in range(1, M + 1))
        return {"err_linf": self.err_linf(s, out, ref), "sup_band_l2": sup_band}

    def probes(self, s: Setup, out: Outcome, tr) -> None:
        table = self.band_table(s, tr)
        run_probes(tr, s, out.final, table, self.steps, t_end=WKB_PROBE_T,
                   dt=None)


class WkbWorkload:
    """`wkb_compare` on the cosine lattice at eps = 1/32, band 1: the BD
    solution against the asymptotic (WKB) reconstruction."""

    steps = 1000
    speed_mix = SPEED_MIX["wkb"]

    def setup(self, theta, tr) -> Setup:
        grid = build_grid(EPS_WKB, R)
        lattice = mathieu(LAMBDA)
        table = tr.call("bands.solve_bands", solve_bands, lattice, grid,
                        LAMBDA, M)
        phase = np.exp(1j * theta)
        return Setup(grid, lattice, table, theta,
                     amplitude=lambda x: phase * gaussian(x))

    def solve(self, s: Setup) -> Outcome:
        cmp = wkb_compare(s.table, WKB_BAND, harmonic(), s.amplitude,
                          zero_phase, s.grid, T, WKB_NX, self.steps,
                          n_samples=WKB_SAMPLES)
        return Outcome(cmp=cmp)

    def replay(self, s: Setup, tr) -> Outcome:
        """The body of `wkb_compare`, one span per public call."""
        tab, m, grid, U = s.table, WKB_BAND, s.grid, harmonic()
        traj, amp, rep = tr.call("wkb.wkb_pipeline", wkb_pipeline, tab, m, U,
                                 s.amplitude, zero_phase, T, WKB_NX)
        chi = ChiInterpolator(tab, m)
        psi = tr.call("wkb.build_wkb_initial", build_wkb_initial, tab, m,
                      s.amplitude, zero_phase, grid)
        sample_times = np.linspace(0.0, T, WKB_SAMPLES)
        cfg = StepperConfig("bd", "strang", T / self.steps, bands=tab, external=U)
        l2s, linfs, bl2s = [], [], []
        next_sample = 0
        for n in range(self.steps + 1):
            t = n * T / self.steps
            if next_sample < WKB_SAMPLES and t >= sample_times[next_sample] - 1e-12:
                sc = tr.call("wkb.reconstruct_sc", reconstruct_sc, traj, amp,
                             tab, m, grid, t, chi=chi)
                tr.count("wkb.chi_lookups", grid.n_points)
                d2, dinf = tr.call("grid.discrete_norms", discrete_norms,
                                   field_difference(psi, sc))
                l2s.append(d2)
                linfs.append(dinf)
                bl2s.append(tr.call("grid.discrete_norms", discrete_norms,
                                    field_difference(band_part(psi, tab, m, tr),
                                                     band_part(sc, tab, m, tr)))[0])
                next_sample += 1
            if n < self.steps:
                psi = tr.call("steppers.bd_step", step, psi, cfg)
        # the interpolator solves one eigenproblem per distinct cached k
        tr.count("wkb.chi_eigensolves", len(chi._cache))
        l2s, linfs, bl2s = np.array(l2s), np.array(linfs), np.array(bl2s)
        cmp = WkbComparison(times=sample_times, l2=l2s, linf=linfs, band_l2=bl2s,
                            sup_l2=float(l2s.max()), sup_linf=float(linfs.max()),
                            sup_band_l2=float(bl2s.max()), caustic=rep)
        return Outcome(final=psi, cmp=cmp, phase=traj)

    @staticmethod
    def replay_gap(a: Outcome, b: Outcome) -> float:
        return float(max(np.max(np.abs(getattr(a.cmp, k) - getattr(b.cmp, k)))
                         for k in ("l2", "linf", "band_l2")))

    def check(self, s: Setup, out: Outcome, ref, expected) -> list[str]:
        cmp = out.cmp
        arrays = np.concatenate([cmp.l2, cmp.linf, cmp.band_l2])
        if not np.all(np.isfinite(arrays)):
            return ["non-finite comparison"]
        got = self.errors(s, out, ref, None)
        return [f"{k} {got[k]!r} != recorded {expected[k]!r}"
                for k in got if abs(got[k] - expected[k]) > ERR_TOL]

    def errors(self, s: Setup, out: Outcome, ref, tr) -> dict:
        """err_linf: sup over the sample times of the sup-norm distance
        between the BD and WKB fields; sup_band_l2: the same in l2 for
        their band-1 components."""
        return {"err_linf": out.cmp.sup_linf, "sup_band_l2": out.cmp.sup_band_l2}

    def probes(self, s: Setup, out: Outcome, tr) -> None:
        # the pipeline picks its own phase step; read it back
        dt = T / (len(out.phase.times) - 1)
        run_probes(tr, s, out.final, s.table, self.steps, t_end=T, dt=dt)


def run_probes(tr, s: Setup, psi, table, steps, t_end, dt) -> None:
    """Standalone timings of every layer on this workload's field and table;
    layers the replay already spanned are skipped."""
    U = harmonic()
    grid = s.grid
    eps = grid.epsilon
    h = T / steps
    bd_cfg = StepperConfig("bd", "strang", h, bands=table, external=U)
    ts_cfg = StepperConfig("ts", "strang", h, lattice=s.lattice, external=U)
    tr.probe("steppers.bd_step", step, psi, bd_cfg)
    tr.probe("steppers.ts_step", step, psi, ts_cfg)
    tr.probe("steppers.bd_periodic_flow", bd_periodic_flow, psi, table, h / 2, eps)
    tr.probe("steppers.external_phase", external_phase, psi, U, h, eps)
    tr.probe("transform.band_masses", band_masses, psi, table)
    tilde = tr.probe("transform.cell_forward", cell_forward, psi)
    C = tr.probe("transform.band_project", band_project, tilde, table)
    back = tr.probe("transform.band_reconstruct", band_reconstruct, C)
    tr.probe("transform.cell_inverse", cell_inverse, back)
    tr.probe("grid.discrete_norms", discrete_norms, psi)
    phase, _ = tr.probe("wkb.hj_solve", hj_solve, table, WKB_BAND, U,
                        zero_phase, t_end, WKB_NX, dt=dt, caustic_factor=np.inf)
    tr.probe("bands.eval_band", eval_band, table, WKB_BAND, fold_k(phase.p[-1]))
    amp = tr.probe("wkb.transport_solve", transport_solve, table, WKB_BAND, U,
                   phase, s.amplitude or gaussian)
    tr.probe("wkb.build_wkb_initial", build_wkb_initial, table, WKB_BAND,
             s.amplitude or gaussian, zero_phase, grid)
    if "wkb.chi_lookups" not in tr.counts:
        # reconstruct at t = 0, where the phase gradient (hence k) is one value
        chi = ChiInterpolator(table, WKB_BAND)
        tr.probe("wkb.reconstruct_sc", reconstruct_sc, phase, amp, table,
                 WKB_BAND, grid, 0.0, chi=chi)
        tr.count("wkb.chi_lookups", len(tr.probes["wkb.reconstruct_sc"]) * grid.n_points)
        tr.count("wkb.chi_eigensolves", len(chi._cache))


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "bd_kp_fine": EvolveWorkload("bd", 100),
    "ts_kp_fine": EvolveWorkload("ts", 1000),
    "wkb_mathieu": WkbWorkload(),
}

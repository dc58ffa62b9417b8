"""Experiment orchestration: convergence studies, scheme comparisons,
deterministic report emission (CSV / markdown / SVG), config parsing,
and a fast self-test of the library invariants."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .bands import solve_bands
from .errors import IoFailure, ShapeMismatch
from .grid import (
    WaveField,
    build_grid,
    discrete_norms,
    field_difference,
    output_dir,
    read_file,
    sample_gaussian,
    write_file,
    write_lines,
)
from .potential import external_from_spec, lattice_from_spec
from .steppers import StepperConfig, evolve

# the BD reference of a study has this many times the finest R, and a step
# this many times smaller than the finest dt
REFERENCE_SPATIAL_FACTOR = 2
REFERENCE_TEMPORAL_FACTOR = 10


@dataclass
class ExperimentConfig:
    """Settings for one convergence study or comparison run."""

    scenario: str = "spatial"        # "spatial" | "temporal"
    epsilon: float = 1.0 / 32
    R: int = 32                      # finest per-cell resolution (spatial study
    #                                  sweeps up to R; temporal study holds R)
    M: int = 8
    Lambda: int = 32
    lattice: str = "mathieu"
    external: str = "none"
    schemes: tuple = ("bd",)
    dt_list: tuple = ()              # strictly decreasing for temporal studies
    dt: float = 0.01                 # step for spatial studies
    T: float = 0.1
    out_dir: str = "out"

    def __post_init__(self):
        if self.scenario not in ("spatial", "temporal"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not set(self.schemes) <= {"bd", "ts"}:
            raise ValueError(f"unknown scheme in {self.schemes!r}")
        if self.dt_list and not all(
                a > b for a, b in zip(self.dt_list, self.dt_list[1:])):
            raise ValueError("dt list must be strictly decreasing")
        if not all(0 < h < np.inf for h in (self.dt, *self.dt_list)):
            raise ValueError(f"steps must be > 0 and finite: dt = {self.dt}, "
                             f"dt list = {self.dt_list}")
        if not 0 < self.T < np.inf:
            raise ValueError(f"T = {self.T} must be finite and > 0")
        if self.scenario == "spatial" and self.R < 4:
            raise ValueError(f"R = {self.R} gives no level of a spatial "
                             f"study, whose levels are R = 4, 8, ... <= R")
        # the reference runs the finest step over REFERENCE_TEMPORAL_FACTOR
        finest = min(self.dt_list if self.scenario == "temporal"
                     and self.dt_list else (self.dt,))
        steps = self.T / finest * REFERENCE_TEMPORAL_FACTOR
        if not steps <= 2 ** 53:
            raise ValueError(f"T / dt = {steps:g} reference steps is not a "
                             f"representable step count")


@dataclass
class ErrorReport:
    """Errors per refinement level plus observed orders between levels."""

    scheme: str
    label: str                       # refined quantity ("dx/eps" or "dt")
    levels: list                     # refinement parameter per row
    l2: list
    linf: list
    orders: list                     # len(levels) - 1 entries
    wall_clock: list                 # seconds per run
    mass_drift: list                 # |mass(T) - mass(0)| per run


def compare_solutions(a: WaveField, b: WaveField) -> tuple[float, float]:
    """(l2, linf) norms of a - b on a common grid."""
    return discrete_norms(field_difference(a, b))


def observed_orders(levels, errors) -> list:
    """log(e_i / e_{i+1}) / log(h_i / h_{i+1}) between adjacent refinement
    levels h_i; nan where an error is not positive."""
    out = []
    for h0, h1, e0, e1 in zip(levels, levels[1:], errors, errors[1:]):
        if e0 > 0 and e1 > 0:
            out.append(float(np.log2(e0 / e1) / np.log2(h0 / h1)))
        else:
            out.append(float("nan"))
    return out


def _restrict(psi: WaveField, grid) -> WaveField:
    """Pointwise restriction from a finer nested grid (same L, larger R)."""
    step = psi.grid.R // grid.R
    if step * grid.R != psi.grid.R or psi.grid.L != grid.L:
        raise ShapeMismatch("reference grid is not a nested refinement")
    return WaveField(grid, psi.values[:, ::step])


def _run_once(config: ExperimentConfig, scheme: str, R: int, dt: float,
              lattice, U):
    grid = build_grid(config.epsilon, R)
    Lambda = max(config.Lambda, R // 2 + 1, config.M)
    psi0 = sample_gaussian(grid)
    N = max(1, int(round(config.T / dt)))
    tic = time.perf_counter()
    tab = solve_bands(lattice, grid, Lambda, config.M) if scheme == "bd" else None
    cfg = StepperConfig(scheme, "strang", config.T / N, bands=tab,
                        lattice=lattice, external=U)
    out = evolve(psi0, cfg, config.T, N)
    wall = time.perf_counter() - tic
    drift = float(abs(out.mass_history[-1] - out.mass_history[0]))
    return out.final, wall, drift


def run_convergence_study(config: ExperimentConfig) -> list[ErrorReport]:
    """One ErrorReport per scheme; levels follow the configured scenario."""
    n_fourier = max(config.Lambda, REFERENCE_SPATIAL_FACTOR * config.R)
    lattice = lattice_from_spec(config.lattice, n_fourier)
    U = external_from_spec(config.external)
    if config.scenario == "spatial":
        label = "dx/eps"
        runs = [(4 * 2 ** j, config.dt)  # R = 4, 8, ... up to config.R
                for j in range(30) if 4 * 2 ** j <= config.R]
    else:
        label = "dt"
        runs = [(config.R, dt) for dt in list(config.dt_list) or [config.dt]]
    R_finest, dt_finest = runs[-1]
    ref = _run_once(config, "bd", REFERENCE_SPATIAL_FACTOR * R_finest,
                    dt_finest / REFERENCE_TEMPORAL_FACTOR, lattice, U)[0]
    reports = []
    for scheme in config.schemes:
        rows = []
        for R, dt in runs:
            psi, wall, drift = _run_once(config, scheme, R, dt, lattice, U)
            l2, linf = compare_solutions(psi, _restrict(ref, psi.grid))
            rows.append((1.0 / R if label == "dx/eps" else dt,
                         l2, linf, wall, drift))
        levels, l2s, linfs, walls, drifts = (list(c) for c in zip(*rows))
        reports.append(ErrorReport(
            scheme=scheme, label=label, levels=levels, l2=l2s, linf=linfs,
            orders=observed_orders(levels, l2s), wall_clock=walls,
            mass_drift=drifts))
    return reports


def _fmt(x) -> str:
    if isinstance(x, float):
        return "" if x != x else f"{x:.6g}"  # nan prints as an empty cell
    return str(x)


def emit_report(report: ErrorReport, fmt: str, out_dir) -> Path:
    """Write one report file; byte-deterministic for identical input."""
    out_dir = output_dir(out_dir)
    stem = f"{report.scheme}_{report.label.replace('/', '_')}"
    orders = [float("nan")] + list(report.orders)  # no order on the first row
    if fmt == "csv":
        path = out_dir / f"{stem}.csv"
        lines = [f"{report.label},l2,linf,order,wall_clock,mass_drift"]
        lines += [",".join(_fmt(v) for v in row) for row in zip(
            report.levels, report.l2, report.linf, orders,
            report.wall_clock, report.mass_drift)]
    elif fmt == "markdown-table":
        path = out_dir / f"{stem}.md"
        lines = [f"| {report.label} | l2 | linf | order |", "|---|---|---|---|"]
        lines += ["| " + " | ".join(_fmt(v) for v in row) + " |" for row in
                  zip(report.levels, report.l2, report.linf, orders)]
    elif fmt == "svg-lineplot":
        path = out_dir / f"{stem}.svg"
        lines = [_svg_loglog(report)]
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return write_lines(path, lines)


def _svg_loglog(report: ErrorReport) -> str:
    """Minimal log-log error plot, 400x300, no external dependencies; the
    text has no final newline."""
    W, H, pad = 400, 300, 40
    xs = np.log10(np.asarray(report.levels, dtype=float))
    ys = np.log10(np.maximum(np.asarray(report.l2, dtype=float), 1e-300))
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def px(x):
        return pad + (x - x0) / xspan * (W - 2 * pad)

    def py(y):
        return H - pad - (y - y0) / yspan * (H - 2 * pad)

    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">\n'
        f'<rect width="{W}" height="{H}" fill="white"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="black"/>\n'
        + "".join(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                  f'fill="black"/>\n' for x, y in zip(xs, ys))
        + f'<text x="{W // 2}" y="{H - 8}" text-anchor="middle" '
        f'font-size="12">log10 {report.label}</text>\n'
        f'<text x="12" y="{H // 2}" font-size="12" '
        f'transform="rotate(-90 12 {H // 2})" '
        f'text-anchor="middle">log10 l2 error</text>\n'
        "</svg>"
    )


def _config_dict(config) -> dict:
    return asdict(config) if isinstance(config, ExperimentConfig) else dict(config)


def config_hash(config) -> str:
    """16-hex-digit hash of an ExperimentConfig or a plain settings mapping."""
    blob = json.dumps(_config_dict(config), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_manifest(out_dir, config, files) -> Path:
    """manifest.json with the config, its hash and the names of the files
    written; config is an ExperimentConfig or a plain settings mapping."""
    out_dir = output_dir(out_dir)
    manifest = {
        "config_hash": config_hash(config),
        "config": _config_dict(config),
        "files": sorted(str(Path(f).name) for f in files),
    }
    return write_lines(out_dir / "manifest.json",
                       [json.dumps(manifest, indent=2, sort_keys=True,
                                   default=str)])


def name_list(text: str) -> tuple:
    """Comma-separated entries, blanks dropped: 'bd, ts' -> ('bd', 'ts')."""
    return tuple(x.strip() for x in text.split(",") if x.strip())


def float_list(text: str) -> tuple:
    """Comma-separated floats, blanks dropped."""
    return tuple(float(x) for x in name_list(text))


_CONFIG_CASTS = {
    "epsilon": float, "R": int, "M": int, "Lambda": int, "dt": float,
    "T": float, "schemes": name_list, "dt_list": float_list,
}


def parse_config_file(path) -> ExperimentConfig:
    """Flat key=value UTF-8 text; '#' starts a comment; keys mirror
    ExperimentConfig.  A file that cannot be read or decoded, a line without
    '=', an unknown key or a value its cast rejects raises IoFailure, naming
    path:line for the last three."""
    kwargs = {}
    try:
        text = read_file(path).decode()
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise IoFailure(f"{path}:{lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in ExperimentConfig.__dataclass_fields__:
            raise IoFailure(f"{path}:{lineno}: unknown key {key!r}")
        try:
            kwargs[key] = _CONFIG_CASTS.get(key, str)(value)
        except ValueError as exc:
            raise IoFailure(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def selftest(verbose: bool = True) -> bool:
    """Small-size invariant sweep across the library; returns overall pass."""
    from .bands import eval_band
    from .potential import mathieu
    from .steppers import step
    from .transform import BlochTransform

    rng = np.random.default_rng(0)
    checks = []

    def check(module, name, fn):
        tic = time.perf_counter()
        try:
            fn()
            ok, msg = True, ""
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            ok, msg = False, f"{type(exc).__name__}: {exc}"
        checks.append((module, name, ok, msg, time.perf_counter() - tic))

    def table():
        return solve_bands(mathieu(16), build_grid(1.0 / 8, 16), 16, 4)

    def random_coeffs():
        return rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))

    def gram_round_trip():
        tr, C = BlochTransform(table()), random_coeffs()
        GC = np.matmul(tr.gram(), C[:, :, None])[:, :, 0]
        assert np.max(np.abs(tr.forward(tr.backward(C)) - GC)) < 1e-12

    def projection_identity():
        tr, C = BlochTransform(table()), random_coeffs()
        assert np.max(np.abs(tr.forward(tr.backward(C)) - C)) < 1e-10

    def gauge_invariance():
        tab = table()
        psi = sample_gaussian(tab.grid)
        ref = step(psi, StepperConfig("bd", "strang", 0.01, bands=tab))
        phases = np.exp(2j * np.pi * rng.random((4, 8)))
        twisted = type(tab)(grid=tab.grid, M=tab.M, Lambda=tab.Lambda,
                            energies=tab.energies,
                            vectors=tab.vectors * phases[:, :, None],
                            potential=tab.potential)
        out = step(psi, StepperConfig("bd", "strang", 0.01, bands=twisted))
        assert np.max(np.abs(out.values - ref.values)) < 1e-12

    def cache_integrity():
        import tempfile

        from .bands import load_band_cache, save_band_cache
        grid = build_grid(1.0 / 4, 8)
        tab = solve_bands(mathieu(8), grid, 8, 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bands.bin"
            save_band_cache(tab, path)
            data = bytearray(read_file(path))
            data[len(data) // 2] ^= 0xFF
            write_file(path, bytes(data))
            try:
                load_band_cache(path, grid, tab.potential)
            except Exception:
                return
            raise AssertionError("corrupted cache not detected")

    def band_symmetry():
        for m in range(1, 5):
            e = eval_band(table(), m, np.array([0.21, -0.21]))
            assert abs(e[0] - e[1]) < 1e-9

    check("blochxform", "Gram matrix is the transform round trip",
          gram_round_trip)
    check("blochxform", "projection idempotency", projection_identity)
    check("steppers", "gauge invariance of BD step", gauge_invariance)
    check("band", "cache corruption detected", cache_integrity)
    check("band", "E(-k) = E(k) for a real potential", band_symmetry)

    ok = all(c[2] for c in checks)
    if verbose:
        for module, name, passed, msg, secs in checks:
            status = "PASS" if passed else "FAIL"
            extra = f"  ({msg})" if msg else ""
            print(f"[{status}] {module}: {name} [{secs:.2f}s]{extra}")
        print("selftest:", "all invariants hold" if ok
              else "first failure shown above", f"(seed=0)")
    return ok

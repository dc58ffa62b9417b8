"""Command-line entry point: band tables, time evolution, scheme comparison,
asymptotic (WKB) runs and convergence studies."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from .bands import _band_sizes, save_band_cache, solve_bands
from .errors import BlochStepError
from .grid import (
    build_grid,
    sample_gaussian,
    save_wavefield_binary,
    save_wavefield_csv,
    write_lines,
)
from .potential import external_from_spec, lattice_from_spec
from .steppers import StepperConfig, evolve
from .wkb import wkb_compare, wkb_pipeline


def _add_problem_flags(p: argparse.ArgumentParser, external_default="none",
                       out_default="out"):
    p.add_argument("--eps", type=float, default=1 / 32,
                   help="semiclassical parameter (1/eps must be an integer)")
    p.add_argument("--R", type=int, default=32, help="grid points per cell")
    p.add_argument("--M", type=int, default=8, help="number of bands")
    p.add_argument("--Lambda", type=int, default=32,
                   help="Fourier truncation of the cell eigenproblem")
    p.add_argument("--lattice", default="mathieu",
                   help="mathieu | kronig_penney | file:<path>")
    if external_default is not None:
        p.add_argument("--external", default=external_default,
                       help="none | harmonic | step | linear:<E>")
    p.add_argument("--out", default=out_default)


def _count(low: int):
    """argparse type of a step, point or snapshot count: an integer >= low."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer >= {low}")
        return n
    return parse


def _settings(args: argparse.Namespace) -> dict:
    """The parsed flags, as recorded in manifest.json."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def _setup(args):
    """(out, grid, lattice, Lambda of its bands, U or None); checks --T."""
    if "T" in args and not 0 < args.T < np.inf:
        raise ValueError(f"T = {args.T} must be finite and > 0")
    grid = build_grid(args.eps, args.R)
    Lambda, n_fourier = _band_sizes(args.Lambda, args.R, args.M)
    lattice = lattice_from_spec(args.lattice, n_fourier)
    U = external_from_spec(args.external) if "external" in args else None
    return Path(args.out), grid, lattice, Lambda, U


def cmd_bands(args) -> int:
    out, grid, lattice, Lambda, _ = _setup(args)
    table = solve_bands(lattice, grid, Lambda, args.M)
    cache = out / "bands.bin"
    save_band_cache(table, cache)
    header = "k," + ",".join(f"E_{m}" for m in range(1, args.M + 1))
    csv_path = write_lines(out / "bands.csv", [header] + [
        ",".join(f"{v:.6g}" for v in (grid.k_nodes[l], *table.energies[:, l]))
        for l in np.argsort(grid.k_nodes)])
    harness.write_manifest(out, _settings(args), [cache, csv_path])
    print(f"wrote {cache} and {csv_path}")
    return 0


def cmd_evolve(args) -> int:
    out, grid, lattice, Lambda, U = _setup(args)
    # TS samples the lattice and needs no band table
    table = (solve_bands(lattice, grid, Lambda, args.M)
             if args.scheme == "bd" else None)
    psi0 = sample_gaussian(grid)
    cfg = StepperConfig(args.scheme, args.order, args.T / args.steps,
                        bands=table, lattice=lattice, external=U)
    traj = evolve(psi0, cfg, args.T, args.steps,
                  snapshot_every=args.snapshot_every,
                  track_band_masses=args.scheme == "bd")
    files = []
    for t, snap in zip(traj.times, traj.snapshots):
        stem = f"psi_t{t:.6g}".replace(".", "p")
        save_wavefield_csv(snap, out / f"{stem}.csv")
        save_wavefield_binary(snap, out / f"{stem}.bin")
        files += [out / f"{stem}.csv", out / f"{stem}.bin"]
    drift = abs(traj.mass_history[-1] - traj.mass_history[0])
    print(f"final mass {traj.mass_history[-1]:.9f} (drift {drift:.3e})")
    if traj.band_mass_history is not None:
        masses = traj.band_mass_history[-1]
        print("band masses:",
              " ".join(f"{v:.5f}" for v in masses))
    harness.write_manifest(out, _settings(args), files)
    return 0


def cmd_compare(args) -> int:
    out, grid, lattice, Lambda, U = _setup(args)
    table = solve_bands(lattice, grid, Lambda, args.M)
    psi0 = sample_gaussian(grid)
    bd_cfg = StepperConfig("bd", "strang", args.T / args.bd_steps,
                           bands=table, external=U)
    ts_cfg = StepperConfig("ts", "strang", args.T / args.ts_steps,
                           lattice=lattice, external=U)
    bd = evolve(psi0, bd_cfg, args.T, args.bd_steps).final
    ts = evolve(psi0, ts_cfg, args.T, args.ts_steps).final
    ref_steps = 10 * max(args.bd_steps, args.ts_steps)
    ref = evolve(psi0, StepperConfig("bd", "strang", args.T / ref_steps,
                                     bands=table, external=U),
                 args.T, ref_steps).final
    rows = [("bd", *harness.compare_solutions(bd, ref)),
            ("ts", *harness.compare_solutions(ts, ref))]
    path = write_lines(out / "compare.csv", ["scheme,l2,linf"] + [
        f"{scheme},{l2:.6g},{linf:.6g}" for scheme, l2, linf in rows])
    for scheme, l2, linf in rows:
        print(f"{scheme}: l2 = {l2:.6g}, linf = {linf:.6g}")
    harness.write_manifest(out, _settings(args), [path])
    return 0


def _gaussian(x):
    return np.exp(-5.0 * (x - np.pi) ** 2)


_PHI0 = {"zero": lambda x: 0.0 * x, "neg-cos": lambda x: -np.cos(x)}


def cmd_wkb(args) -> int:
    out, grid, lattice, Lambda, U = _setup(args)
    table = solve_bands(lattice, grid, Lambda, args.M)
    phi0 = _PHI0[args.phi0]
    files = []
    if args.compare:
        cmp = wkb_compare(table, args.band, U, _gaussian, phi0, grid,
                          args.t_end, args.nx, args.steps)
        files.append(write_lines(out / "wkb_compare.csv", [
            "t,l2,linf,band_l2"] + [
            f"{t:.6g},{a:.6g},{b:.6g},{c:.6g}"
            for t, a, b, c in zip(cmp.times, cmp.l2, cmp.linf, cmp.band_l2)]))
        print(f"sup l2 = {cmp.sup_l2:.6g}, sup linf = {cmp.sup_linf:.6g}, "
              f"sup in-band l2 = {cmp.sup_band_l2:.6g}")
        rep = cmp.caustic
    else:
        traj, amp, rep = wkb_pipeline(table, args.band, U, _gaussian, phi0,
                                      args.t_end, args.nx)
        files.append(write_lines(out / "wkb_phase.csv", [
            "x,phi,p,a_re,a_im"] + [
            f"{x:.6g},{phi:.6g},{p:.6g},{a.real:.6g},{a.imag:.6g}"
            for x, phi, p, a in zip(traj.x, traj.phi[-1], traj.p[-1],
                                    amp.a[-1])]))
        print(f"phase/amplitude advanced to t = {traj.times[-1]:.6g}")
    if rep.detected:
        print(f"caustic trigger at t ~= {rep.t_c:.4f} (x ~= {rep.x_c:.4f})")
    harness.write_manifest(out, _settings(args), files)
    return 0


def cmd_convergence(args) -> int:
    if args.config:
        config = harness.parse_config_file(args.config)
        if args.out:
            config.out_dir = args.out
    else:
        config = harness.ExperimentConfig(
            scenario=args.scenario, epsilon=args.eps, R=args.R, M=args.M,
            Lambda=args.Lambda, lattice=args.lattice, external=args.external,
            schemes=args.schemes, dt=args.dt, dt_list=args.dt_list,
            T=args.T, out_dir=args.out or "out")
    out = Path(config.out_dir)
    reports = harness.run_convergence_study(config)
    files = []
    for report in reports:
        for fmt in ("csv", "markdown-table", "svg-lineplot"):
            files.append(harness.emit_report(report, fmt, out))
        print(f"{report.scheme}: l2 errors",
              " ".join(f"{e:.3e}" for e in report.l2),
              "orders", " ".join(f"{o:.2f}" for o in report.orders))
    harness.write_manifest(out, config, files)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochstep",
        description="Bloch-decomposition solvers for the semiclassical "
                    "Schrodinger equation with a periodic lattice")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bands", help="solve and cache a band table")
    _add_problem_flags(p, external_default=None)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("evolve", help="time-evolve a Gaussian wave packet")
    p.add_argument("--scheme", choices=("bd", "ts"), default="bd")
    p.add_argument("--order", choices=("lie", "strang"), default="strang")
    _add_problem_flags(p)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--steps", type=_count(1), default=100)
    p.add_argument("--snapshot-every", type=_count(0), default=0,
                   help="steps between snapshots; 0 keeps the final field only")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("compare", help="BD vs TS errors against a fine reference")
    _add_problem_flags(p, external_default="harmonic")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--bd-steps", type=_count(1), default=100)
    p.add_argument("--ts-steps", type=_count(1), default=1000)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("wkb", help="asymptotic phase/amplitude evolution")
    p.add_argument("--band", type=int, default=1)
    p.add_argument("--phi0", choices=tuple(_PHI0), default="zero")
    _add_problem_flags(p, external_default="harmonic")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--nx", type=_count(1), default=256)
    p.add_argument("--steps", type=_count(1), default=1000,
                   help="BD steps when --compare is set")
    p.add_argument("--compare", action="store_true",
                   help="run the full solver alongside and emit differences")
    p.set_defaults(func=cmd_wkb)

    p = sub.add_parser("convergence", help="spatial or temporal error study")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--scenario", choices=("spatial", "temporal"),
                   default="spatial")
    _add_problem_flags(p, out_default="")
    p.add_argument("--schemes", type=harness.name_list, default="bd",
                   help="comma-separated schemes: bd, ts")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--dt-list", type=harness.float_list, default="",
                   help="comma-separated decreasing steps (temporal)")
    p.add_argument("--T", type=float, default=0.1)
    p.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Input the package rejects, a BlochStepError or a
    ValueError, ends it with one line on stderr and status 2, argparse's own
    status for bad input.  --out is made at the first write, after the
    solve, so a run refused before it leaves nothing behind."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BlochStepError, ValueError) as exc:
        print(f"blochstep {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

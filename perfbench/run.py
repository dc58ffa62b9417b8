"""Benchmark entry point.

    python3 perfbench/run.py --workload bd_kp_fine --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones of an untraced run; with `--trace 1` they are the
per-layer ones of a traced replay (see README.md in this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# BLAS and OpenMP read these once, when the library loads: they must be set
# before numpy or scipy is imported, or they do nothing.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


class MissingProgram(RuntimeError):
    """The checkout holds no importable `src/blochstep` package."""


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool of this process to one thread."""
    if "numpy" in sys.modules or "scipy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program() -> None:
    """Put `src/` on the import path and import the package from there."""
    if not (SRC_DIR / "blochstep" / "__init__.py").is_file():
        raise MissingProgram(f"no blochstep package under {SRC_DIR}")
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, str(SRC_DIR))
    import blochstep  # noqa: F401


# Per-layer metrics: "<module>.<function>_<unit>" is the median per-call
# self time of that function's spans (or of its probes, where the workload's
# replay makes no such call); the rest are computed in traced_run.
LAYER_METRICS = (
    "bands.solve_bands_s", "bands.eval_band_ms",
    "wkb.hj_solve_s", "wkb.transport_solve_s", "wkb.build_wkb_initial_s",
    "wkb.reconstruct_sc_s", "wkb.chi_cache_hit_ratio",
    "transform.cell_forward_ms", "transform.band_project_ms",
    "transform.band_reconstruct_ms", "transform.cell_inverse_ms",
    "transform.band_masses_ms",
    "steppers.bd_periodic_flow_ms", "steppers.external_phase_ms",
    "steppers.bd_step_ms", "steppers.ts_step_ms",
    "grid.discrete_norms_ms",
    "trace.overhead_s", "trace.span_coverage",
)
UNIT_SCALE = {"s": 1.0, "ms": 1e3}

# The machine's speed drifts over seconds, so set-up is timed in a batch of
# at least this many seconds before every solve rather than all at the start:
# both medians then sample the whole run.
SETUP_BATCH_SECONDS = 0.2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="how long to keep solving (at least one solve)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def out_of_time(start, cycles, seconds) -> bool:
    """True when another cycle, as long as the mean one so far, would end
    after `seconds`; the first cycle always runs."""
    elapsed = perf_counter() - start
    return cycles > 0 and elapsed * (cycles + 1) / cycles > seconds


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(wl, theta, seconds, expected, ref):
    from calibrate import SpeedGauge
    from tracing import NoTrace, median
    from workloads import ERR_TOL
    setups, solves, failed = [], [], 0
    start = perf_counter()
    with SpeedGauge() as gauge:
        while not out_of_time(start, len(solves), seconds):
            batch = perf_counter()
            while perf_counter() - batch < SETUP_BATCH_SECONDS:
                s, iv = gauge.timed(wl.setup, theta, NoTrace())
                setups.append(iv)
            out, iv = gauge.timed(wl.solve, s)
            solves.append(iv)
            if len(solves) == 1:
                # later cycles only repeat the first one's allocations, but
                # heap fragmentation makes their peak vary from run to run
                rss = peak_rss_mb()
            problems = wl.check(s, out, ref, expected)
            if problems:
                failed += 1
                print(f"solve {len(solves)} failed: {problems}", file=sys.stderr)
    errors = wl.errors(s, out, ref, NoTrace())
    if abs(errors["sup_band_l2"] - expected["sup_band_l2"]) > ERR_TOL:
        failed = max(failed, 1)
        print(f"sup_band_l2 {errors['sup_band_l2']!r} != recorded "
              f"{expected['sup_band_l2']!r}", file=sys.stderr)
    solve_s = median(gauge.scaled(solves, wl.speed_mix["solve"]))
    metrics = {
        "setup_s": (median(gauge.scaled(setups, wl.speed_mix["setup"])), "s"),
        "solve_s": (solve_s, "s"),
        "ms_per_step": (1e3 * solve_s / wl.steps, "ms"),
        "peak_rss_mb": (rss, "MB"),
        "err_linf": (errors["err_linf"], "1"),
        "sup_band_l2": (errors["sup_band_l2"], "1"),
    }
    record = {"setups": setups, "solves": solves, "gauge_ticks": gauge.ticks,
              "raw_setup_s": median([iv.seconds for iv in setups]),
              "raw_solve_s": median([iv.seconds for iv in solves])}
    return len(solves), failed, metrics, record


def traced_run(wl, theta, seconds, expected, ref):
    from tracing import Tracer, median
    from workloads import REPLAY_TOL
    tr = Tracer()
    s = tr.call("setup", wl.setup, theta, tr)
    untraced, attempted, failed, gaps = [], 0, 0, []
    start = perf_counter()
    while not out_of_time(start, attempted, seconds):
        plain, dt = timed(wl.solve, s)
        untraced.append(dt)
        out = tr.call("solve", wl.replay, s, tr)
        attempted += 1
        problems = wl.check(s, out, ref, expected)
        gaps.append(wl.replay_gap(plain, out))
        if gaps[-1] > REPLAY_TOL:
            problems.append(f"replay differs from solve by {gaps[-1]:.3e}")
        if problems:
            failed += 1
            print(f"replay {attempted} failed: {problems}", file=sys.stderr)
    wl.probes(s, out, tr)

    layers = tr.layer_times()
    metrics = {}
    for name in LAYER_METRICS:
        layer, _, unit = name.rpartition("_")
        if layer in layers:
            metrics[name] = (UNIT_SCALE[unit] * median(layers[layer]), unit)
    lookups = tr.counts["wkb.chi_lookups"]
    metrics["wkb.chi_cache_hit_ratio"] = (
        (lookups - tr.counts["wkb.chi_eigensolves"]) / lookups, "ratio")
    metrics["trace.overhead_s"] = (
        median(tr.durations("solve")) - median(untraced), "s")
    metrics["trace.span_coverage"] = (tr.coverage("solve"), "ratio")
    missing = set(LAYER_METRICS) - set(metrics)
    if missing:
        raise RuntimeError(f"no measurement for {sorted(missing)}")
    record = {"untraced_solve_times": untraced, "replay_gaps": gaps, **tr.dump()}
    return attempted, failed, metrics, record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine()


def openblas_threads() -> dict:
    """Thread count reported by each OpenBLAS loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import platform
    import numpy
    import scipy
    blas = {}
    for mod in (numpy, scipy):
        deps = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{deps['name']} {deps['version']}"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": openblas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        import_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    ref = workloads.load_reference(expected)
    theta = 2.0 * np.pi * np.random.default_rng(args.seed).random()
    run = traced_run if args.trace else untraced_run
    attempted, failed, metrics, record = run(
        wl, theta, args.seconds, expected["errors"][args.workload], ref)

    env = environment()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "theta": theta, "env": env, "result": result,
         **record}))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

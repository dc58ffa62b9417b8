"""Regenerate the stored inputs of the benchmark's correctness gate.

    python3 perfbench/make_reference.py field      # fine BD reference (~5 min)
    python3 perfbench/make_reference.py expected   # recorded error values
    python3 perfbench/make_reference.py            # both, in that order

`field` runs BD (Strang) at epsilon = 1/1024 with R = 64 and N = 10 000
steps on the Kronig-Penney lattice with the harmonic external potential,
keeps every second sample (the R = 32 grid of the workloads, as the
extended acceptance test does) and writes it with its SHA-256 checksum.
`expected` runs each workload once at zero global phase and records the
error metrics and mass drift that the correctness gate compares against.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from run import BENCH_DIR, import_program, pin_threads

EXPECTED_FILE = BENCH_DIR / "expected.json"


def file_sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def make_field() -> None:
    import numpy as np
    import workloads as wl
    from blochstep import (StepperConfig, build_grid, evolve, kronig_penney,
                           sample_gaussian, solve_bands)

    tic = time.perf_counter()
    grid = build_grid(wl.EPS_FINE, wl.REF_R)
    table = solve_bands(kronig_penney(wl.KP_LAMBDA), grid, wl.REF_R,
                        wl.M)
    cfg = StepperConfig("bd", "strang", wl.T / wl.REF_STEPS, bands=table,
                        external=wl.harmonic())
    final = evolve(sample_gaussian(grid), cfg, wl.T, wl.REF_STEPS).final
    wl.REF_FILE.parent.mkdir(parents=True, exist_ok=True)
    np.save(wl.REF_FILE, np.ascontiguousarray(final.values[:, ::wl.REF_R // wl.R]))
    print(f"wrote {wl.REF_FILE.name} in {time.perf_counter() - tic:.0f} s")
    _update_expected({"reference": {"file": wl.REF_FILE.name,
                                    "sha256": file_sha256(wl.REF_FILE)}})


def make_expected() -> None:
    import workloads as wl
    from tracing import NoTrace

    ref = wl.load_reference(json.loads(EXPECTED_FILE.read_text()))
    recorded = {}
    for name, workload in wl.WORKLOADS.items():
        state = workload.setup(0.0, NoTrace())
        out = workload.solve(state)
        recorded[name] = workload.errors(state, out, ref, NoTrace())
        if out.masses is not None:
            recorded[name]["mass_drift"] = workload.mass_drift(out)
        print(name, recorded[name])
    _update_expected({"errors": recorded})


def _update_expected(part: dict) -> None:
    data = json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}
    data.update(part)
    EXPECTED_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    steps = argv or ["field", "expected"]
    unknown = set(steps) - {"field", "expected"}
    if unknown:
        print(f"unknown step(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    pin_threads()
    import_program()
    if "field" in steps:
        make_field()
    if "expected" in steps:
        make_expected()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
